"""Continuous square-root tracking.

Given a continuous nonvanishing path ``f(t)`` of complex numbers and an
anchor ``z0`` with ``z0**2 = f(t0)``, there is a unique continuous branch
``z(t)`` with ``z(t)**2 = f(t)``.  We realize it numerically by stepping
along the path and multiplying by the principal square root of the ratio
of consecutive values; adaptive bisection keeps every argument step below
pi/2 so the branch can never jump.  On a sampled graph (track_graph)
the steps are the edges and cannot be refined, so a step of pi/2 or
more is an error.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .config import check_bound, get_tolerances, identity_bound
from .errors import TrackingError

# Argument-step safety margin: a ratio with |arg| beyond this triggers
# bisection (continuous functions) or an error (sampled graphs).
_MAX_ARG = 0.5 * math.pi * 0.999
# track_sqrt cuts [t0, t1] into _INITIAL_STEPS pieces and bisects a step
# at most _MAX_DEPTH times in a row.
_INITIAL_STEPS = 16
_MAX_DEPTH = 48


def principal_sqrt(w: complex) -> complex:
    """Principal square root with Arg(result) in (-pi/2, pi/2].

    cmath.sqrt maps the negative real axis to the positive imaginary
    axis, which is exactly the (-pi/2, pi/2] convention.
    """
    return cmath.sqrt(w)


def track_sqrt(
    f: Callable[[np.ndarray], np.ndarray],
    z0,
    t0: float = 0.0,
    t1: float = 1.0,
):
    """Continue z with z**2 = f(t) from the anchor z0 at t0 to t1.

    ``f`` is vectorized: it takes a 1-D float array of parameters and
    returns a complex array of the same length.  The grid
    ``t0 + j*h`` (j = 0.._INITIAL_STEPS) is evaluated in one call, and
    each bisection midpoint in one further call of length 1.

    A stack of P paths is tracked by passing a 1-D sequence of P anchors:
    ``f`` then returns a (P, m) array for m parameters, row p on path p,
    and the result is the list of the P roots.  Every path is stepped and
    bisected on its own, exactly as alone; a midpoint is evaluated for the
    whole stack in one call, once per distinct parameter, so ``f`` must
    be defined on all of [t0, t1] for every path.

    An anchor must satisfy z0**2 = f(t0).  Raises TrackingError, for the
    first failing path, if the tracked value passes within the tracking
    tolerance of zero away from the endpoint, or if bisection cannot
    reduce the argument step.

    The interval is always cut into _INITIAL_STEPS pieces before the
    adaptive bisection: testing only endpoint ratios would miss a path
    that winds around the origin yet returns with a small total argument.
    """
    single = np.ndim(z0) == 0
    paths = (lambda t: np.asarray(f(t), dtype=complex)[None, :]) if single else f
    anchors = [z0] if single else list(z0)
    h = (t1 - t0) / _INITIAL_STEPS
    grid = t0 + np.arange(_INITIAL_STEPS + 1) * h
    rows = np.asarray(paths(grid), dtype=complex).tolist()
    midpoints: dict[float, list[complex]] = {}

    def at(tm: float) -> list[complex]:
        if tm not in midpoints:
            midpoints[tm] = np.asarray(paths(np.array([tm])),
                                       dtype=complex)[:, 0].tolist()
        return midpoints[tm]

    tols = get_tolerances()
    grid = grid.tolist()
    roots = [_track_path(values, anchor, p, grid, at, t1, tols)
             for p, (values, anchor) in enumerate(zip(rows, anchors))]
    return roots[0] if single else roots


def _track_path(values, z0, p, grid, at, t1, tols) -> complex:
    """One path of track_sqrt: ``values`` on the grid, ``at(t)[p]`` at a
    midpoint t."""
    ft0 = values[0]
    if abs(z0 * z0 - ft0) > identity_bound(tols) * max(1.0, abs(ft0)):
        raise TrackingError("anchor does not square to the path start value")
    floor = tols.track * max(1.0, abs(ft0))
    t, ft, z = grid[0], ft0, complex(z0)
    for target in zip(grid[1:], values[1:]):
        # Stack of pending (right endpoint, value) pairs, the grid point
        # at the bottom and bisection midpoints above it; the top is
        # processed next.
        pending = [target]
        depth = 0
        while pending:
            tn, fn = pending[-1]
            if abs(fn) <= floor and tn < t1:
                raise TrackingError(f"tracked value vanishes near t={tn:.6g}")
            if abs(ft) == 0.0:
                raise TrackingError(f"tracked value vanishes at t={t:.6g}")
            ratio = fn / ft
            if abs(cmath.phase(ratio)) >= _MAX_ARG or abs(ratio) == 0.0:
                depth += 1
                if depth > _MAX_DEPTH:
                    raise TrackingError("bisection depth exceeded (branch ambiguity)")
                tm = 0.5 * (t + tn)
                if tm in (t, tn):
                    raise TrackingError(f"path jumps near t={t:.6g}: no midpoint "
                                        "left to bisect (branch ambiguity)")
                pending.append((tm, at(tm)[p]))
                continue
            z = z * principal_sqrt(ratio)
            t, ft = tn, fn
            pending.pop()
            depth = 0
    return z


def track_graph(
    values: Sequence[complex],
    edges: Iterable[tuple[int, int]],
    roots: Iterable[int],
    names: Sequence[str],
    flip: int = 1,
    *,
    jump: str = "(edge too long)",
    cycle: str = "around a cycle",
) -> list[Optional[complex]]:
    """Continuous square roots of sampled values over a graph.

    values[i] is the value at vertex i, named names[i] in errors, and
    each edge (i, j) is one tracking step.  Each root in turn that no
    earlier walk reached starts a piece with flip * principal_sqrt of its
    value, and a breadth-first walk visits the neighbours of a vertex in
    edge order; so the caller's edge and root order fix every value.
    Returns the root at every vertex, None where no walk arrived.

    Samples cannot be refined, so a step raises TrackingError if a value
    at either end is exactly zero, if its argument reaches _MAX_ARG
    ("branch jump between <i> and <j> <jump>": the sampling is too coarse
    to rule out a branch jump), or if it reaches a tracked vertex with a
    root that differs beyond check_bound ("inconsistent square root
    <cycle>").
    """
    bound = check_bound(get_tolerances())
    adj: list[list[int]] = [[] for _ in values]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    z: list[Optional[complex]] = [None] * len(values)
    for root in roots:
        if z[root] is not None:
            continue
        z[root] = flip * principal_sqrt(values[root])
        frontier = deque([root])
        while frontier:
            cur = frontier.popleft()
            for nxt in adj[cur]:
                if values[cur] == 0 or values[nxt] == 0:
                    raise TrackingError(f"value vanishes between {names[cur]} and "
                                        f"{names[nxt]}; branch undefined")
                ratio = values[nxt] / values[cur]
                if abs(np.angle(ratio)) >= _MAX_ARG:
                    raise TrackingError(
                        f"branch jump between {names[cur]} and {names[nxt]} {jump}")
                val = z[cur] * principal_sqrt(ratio)
                if z[nxt] is None:
                    z[nxt] = val
                    frontier.append(nxt)
                elif abs(val - z[nxt]) > bound * max(1.0, abs(val)):
                    raise TrackingError(f"inconsistent square root {cycle}")
    return z
