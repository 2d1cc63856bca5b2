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
import sys
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
# np.arctan2 may differ from cmath.phase by a few ulps: a lockstep step
# whose argument is this close to _MAX_ARG is left to _bisect.
_ARG_MARGIN = 1e-12


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
    bisected as if alone; a midpoint is evaluated for the whole stack in
    one call, once per distinct parameter, so ``f`` must be defined on
    all of [t0, t1] for every path.

    The paths are stepped in lockstep: the ratios, the checks and the
    running products of every grid step of every path are float-array
    operations that reproduce Python's complex arithmetic bit for bit
    (_quot, _prod and _sqrt; abs is np.hypot).  Only a step that needs
    bisection, fails a check, comes within a margin of a check's
    threshold or meets a non-finite value is stepped by _bisect, path by
    path in stack order, and so is the anchor test of a path that comes
    within a margin of its bound.  The roots, the errors and the
    midpoints evaluated are those of stepping each path alone.

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
    rows = np.asarray(paths(grid), dtype=complex).reshape(len(anchors), len(grid))
    midpoints: dict[float, list[complex]] = {}

    def at(tm: float) -> list[complex]:
        if tm not in midpoints:
            midpoints[tm] = np.asarray(paths(np.array([tm])),
                                       dtype=complex)[:, 0].tolist()
        return midpoints[tm]

    tols = get_tolerances()
    fr, fi = rows.real, rows.imag
    size = np.hypot(fr, fi)  # abs of every value
    z = np.array(anchors, dtype=complex).reshape(len(anchors))
    zr, zi = z.real, z.imag
    with np.errstate(all="ignore"):
        # the anchor test is settled here only well inside its bound
        sr, si = _prod(zr, zi, zr, zi)
        slow = ~(np.hypot(sr - fr[:, 0], si - fi[:, 0])
                 < 0.5 * identity_bound(tols) * np.fmax(1.0, size[:, 0]))
        # step j goes from grid point j to j + 1; it is flagged unless
        # every test of _bisect passes with room to spare
        rr, ri = _quot(fr[:, 1:], fi[:, 1:], fr[:, :-1], fi[:, :-1])
        flagged = ~(np.isfinite(size[:, 1:]) & np.isfinite(size[:, :-1])
                    & np.isfinite(rr) & np.isfinite(ri) & (size[:, :-1] != 0.0)
                    & ((rr != 0.0) | (ri != 0.0))
                    & (np.abs(np.arctan2(ri, rr)) < _MAX_ARG - _ARG_MARGIN))
        flagged |= (size[:, 1:] <= tols.track * np.fmax(1.0, size[:, :1])) & (grid[1:] < t1)
        sr, si = _sqrt(rr, ri)
        for j in range(_INITIAL_STEPS):
            zr, zi = _prod(zr, zi, sr[:, j], si[:, j])
    roots = _complex(zr, zi).tolist()
    steps = _complex(sr, si)
    grid = grid.tolist()
    # each path with a flagged step or anchor, in stack order, as alone
    for p in np.flatnonzero(slow | flagged.any(axis=1)).tolist():
        values, root = rows[p].tolist(), anchors[p]
        if abs(root * root - values[0]) > identity_bound(tols) * max(1.0, abs(values[0])):
            raise TrackingError("anchor does not square to the path start value")
        floor = tols.track * max(1.0, abs(values[0]))
        root = complex(root)
        for j, step in enumerate(steps[p].tolist()):
            if flagged[p, j]:
                root = _bisect(root, grid[j], values[j], grid[j + 1], values[j + 1],
                               at, p, t1, floor)
            else:
                root = root * step
        roots[p] = root
    return roots[0] if single else roots


def _bisect(z, t, ft, tn, fn, at, p, t1, floor) -> complex:
    """One grid step of path p of track_sqrt, from the value ft at t to
    fn at tn, bisected as needed: returns z continued to tn.  ``at(tm)[p]``
    is the path's value at a midpoint tm."""
    # Stack of pending (right endpoint, value) pairs, the grid point at
    # the bottom and bisection midpoints above it; the top is processed
    # next.
    pending = [(tn, fn)]
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


def _complex(re, im) -> np.ndarray:
    """The complex array of two float arrays of parts, signed zeros kept."""
    return np.stack([re, im], axis=-1).view(complex)[..., 0]


def _prod(ar, ai, br, bi):
    """Python's complex a * b on float arrays of the parts."""
    return ar * br - ai * bi, ar * bi + ai * br


def _quot(ar, ai, br, bi):
    """Python's complex a / b (Smith's algorithm, as CPython's
    _Py_c_quot) on float arrays of the parts, for b != 0."""
    big = np.abs(br) >= np.abs(bi)
    q = np.where(big, bi / br, br / bi)
    d = np.where(big, br, bi) + np.where(big, bi, br) * q
    return (np.where(big, ar + ai * q, ar * q + ai) / d,
            np.where(big, ai - ar * q, ai * q - ar) / d)


def _sqrt(re, im):
    """cmath.sqrt on float arrays of the parts, for finite nonzero
    values: CPython's scaling, with hypot, of the parts by 1/8, or by
    2**53 where both are subnormal."""
    ax, ay = np.abs(re), np.abs(im)
    tiny = (ax < sys.float_info.min) & (ay < sys.float_info.min)
    up = np.ldexp(ax, 53)
    s = np.where(tiny, np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay, 53))), -27),
                 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0)))
    d = ay / (2.0 * s)
    return np.where(re >= 0.0, s, d), np.copysign(np.where(re >= 0.0, d, s), im)


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
                if abs(cmath.phase(ratio)) >= _MAX_ARG:
                    raise TrackingError(
                        f"branch jump between {names[cur]} and {names[nxt]} {jump}")
                val = z[cur] * principal_sqrt(ratio)
                if z[nxt] is None:
                    z[nxt] = val
                    frontier.append(nxt)
                elif abs(val - z[nxt]) > bound * max(1.0, abs(val)):
                    raise TrackingError(f"inconsistent square root {cycle}")
    return z
