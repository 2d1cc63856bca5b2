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
import functools
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
# np.angle may differ from _arg by a few ulps: a lockstep step whose
# argument is this close to _MAX_ARG is left to _bisect.
_ARG_MARGIN = 1e-12


def principal_sqrt(w: complex) -> complex:
    """Principal square root with Arg(result) in (-pi/2, pi/2].

    cmath.sqrt maps the negative real axis to the positive imaginary
    axis, which is exactly the (-pi/2, pi/2] convention.
    """
    return cmath.sqrt(w)


def _arg(r: complex) -> float:
    """The argument of r in [-pi, pi].  Unlike cmath.phase, it does not
    raise where the angle underflows to a subnormal, as for 2+5e-324j."""
    return math.atan2(r.imag, r.real)


def track_sqrt(f: Callable[[np.ndarray], np.ndarray], z0, t0: float = 0.0,
               t1: float = 1.0) -> np.ndarray:
    """Continue the anchors z0 (P,), z0[p]**2 = f(t0)[p], along a stack of
    P paths from t0 to t1: returns the (P,) roots at t1.

    ``f`` takes a 1-D float array of m parameters and returns a (P, m)
    complex array, row p on path p.  The grid ``t0 + j*h`` (j =
    0.._INITIAL_STEPS) is evaluated in one call, and each bisection
    midpoint in one call of length 1 for the whole stack, so ``f`` must
    be defined on all of [t0, t1] for every path.

    The paths are stepped in lockstep, with the exact kernel (cdiv,
    cmul, cabs and _sqrt).  Only a step that needs bisection, fails a
    check, comes within a margin of a check's threshold or meets a
    non-finite value is stepped by _bisect, path by path in stack order,
    and so is the anchor test of a path that comes within a margin of
    its bound.  The roots, the errors and the midpoints evaluated are
    those of stepping each path alone.

    Raises TrackingError, for the first failing path, if its anchor does
    not square to its start value, if its value passes within the
    tracking tolerance of zero away from the endpoint, or if bisection
    cannot reduce the argument step.

    The interval is always cut into _INITIAL_STEPS pieces before the
    adaptive bisection: testing only endpoint ratios would miss a path
    that winds around the origin yet returns with a small total argument.
    """
    z = anchors = np.asarray(z0, dtype=complex)
    h = (t1 - t0) / _INITIAL_STEPS
    grid = t0 + np.arange(_INITIAL_STEPS + 1) * h
    rows = np.asarray(f(grid), dtype=complex).reshape(len(anchors), len(grid))
    # the values of every path at a bisection midpoint, one call each
    at = functools.cache(lambda tm: np.asarray(f(np.array([tm])), dtype=complex)
                         .reshape(len(anchors)).tolist())

    tols = get_tolerances()
    size = cabs(rows)
    with np.errstate(all="ignore"):
        # the anchor test is settled here only well inside its bound
        slow = ~(cabs(cmul(z, z) - rows[:, 0])
                 < 0.5 * identity_bound(tols) * np.fmax(1.0, size[:, 0]))
        # step j goes from grid point j to j + 1; it is flagged unless
        # every test of _bisect passes with room to spare
        ratio = cdiv(rows[:, 1:], rows[:, :-1])
        flagged = ~(np.isfinite(size[:, 1:]) & np.isfinite(size[:, :-1])
                    & np.isfinite(ratio) & (size[:, :-1] != 0.0) & (ratio != 0.0)
                    & (np.abs(np.angle(ratio)) < _MAX_ARG - _ARG_MARGIN))
        flagged |= (size[:, 1:] <= tols.track * np.fmax(1.0, size[:, :1])) & (grid[1:] < t1)
        steps = _sqrt(ratio)
        for j in range(_INITIAL_STEPS):
            z = cmul(z, steps[:, j])
    grid = grid.tolist()
    # each path with a flagged step or anchor, in stack order, as alone
    for p in np.flatnonzero(slow | flagged.any(axis=1)).tolist():
        values, root = rows[p].tolist(), complex(anchors[p])
        if abs(root * root - values[0]) > identity_bound(tols) * max(1.0, abs(values[0])):
            raise TrackingError("anchor does not square to the path start value")
        floor = tols.track * max(1.0, abs(values[0]))
        for j, step in enumerate(steps[p].tolist()):
            if flagged[p, j]:
                root = _bisect(root, grid[j], values[j], grid[j + 1], values[j + 1],
                               at, p, t1, floor)
            else:
                root = root * step
        z[p] = root
    return z


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
        if abs(_arg(ratio)) >= _MAX_ARG or abs(ratio) == 0.0:
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


def cmul(a, b) -> np.ndarray:
    """Python's complex a * b, elementwise on complex arrays, bit for bit
    (numpy's complex multiply may round differently)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return _complex(a.real * b.real - a.imag * b.imag,
                    a.real * b.imag + a.imag * b.real)


def cdiv(a, b) -> np.ndarray:
    """Python's complex a / b, elementwise on complex arrays, bit for bit
    (Smith's algorithm, as CPython's _Py_c_quot; numpy's complex divide
    rounds differently), for b != 0."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    big = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):  # the branch not taken may divide by 0
        q = np.where(big, bi / br, br / bi)
        d = np.where(big, br, bi) + np.where(big, bi, br) * q
        return _complex(np.where(big, ar + ai * q, ar * q + ai) / d,
                        np.where(big, ai - ar * q, ai * q - ar) / d)


def cabs(a) -> np.ndarray:
    """Python's abs of complex values, elementwise: np.hypot of the parts
    (numpy's complex abs may round differently)."""
    a = np.asarray(a, dtype=complex)
    return np.hypot(a.real, a.imag)


def _sqrt(w: np.ndarray) -> np.ndarray:
    """cmath.sqrt, elementwise on a complex array of finite nonzero
    values: CPython's scaling, with hypot, of the parts by 1/8, or by
    2**53 where both are subnormal."""
    re, ax, ay = w.real, np.abs(w.real), np.abs(w.imag)
    tiny = (ax < sys.float_info.min) & (ay < sys.float_info.min)
    up = np.ldexp(ax, 53)
    s = np.where(tiny, np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay, 53))), -27),
                 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0)))
    d = ay / (2.0 * s)
    return _complex(np.where(re >= 0.0, s, d),
                    np.copysign(np.where(re >= 0.0, d, s), w.imag))


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
                if abs(_arg(ratio)) >= _MAX_ARG:
                    raise TrackingError(
                        f"branch jump between {names[cur]} and {names[nxt]} {jump}")
                val = z[cur] * principal_sqrt(ratio)
                if z[nxt] is None:
                    z[nxt] = val
                    frontier.append(nxt)
                elif abs(val - z[nxt]) > bound * max(1.0, abs(val)):
                    raise TrackingError(f"inconsistent square root {cycle}")
    return z
