"""Continuous square-root tracking.

Given a continuous nonvanishing path ``f(t)``, t in [0, 1], of complex
numbers and an anchor ``z0`` with ``z0**2 = f(0)``, there is a unique
continuous branch ``z(t)`` with ``z(t)**2 = f(t)``.  We realize it
numerically by stepping along the path and multiplying by the principal
square root of the ratio of consecutive values; adaptive bisection keeps
every argument step below pi/2 so the branch can never jump.  On a
sampled graph (track_graph) the steps are the edges and cannot be
refined, so a step of pi/2 or more is an error.  Both trackers decide a
step with one test, _turns.
"""

from __future__ import annotations

import cmath
import functools
import sys
from typing import Callable, Sequence

import numpy as np

from .config import check_bound, get_tolerances, identity_bound
from .errors import TrackingError, raise_first

# A ratio r of consecutive values turns (may cross the branch cut of the
# square root) unless its argument stays below 0.999·pi/2: unless 0 <
# Re r < inf and |Im r| < _TAN_MAX_ARG · Re r.  The tangent of that
# margin is a literal, 0x1.3e4f438b2ce6cp+9, so that no libm call
# decides a step.
_TAN_MAX_ARG = 636.6192487687345
# track_sqrt cuts [0, 1] into _INITIAL_STEPS pieces and bisects a step
# at most _MAX_DEPTH times in a row.
_INITIAL_STEPS = 16
_MAX_DEPTH = 48


def _turns(ratio):
    """The step test of both trackers, exact in real arithmetic, of a
    ratio or an array of ratios: whether the step may cross the branch
    cut.  track_sqrt bisects such a step, and on a sampled graph it is a
    branch jump."""
    re = ratio.real
    with np.errstate(over="ignore"):  # S · Re r may overflow to inf
        return ~((0.0 < re) & (re < np.inf) & (np.abs(ratio.imag) < _TAN_MAX_ARG * re))


def _ratio(a, b) -> np.ndarray:
    """The step ratio a / b of both trackers: cdiv, except where Smith's
    denominator overflows near the float maximum, so that the quotient
    of finite operands is not finite (Python's (1e308+1e308j) /
    (1e308+1e308j) is nan+0j) or that of nonzero ones is zero
    ((-1e308j) / (1e308-1e308j) is -0j, not 0.5-0.5j); there both
    operands are halved first.  Halving is exact for normal parts, and
    every other ratio is cdiv's, bit for bit."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    q = cdiv(a, b)
    redo = (~np.isfinite(q) | ((q == 0) & (a != 0))) & np.isfinite(a) & np.isfinite(b)
    if redo.any():
        half = [_complex(0.5 * x.real, 0.5 * x.imag) for x in (a, b)]
        q = np.where(redo, cdiv(*half), q)
    return q


def track_sqrt(f: Callable[[np.ndarray], np.ndarray], z0) -> np.ndarray:
    """Continue the anchors z0 (P,), z0[p]**2 = f(0)[p], along a stack of
    P paths from t = 0 to 1: returns the (P,) roots at 1.

    ``f`` takes a 1-D float array of m parameters and returns a (P, m)
    complex array, row p on path p.  The grid j / _INITIAL_STEPS is
    evaluated in one call, and each bisection midpoint in one call of
    length 1 for the whole stack, so ``f`` must be defined on all of
    [0, 1] for every path.

    The paths are stepped in lockstep, with the exact kernel (cdiv,
    cmul, cabs and _sqrt), and every anchor is tested in lockstep.  Only
    a step that _turns flags, or that comes within the tracking
    tolerance of zero, is stepped by _bisect, path by path in stack
    order.  The roots, the errors and the midpoints evaluated are those
    of stepping each path alone.

    Raises TrackingError, for the first failing path, if its anchor does
    not square to its start value, if its value is not finite, if it
    passes within the tracking tolerance of zero away from the endpoint,
    or if bisection cannot reduce the argument step.

    The interval is always cut into _INITIAL_STEPS pieces before the
    adaptive bisection: testing only endpoint ratios would miss a path
    that winds around the origin yet returns with a small total argument.
    """
    z = anchors = np.asarray(z0, dtype=complex)
    grid = np.arange(_INITIAL_STEPS + 1) / _INITIAL_STEPS
    rows = np.asarray(f(grid), dtype=complex).reshape(len(anchors), len(grid))
    # the values of every path at a bisection midpoint, one call each
    at = functools.cache(lambda tm: np.asarray(f(np.array([tm])), dtype=complex)
                         .reshape(len(anchors)).tolist())

    tols = get_tolerances()
    size = cabs(rows)
    with np.errstate(all="ignore"):
        # Python's abs(z * z - f(0)) <= bound * max(1, abs(f(0))), bit for bit
        stray = ~(cabs(cmul(z, z) - rows[:, 0])
                  <= identity_bound(tols) * np.fmax(1.0, size[:, 0]))
        # step j goes from grid point j to j + 1; a value that is zero or
        # not finite makes its ratios zero or not finite, which _turns flags
        ratio = _ratio(rows[:, 1:], rows[:, :-1])
        flagged = _turns(ratio)
        flagged |= (size[:, 1:] <= tols.track * np.fmax(1.0, size[:, :1])) & (grid[1:] < 1.0)
        steps = _sqrt(ratio)
        for j in range(_INITIAL_STEPS):
            z = cmul(z, steps[:, j])
    grid = grid.tolist()
    # each path with a stray anchor or a flagged step, in stack order, as alone
    for p in np.flatnonzero(stray | flagged.any(axis=1)).tolist():
        if stray[p]:
            raise TrackingError("anchor does not square to the path start value")
        values, root = rows[p].tolist(), complex(anchors[p])
        floor = tols.track * max(1.0, abs(values[0]))
        for j, step in enumerate(steps[p].tolist()):
            if flagged[p, j]:
                root = _bisect(root, grid[j], values[j], grid[j + 1], values[j + 1],
                               at, p, floor)
            else:
                root = root * step
        z[p] = root
    return z


def _bisect(z, t, ft, tn, fn, at, p, floor) -> complex:
    """One grid step of path p of track_sqrt, from the value ft at t to
    fn at tn, bisected as needed: returns z continued to tn.  ``at(tm)[p]``
    is the path's value at a midpoint tm."""
    if not cmath.isfinite(ft):
        raise TrackingError(f"tracked value is not finite at t={t:.6g}")
    # Stack of pending (right endpoint, value) pairs, the grid point at
    # the bottom and bisection midpoints above it; the top is processed
    # next.
    pending = [(tn, fn)]
    depth = 0
    while pending:
        tn, fn = pending[-1]
        if not cmath.isfinite(fn):
            raise TrackingError(f"tracked value is not finite at t={tn:.6g}")
        if abs(fn) <= floor and tn < 1.0:
            raise TrackingError(f"tracked value vanishes near t={tn:.6g}")
        if abs(ft) == 0.0:
            raise TrackingError(f"tracked value vanishes at t={t:.6g}")
        ratio = _ratio(fn, ft)
        if _turns(ratio):
            depth += 1
            if depth > _MAX_DEPTH:
                raise TrackingError("bisection depth exceeded (branch ambiguity)")
            tm = 0.5 * (t + tn)
            if tm in (t, tn):
                raise TrackingError(f"path jumps near t={t:.6g}: no midpoint "
                                    "left to bisect (branch ambiguity)")
            pending.append((tm, at(tm)[p]))
            continue
        z = z * cmath.sqrt(complex(ratio))
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
    with np.errstate(all="ignore"):
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
    (numpy's complex abs may round differently), inf where Python's
    raises OverflowError."""
    a = np.asarray(a, dtype=complex)
    with np.errstate(over="ignore"):
        return np.hypot(a.real, a.imag)


def _sqrt(w: np.ndarray) -> np.ndarray:
    """cmath.sqrt, elementwise on a complex array of finite values:
    CPython's scaling, with hypot, of the parts by 1/8, or by 2**53 where
    both are subnormal."""
    re, ax, ay = w.real, np.abs(w.real), np.abs(w.imag)
    tiny = (ax < sys.float_info.min) & (ay < sys.float_info.min)
    with np.errstate(all="ignore"):
        up = np.ldexp(ax, 53)
        s = np.where(tiny, np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay, 53))), -27),
                     2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0)))
        d = ay / np.where(s == 0.0, 1.0, 2.0 * s)  # s is 0 only where w is
    return _complex(np.where(re >= 0.0, s, d),
                    np.copysign(np.where(re >= 0.0, d, s), w.imag))


class Walk:
    """The breadth-first walk of a sample graph, fixed by its edges and
    roots: each root in turn that no earlier piece reached starts a
    piece, and the neighbours of a vertex are visited in edge order.

    visits  (V, 2) int array, in walk order: (r, r) for the root r of a
            piece, then (cur, nxt) for each neighbour nxt of each vertex
            cur of the piece
    depth   (V,) int array: 0 for a root, the depth of nxt for a visit
            that first reaches it (a tree visit), -1 for one that closes
            a cycle
    levels  the positions in visits of each depth 0, 1, 2, ...
    """

    def __init__(self, visits: np.ndarray, depth: np.ndarray):
        self.visits = visits
        self.depth = depth

    @functools.cached_property
    def levels(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.depth == d) for d in range(self.depth.max(initial=-1) + 1)]

    @classmethod
    def of(cls, size: int, edges, roots) -> "Walk":
        """The walk of the graph on vertices 0..size-1 with the edges
        (i, j), from the roots in their order."""
        adj: list[list[int]] = [[] for _ in range(size)]
        for i, j in edges:
            adj[i].append(j)
            adj[j].append(i)
        level = [-1] * size
        visits, depth = [], []
        for root in roots:
            if level[root] >= 0:
                continue
            level[root] = 0
            visits.append((root, root))
            depth.append(0)
            queue = [root]
            for cur in queue:  # the loop also takes what it appends
                for nxt in adj[cur]:
                    tree = level[nxt] < 0
                    if tree:
                        level[nxt] = level[cur] + 1
                        queue.append(nxt)
                    visits.append((cur, nxt))
                    depth.append(level[nxt] if tree else -1)
        return cls(np.array(visits, dtype=int).reshape(-1, 2), np.array(depth, dtype=int))


def track_graph(values, walk: Walk, names: Sequence[str], flip, *,
                jump: Callable[[int], str], cycle: Callable[[int], str]) -> np.ndarray:
    """Continuous square roots of sampled values over a graph.

    values[i] is the value at vertex i, named names[i] in errors, and
    each visit (cur, nxt) of the walk is one tracking step.  The root r
    of each piece gets flip (an int, or one per vertex: flip[r]) times
    its principal square root, and each tree visit z[cur] *
    sqrt(values[nxt] / values[cur]), one depth at a time, with the exact
    kernel: bit for bit the roots of stepping the visits one by one with
    Python's complex arithmetic.  Returns the roots, NaN where no piece
    arrived.

    Samples cannot be refined, so TrackingError is raised for the first
    visit in walk order that fails, if a value at either end of a step is
    exactly zero, if a value is not finite, if _turns flags the step
    ("branch jump between <cur> and <nxt> <jump(cur)>": the sampling is
    too coarse to rule out a branch jump), or if a visit that closes a
    cycle gives a root that differs from the tracked one beyond
    check_bound ("inconsistent square root <cycle(cur)>").
    """
    v = np.asarray(values, dtype=complex)
    cur, nxt = walk.visits.T
    step = walk.depth != 0
    with np.errstate(all="ignore"):
        ratio = _ratio(v[nxt], v[cur])
        roots = _sqrt(ratio)
        z = np.full(len(v), np.nan, dtype=complex)
        first = nxt[walk.depth == 0]
        z[first] = cmul(np.broadcast_to(flip, v.shape)[first], _sqrt(v[first]))
        for at in walk.levels[1:]:
            z[nxt[at]] = cmul(z[cur[at]], roots[at])
        val = cmul(z[cur], roots)
        size = cabs(val)
        off = ~(cabs(val - z[nxt]) <= check_bound(get_tolerances()) * np.fmax(1.0, size))
    finite = np.isfinite(v)
    raise_first([
        (step & ((v[cur] == 0) | (v[nxt] == 0)), lambda p: TrackingError(
            f"value vanishes between {names[cur[p]]} and {names[nxt[p]]}; "
            "branch undefined")),
        (~(finite[cur] & finite[nxt]), lambda p: TrackingError(
            f"value at {names[cur[p] if not finite[cur[p]] else nxt[p]]} is not finite; "
            "branch undefined")),
        (step & _turns(ratio), lambda p: TrackingError(
            f"branch jump between {names[cur[p]]} and {names[nxt[p]]} {jump(cur[p])}")),
        ((walk.depth < 0) & off, lambda p: TrackingError(
            f"inconsistent square root {cycle(cur[p])}")),
    ])
    return z
