"""Continuous square roots along straight paths and over sampled graphs.

On a straight path, det(A + sX) = det A prod(1 + s mu_i), mu_i the
eigenvalues of A^-1 X.  Each factor runs along a segment from 1, which
meets the negative reals only through 0, so away from 0 the continuous
root from z0 at s = 0 is z0 prod sqrt(1 + mu_i) at s = 1 (principal
roots), and each segment's distance from 0 bounds the path from below.
On a sampled graph (track_graph) the steps are the edges and cannot be
refined, so a step that _turns flags, by pi/2 or more, is an error.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable, Sequence

import numpy as np

from .config import check_bound, get_tolerances, identity_bound
from .errors import TrackingError, raise_first
from .smallmat import cabs, eigvals

# A ratio r of consecutive values turns (may cross the branch cut of the
# square root) unless its argument stays below 0.999·pi/2: unless 0 <
# Re r < inf and |Im r| < _TAN_MAX_ARG · Re r.  The tangent of that
# margin is a literal, 0x1.3e4f438b2ce6cp+9, so that no libm call
# decides a step.
_TAN_MAX_ARG = 636.6192487687345


def _turns(ratio):
    """The step test of track_graph, exact in real arithmetic, of a ratio
    or an array of ratios: whether the step may cross the branch cut, a
    branch jump on a sampled graph."""
    re = ratio.real
    with np.errstate(over="ignore"):  # S · Re r may overflow to inf
        return ~((0.0 < re) & (re < np.inf) & (np.abs(ratio.imag) < _TAN_MAX_ARG * re))


def _ratio(a, b) -> np.ndarray:
    """The quotient a / b of the step ratios of track_graph and of the
    pencils of track_sqrt: cdiv, except where Smith's denominator
    overflows near the float maximum, so that the quotient of finite
    operands is not finite (Python's (1e308+1e308j) / (1e308+1e308j) is
    nan+0j) or that of nonzero ones is zero ((-1e308j) / (1e308-1e308j)
    is -0j, not 0.5-0.5j); there both operands are halved first.
    Halving is exact for normal parts, and every other ratio is cdiv's,
    bit for bit."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    q = cdiv(a, b)
    redo = (~np.isfinite(q) | ((q == 0) & (a != 0))) & np.isfinite(a) & np.isfinite(b)
    if redo.any():
        half = [_complex(0.5 * x.real, 0.5 * x.imag) for x in (a, b)]
        q = np.where(redo, cdiv(*half), q)
    return q


def _pencil(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The eigenvalues (P, m) of A^-1 X, for stacks (P, m, m) with
    det A != 0.  For m <= 2 by the exact kernel, from mu_1 + mu_2 =
    a_1 / det A and mu_1 mu_2 = det X / det A, a_1 the mixed term of
    det(A + sX): the larger root, then the product over it, so neither
    cancels.  For m > 2 by smallmat.eigvals."""
    P, m = len(A), A.shape[-1]
    if m < 2:
        return _ratio(X.reshape(P, m), A.reshape(P, m))
    if m > 2:
        return eigvals(A, X)
    (a, b), (c, d) = A[:, 0].T, A[:, 1].T
    (w, x), (y, z) = X[:, 0].T, X[:, 1].T
    det_a = cmul(a, d) - cmul(b, c)
    half = _ratio(cmul(a, z) + cmul(w, d) - cmul(b, y) - cmul(x, c), det_a + det_a)
    prod = _ratio(cmul(w, z) - cmul(x, y), det_a)
    root = _sqrt(cmul(half, half) - prod)
    big = np.where(half.real * root.real + half.imag * root.imag < 0.0, half - root, half + root)
    return np.stack([big, np.where(big == 0, 0j, _ratio(prod, np.where(big == 0, 1.0, big)))],
                    axis=-1)


def track_sqrt(f: Callable[[np.ndarray], np.ndarray], z0, start) -> np.ndarray:
    """Continue the anchors z0 (P,), z0[p]**2 = start[p], along P
    straight paths of matrices from s = 0 to 1: the (P,) roots at 1.

    ``f`` takes a 1-D float array of parameters and returns the (P, len,
    m, m) matrices of the paths there, each affine in s; it is called
    once, at s = [0, 1].  start is det f(0), taken by the caller, as
    smallmat.inv's are.  With A = f(0), X = f(1) - A and mu = _pencil, the
    root is z0 prod sqrt(1 + mu_i) by the exact kernel.  Raises
    TrackingError for the first path whose anchor fails Python's
    abs(z0**2 - det A) <= bound * max(1, abs(det A)), bit for bit, whose
    matrices at s = 0 or 1 are not finite, or that vanishes: |det A|
    prod_i min over s of |1 + s mu_i|, the least size on the path, is at
    most the tracking tolerance times max(1, |det A|).
    """
    anchors = np.asarray(z0, dtype=complex)
    ends = np.asarray(f(np.array([0.0, 1.0])), dtype=complex)
    A, m = ends[:, 0], ends.shape[-1]
    tols = get_tolerances()
    start = np.asarray(start, dtype=complex)
    size = cabs(start)
    with np.errstate(all="ignore"):
        X = ends[:, 1] - A
        # Python's abs(z * z - f(0)) <= bound * max(1, abs(f(0))), bit for bit
        stray = ~(cabs(cmul(anchors, anchors) - start)
                  <= identity_bound(tols) * np.fmax(1.0, size))
        # not finite at s = 0, or else at s = 1 where X is not
        head = ~(np.isfinite(A).all(axis=(-2, -1)) & np.isfinite(start))
        broken = head | ~np.isfinite(X).all(axis=(-2, -1))
        # a path that fails gets the pencil of a constant one
        ok = (~broken & (start != 0))[:, None, None]
        mu = _pencil(np.where(ok, A, np.eye(m)), np.where(ok, X, 0.0))
        # the nearest point 1 + s mu of each segment to 0, s in [0, 1]
        h = np.hypot(mu.real, mu.imag)
        at = np.where(mu.real < 0.0, np.fmin(-mu.real / h / h, 1.0), 0.0)
        least = np.hypot(1.0 + at * mu.real, at * mu.imag)
        # |det A| prod least over max(1, |det A|), without inf / inf
        bound, roots = np.fmin(1.0, size), anchors
        for j in range(m):
            bound = bound * least[:, j]
            roots = cmul(roots, _sqrt(1.0 + mu[:, j]))
    raise_first([
        (stray, lambda p: TrackingError("anchor does not square to the path start value")),
        (broken, lambda p: TrackingError(
            f"tracked value is not finite at s={0 if head[p] else 1}")),
        (~(bound > tols.track), lambda p: TrackingError(
            f"tracked value vanishes near s={at[p, np.argmin(least[p])] if m else 0.0:.6g}")),
    ])
    return roots


def _complex(re, im) -> np.ndarray:
    """The complex array of two float arrays of parts, signed zeros kept."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def cmul(a, b) -> np.ndarray:
    """Python's complex a * b, elementwise on complex arrays, bit for bit
    (numpy's complex multiply may round differently)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    with np.errstate(all="ignore"):
        np.subtract(ar * br, ai * bi, out=out.real)
        np.add(ar * bi, ai * br, out=out.imag)
    return out


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
    edges   (V,) int array: the position in the edge list of the edge of
            each visit, -1 at a root
    levels  the positions in visits of each depth 0, 1, 2, ...
    """

    def __init__(self, visits: np.ndarray, depth: np.ndarray, edges: np.ndarray):
        self.visits = visits
        self.depth = depth
        self.edges = edges

    @functools.cached_property
    def levels(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.depth == d) for d in range(self.depth.max(initial=-1) + 1)]

    @classmethod
    def of(cls, size: int, edges, roots) -> "Walk":
        """The walk of the graph on vertices 0..size-1 with the edges
        (i, j), from the roots in their order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        for e, (i, j) in enumerate(edges):
            adj[i].append((j, e))
            adj[j].append((i, e))
        level = [-1] * size
        visits, depth, through = [], [], []
        for root in roots:
            if level[root] >= 0:
                continue
            level[root] = 0
            visits.append((root, root))
            depth.append(0)
            through.append(-1)
            queue = [root]
            for cur in queue:  # the loop also takes what it appends
                for nxt, e in adj[cur]:
                    tree = level[nxt] < 0
                    if tree:
                        level[nxt] = level[cur] + 1
                        queue.append(nxt)
                    visits.append((cur, nxt))
                    depth.append(level[nxt] if tree else -1)
                    through.append(e)
        return cls(np.array(visits, dtype=int).reshape(-1, 2), np.array(depth, dtype=int),
                   np.array(through, dtype=int))


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
        # the roots as parts, NaN + 0j where no piece arrives; each level
        # is cmul of its visits, on the parts
        zr, zi = np.full(len(v), np.nan), np.zeros(len(v))
        first = nxt[walk.depth == 0]
        head = cmul(np.broadcast_to(flip, v.shape)[first], _sqrt(v[first]))
        zr[first], zi[first] = head.real, head.imag
        rr, ri = roots.real, roots.imag
        for at in walk.levels[1:]:
            a, b, c, d = zr[cur[at]], zi[cur[at]], rr[at], ri[at]
            zr[nxt[at]], zi[nxt[at]] = a * c - b * d, a * d + b * c
        z = _complex(zr, zi)
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
