"""Finite-nerve Cech machinery.

A nerve is a finite chart set together with sampled overlaps: every
connected overlap component is a rooted connected graph of sample
points, and triple intersections are recorded as sample points with
their component memberships in the three pairwise overlaps.  The Nerve
is built from the nerve section of a scenario document, and is the one
index of these points: its rows, and the maps from a row to its
component, chart and triple points, are built once by its constructor,
and every stack of the engine has one row per row of it.
A sign cochain is the GF(2) bits of its signs over the components
(degree 1) or the triple points (degree 2).  Cocycle identities are
checked at triple sample points only; continuous choices of square
roots become breadth-first tracking over component graphs.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import groups as G
from .config import check_bound, get_tolerances, identity_bound, zero_bound
from .errors import SingularityError, ValidationError, raise_first
from .smallmat import det, mul
from .tracking import Walk, cabs, cdiv, cmul, track_graph


class Nerve:
    """A finite nerve and the index of its sample points.

    The constructor takes the ``nerve`` section of a scenario document
    (``charts``, ``overlaps`` and ``triples``, as the scenario schema
    shapes them), checks it, and builds every row map of the nerve once,
    as the attributes below; the engine indexes these and builds no map
    of its own.  A sample point is its rows.

    Overlap rows, one per (component, point), the components in key order:

    keys        the sorted component keys (pair, component index)
    ids         the point id of each overlap row
    params      (P, D) float array: the parameters of each overlap row's
                point, zero-padded to the longest
    comp        (P,) int array: the position in keys of each overlap row's
                component
    components  (pair, component index) -> the range of its overlap rows
    overlap_walk  the Walk of the components' graphs on the overlap rows,
                each rooted at its first row
    noncontractible  the keys of the components declared non-contractible,
                in document order

    Chart rows, chart by chart in the given order: one per point id of the
    overlaps containing the chart, in the order of their first overlap
    rows, or one origin row for a chart that meets no overlap:

    charts      chart -> the range of its chart rows
    chart       (R,) int array: the position in charts of each chart row's
                chart
    sites       (chart, point id) of each chart row, the id "origin" for
                an origin row
    site_params (R, D) float array: the params of each chart row's first
                overlap row, zeros for an origin row
    ends        (P, 2) int array: the chart rows of each overlap row's
                point in the first and the second chart of its overlap
    draws       chart -> the chart rows of the overlap rows containing the
                chart, in overlap-row order (a point in two of them once
                per row), or its origin row: the population of the
                chart's seeded draws
    chart_walk  the Walk of the charts' sample graphs on the chart rows,
                each rooted at its rows in point-id order: a chart's graph
                has an edge between the rows of two point ids that some
                overlap component containing the chart joins

    Triple points, and the GF(2) coboundaries:

    triples     (triple key, point id) of every triple point, the keys
                sorted
    triple_rows (T, 3) int array: the overlap rows of the factors t_ab,
                t_bc, t_ac at each triple point
    delta0      (C, H) uint8: from chart signs to component signs, ones at
                the two charts of each component of keys
    delta1      (T, C) uint8: from component signs to triple-point signs,
                ones at the three components of each triple point;
                delta1 delta0 = 0 over GF(2), since each chart of a
                triple key lies on exactly two of its three pairs

    A sign cochain is the GF(2) bits of its signs, 1 for -1: over keys in
    degree 1 and over triples in degree 2.
    """

    def __init__(self, doc: dict):
        charts = doc["charts"]
        overlaps = doc.get("overlaps", [])
        listed = [(tuple(ov["pair"]), ci, comp) for ov in overlaps
                  for ci, comp in enumerate(ov["components"])]
        # the components in key order
        order = sorted(range(len(listed)), key=lambda j: listed[j][:2])
        sizes = [len(listed[j][2]["points"]) for j in order]
        first = np.cumsum([0] + sizes).tolist()
        start = dict(zip(order, first))
        # each component's fault, in document order: it has no point, an
        # edge leaves it, or its graph is disconnected
        faults, joins = {}, {}
        for j, (_, _, comp) in enumerate(listed):
            npts, pairs = len(comp["points"]), comp.get("edges", [])
            if not npts:
                faults[j] = "overlap component needs at least one point"
            elif not all(0 <= i < npts and 0 <= k < npts for i, k in pairs):
                faults[j] = "edge references a missing point"
            else:
                joins[j] = [(int(i), int(k)) for i, k in pairs]
        edges = [(start[j] + i, start[j] + k) for j, pairs in joins.items() for i, k in pairs]
        walk = Walk.of(first[-1], edges, [r for r, size in zip(first, sizes) if size])
        reached = np.zeros(first[-1], dtype=bool)
        reached[walk.visits[walk.depth >= 0, 1]] = True
        for j in np.repeat(order, sizes)[~reached].tolist():
            faults.setdefault(int(j), "overlap component graph is disconnected")
        if faults:
            raise ValidationError(faults[min(faults)])
        chartset = set(charts)
        if len(chartset) != len(charts):
            raise ValidationError("duplicate chart ids")
        pairs = [tuple(ov["pair"]) for ov in overlaps]
        for a, b in dict.fromkeys(pairs):
            if a == b:
                raise ValidationError("self-overlap (a, a) not allowed")
            if a > b:
                raise ValidationError("overlap keys must be sorted pairs")
            if a not in chartset or b not in chartset:
                raise ValidationError(f"overlap ({a},{b}) references unknown chart")
        # a repeated pair or triple key, rejected below, is its last listing
        self.keys = [listed[j][:2] for j in order]
        self.components = {key: range(r, r + size)
                           for key, r, size in zip(self.keys, first, sizes)}
        points = [pt for j in order for pt in listed[j][2]["points"]]
        self.ids = [pt["id"] for pt in points]
        keys = [tuple(tr["key"]) for tr in doc.get("triples", [])]
        triples = {key: tr["points"] for key, tr in zip(keys, doc.get("triples", []))}
        rows_of = {}
        for key, pts in triples.items():
            a, b, c = key
            if not (a < b < c) or {a, b, c} - chartset:
                raise ValidationError(f"bad triple key {key}")
            rows_of[key] = []
            for tp in pts:
                memberships = {tuple(pair.split(",")): v
                               for pair, v in tp["memberships"].items()}
                factors = []
                for pair in ((a, b), (b, c), (a, c)):
                    if pair not in memberships:
                        raise ValidationError(
                            f"triple point {tp['id']} missing membership for {pair}"
                        )
                    ci, pi = memberships[pair]
                    rows = self.components.get((pair, ci)) if ci >= 0 else None
                    if rows is None or not 0 <= pi < len(rows):
                        raise ValidationError(
                            f"triple point {tp['id']}: bad membership for {pair}"
                        )
                    factors.append(rows[int(pi)])
                    if self.ids[factors[-1]] != tp["id"]:
                        raise ValidationError(
                            f"triple point {tp['id']}: id mismatch in {pair}"
                        )
                rows_of[key].append(factors)
        for what, found in (("overlap", pairs), ("triple key", keys)):
            if len(set(found)) != len(found):
                twice = next(key for i, key in enumerate(found) if key in found[:i])
                raise ValidationError(f"{what} {twice} is listed twice")
        width = max((len(pt.get("params", ())) for pt in points), default=0)
        try:
            self.params = np.array([[*pt.get("params", ()), *[0.0] * width][:width]
                                    for pt in points], dtype=float).reshape(len(points), width)
        except OverflowError:
            raise ValidationError("sample point params must fit a float") from None
        bad = np.flatnonzero(~np.isfinite(self.params).all(axis=1))
        if bad.size:
            raise ValidationError(f"params of sample point {points[bad[0]]['id']} "
                                  "must be finite")
        self.noncontractible = [(pair, ci) for pair, ci, comp in listed
                                if not comp.get("contractible", True)]
        self.triples = [(key, tp["id"]) for key in sorted(triples) for tp in triples[key]]
        self.triple_rows = np.array([f for key in sorted(rows_of) for f in rows_of[key]],
                                    dtype=int).reshape(-1, 3)
        self.comp = np.repeat(np.arange(len(self.keys)), sizes)
        self.overlap_walk = walk

        # per chart: the position of each point id among its chart rows,
        # their first overlap rows, the position of every overlap row it
        # is in, and the id pairs of its graph's edges
        at: dict[str, dict[str, int]] = {ch: {} for ch in charts}
        firsts: dict[str, list[int]] = {ch: [] for ch in charts}
        met: dict[str, list[int]] = {ch: [] for ch in charts}
        joined: dict[str, set] = {ch: set() for ch in charts}
        for j, ((pair, _), span) in zip(order, self.components.items()):
            ids = self.ids[span.start:span.stop]
            for ch in pair:
                for r, pid in zip(span, ids):
                    if pid not in at[ch]:
                        at[ch][pid] = len(firsts[ch])
                        firsts[ch].append(r)
                    met[ch].append(at[ch][pid])
                joined[ch].update((min(ids[i], ids[k]), max(ids[i], ids[k]))
                                  for i, k in joins[j])
        sites: list[tuple[str, str]] = []
        rows: dict[str, range] = {}
        for ch in charts:
            rows[ch] = range(len(sites), len(sites) + max(1, len(firsts[ch])))
            sites += [(ch, self.ids[r]) for r in firsts[ch]] or [(ch, "origin")]
        self.charts = rows
        self.chart = np.repeat(np.arange(len(rows)), [len(span) for span in rows.values()])
        self.sites = sites
        self.site_params = np.zeros((len(sites), width))
        for ch, span in rows.items():
            self.site_params[span.start:span.start + len(firsts[ch])] = self.params[firsts[ch]]
        self.ends = np.array([[rows[ch].start + at[ch][pid] for ch in pair]
                              for (pair, _), span in self.components.items()
                              for pid in self.ids[span.start:span.stop]],
                             dtype=int).reshape(-1, 2)
        self.draws = {ch: [rows[ch].start + i for i in met[ch]] or [rows[ch].start]
                      for ch in charts}
        self.chart_walk = Walk.of(
            len(sites),
            [(span.start + at[ch][a], span.start + at[ch][b]) for ch, span in rows.items()
             for a, b in sorted(joined[ch])],
            [r for span in rows.values() for r in sorted(span, key=lambda r: sites[r][1])])
        self.delta0 = np.zeros((len(self.keys), len(rows)), dtype=np.uint8)
        self.delta0[self.comp[:, None], self.chart[self.ends]] = 1
        self.delta1 = np.zeros((len(self.triples), len(self.keys)), dtype=np.uint8)
        self.delta1[np.arange(len(self.triples))[:, None], self.comp[self.triple_rows]] = 1
        for shared in (self.params, self.comp, self.chart, self.site_params, self.ends,
                       self.triple_rows, self.delta0, self.delta1):
            shared.setflags(write=False)


def _layout(group: str, n: int) -> tuple:
    """The layout of a generator value of a cocycle group (see
    groups.stack_values), the shapes of its arrays: an n x n matrix
    (Gl), a pair of them (Glkd), an n x n matrix with its root (Ml), a
    2n x 2n matrix with its anchor (Mp)."""
    if group not in ("Gl", "Glkd", "Ml", "Mp"):
        raise ValidationError(f"unknown cocycle group {group!r}")
    square = (n, n)
    return {"Gl": (square,), "Glkd": (square, square), "Ml": (square, ()),
            "Mp": ((2 * n, 2 * n), ())}[group]


def chart_stacks(nerve: Nerve, generators: dict[str, Callable], role: str,
                 layout: tuple, kind: str) -> list[np.ndarray]:
    """The generators of a chart role, one per chart, each evaluated once
    on the stack of its chart's rows of the nerve, by
    groups.stack_values; a chart without a generator, or a value that is
    not ``kind`` (of the layout), raises ValidationError."""
    sites = nerve.sites
    missing = sorted(set(nerve.charts) - set(generators))
    if missing:
        raise ValidationError(f"no {role} for charts {missing}")
    parts = [(generators[ch], nerve.site_params[rows.start:rows.stop],
              [pid for _, pid in sites[rows.start:rows.stop]])
             for ch, rows in nerve.charts.items()]
    return G.stack_values(parts, layout,
                          lambda r: f"{role} of chart {sites[r][0]!r} at "
                                    f"{sites[r][1]} is not {kind}")


class Cocycle:
    """Group-valued transition data over a nerve.

    Row r of each stack holds the transition t_ab, a < b, at overlap row
    r of the nerve, in the layout of the group:

        Gl    mats (P, n, n) complex
        Glkd  mats (P, 2, n, n) complex, the two members of each pair
        Ml    mats (P, n, n) complex, roots z (P,) with z**2 = det A
        Mp    mats (P, 2n, 2n) real, roots the anchors zeta (P,) with
              zeta**2 = det alpha(g, 0)
    """

    def __init__(self, group: str, n: int, k: int, mats: np.ndarray,
                 roots: Optional[np.ndarray] = None):
        _layout(group, n)  # rejects an unknown group
        self.group = group
        self.n = n
        self.k = k
        self.mats = mats
        self.roots = roots

    @classmethod
    def evaluate(cls, group: str, n: int, k: int, nerve: Nerve,
                 transitions: Sequence[Callable]) -> "Cocycle":
        """The cocycle whose transition on each component of nerve.keys is
        the generator in the same place of transitions (see
        hfe.generators), evaluated once on the stack of the component's
        rows by groups.stack_values.  A value that does not fit the
        group's layout (see _layout) raises ValidationError, and so does
        an Ml or Mp value that is not in its group."""
        stacks = G.stack_values(
            [(fn, nerve.params[rows.start:rows.stop], nerve.ids[rows.start:rows.stop])
             for fn, rows in zip(transitions, nerve.components.values(), strict=True)],
            _layout(group, n),
            lambda r: f"transition of {nerve.keys[nerve.comp[r]][0]} at "
                      f"{nerve.ids[r]} is not a {group} value for n={n}")
        if group == "Glkd":
            return cls(group, n, k, np.stack(stacks, axis=1))
        if group == "Mp":
            # a copy, so that the stack is contiguous
            g = stacks[0].real.copy()
            G.check_sp(g)
            G.check_mp(g, stacks[1])
            return cls(group, n, k, g, stacks[1])
        if group == "Ml":
            G.check_ml(*stacks)
        return cls(group, n, k, *stacks)

    @classmethod
    def ml(cls, n: int, k: int, A: np.ndarray, z) -> "Cocycle":
        """The Ml cocycle of the (P, n, n) stack A and the roots z,
        checked in one pass of check_ml."""
        A, z = np.asarray(A, dtype=complex), np.array(z, dtype=complex)
        G.check_ml(A, z)
        return cls("Ml", n, k, A, z)


def _membership_residuals(c: Cocycle) -> np.ndarray:
    """Residuals of the group-membership invariant of every row: of
    z**2 = det A (Ml) and zeta**2 = det alpha(g, 0) (Mp), relative to
    max(1, |det|); a pattern that fails raises for the first failing row,
    and so does a Gl or Glkd matrix whose determinant is not finite or is
    within ``singular`` of 0."""
    if c.group in ("Gl", "Glkd"):
        what = "pair cocycle member" if c.group == "Glkd" else "Gl transition"
        if c.group == "Glkd":
            G.subgroup_classify(c.mats[:, 0], c.mats[:, 1], c.k)
        size = np.abs(det(c.mats))
        if not np.isfinite(size).all():
            raise ValidationError(f"{what} has a non-finite determinant")
        if np.any(size <= get_tolerances().singular):
            raise SingularityError(f"{what} is singular")
    if c.roots is None:
        return np.zeros(len(c.mats))
    if c.group == "Mp":
        G.check_sp(c.mats)
    dets = G.alpha0_det(c.mats) if c.group == "Mp" else det(c.mats)
    return cabs(cmul(c.roots, c.roots) - dets) / np.fmax(1.0, cabs(dets))


def validate_cocycle(nerve: Nerve, c: Cocycle) -> dict:
    """Check group membership of every value and the cocycle identity at
    every triple sample point.  Returns a result dict with residuals."""
    tols = get_tolerances()
    if len(c.mats) != len(nerve.ids):
        raise ValidationError(f"cocycle has {len(c.mats)} values for "
                              f"{len(nerve.ids)} sample points")
    res = _membership_residuals(c)
    residuals = res.tolist()
    failures = [("membership", *nerve.keys[nerve.comp[r]], nerve.ids[r], residuals[r])
                for r in np.flatnonzero(~(res <= tols.rel)).tolist()]
    # triple keys are sorted, so every factor is a forward transition
    ab, bc, ac = nerve.triple_rows.T
    if c.roots is None or not len(ab):
        prod, gap = mul(c.mats[ab], c.mats[bc]), np.zeros(len(ab))
    else:
        # products checked as group elements, skipped without triple
        # points since an empty stack still calls det and track_sqrt
        group_mul = G.ml_mul if c.group == "Ml" else G.mp_mul
        prod, roots = group_mul(c.mats[ab], c.roots[ab], c.mats[bc], c.roots[bc])
        gap = cabs(roots - c.roots[ac])
    dist = np.max(np.abs(prod - c.mats[ac]), axis=tuple(range(1, prod.ndim)),
                  initial=0.0)
    dist = np.maximum(dist, gap)
    failures += [("cocycle", key, pid, r)
                 for (key, pid), r in zip(nerve.triples, dist.tolist())
                 if not r <= identity_bound(tols)]
    return {"ok": not failures, "max_residual": G.worst(res, dist), "failures": failures}


# ---------------------------------------------------------------------------
# associated-bundle pushforward
# ---------------------------------------------------------------------------

def push_cocycle(c: Cocycle) -> Cocycle:
    """The transition functions of the first polarization's frame bundle:
    the Gl cocycle of the first member of every pair of the Glkd cocycle
    c."""
    return Cocycle("Gl", c.n, c.k, c.mats[:, 0])


# ---------------------------------------------------------------------------
# GF(2) linear algebra
# ---------------------------------------------------------------------------

def _gf2_reduce(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of M over GF(2) by Gaussian elimination.

    Returns the reduced uint8 matrix, whose first len(pivots) rows are
    nonzero, and the pivot columns in increasing order.  Each pivot row
    is the first remaining row with a one in that column.
    """
    R = (np.asarray(M) & 1).astype(np.uint8, order="C")  # contiguous row XORs
    pivots: list[int] = []
    for col in range(R.shape[1]):
        r = len(pivots)
        if r == R.shape[0]:
            break
        rows = np.flatnonzero(R[r:, col])
        if rows.size == 0:
            continue
        p = r + int(rows[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        ones = np.flatnonzero(R[:, col])
        R[ones[ones != r]] ^= R[r]
        pivots.append(col)
    return R, pivots


def _gf2_nullspace(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Basis of {x : M x = 0} over GF(2), one uint8 row per free column,
    and the free columns in increasing order.  Each row's highest one is
    at its own free column, where no other row has a one."""
    R, pivots = _gf2_reduce(M)
    free = sorted(set(range(R.shape[1])) - set(pivots))
    N = np.zeros((len(free), R.shape[1]), dtype=np.uint8)
    N[np.arange(len(free)), free] = 1
    N[:, pivots] = R[:len(pivots), free].T
    return N, free


def gf2_solve(A: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Solve A x = b over GF(2) by Gaussian elimination.

    Returns one particular solution as a uint8 vector (pivot variables
    from the reduced system, free variables 0), or None if the system is
    infeasible.
    """
    n = np.shape(A)[1]
    R, pivots = _gf2_reduce(np.column_stack([A, np.reshape(b, -1)]))
    if pivots and pivots[-1] == n:
        return None
    x = np.zeros(n, dtype=np.uint8)
    x[pivots] = R[:len(pivots), n]
    return x


def _top_down_basis(M: np.ndarray) -> np.ndarray:
    """Fully reduced basis of the row space of M, pivots taken from the
    highest column down.  Read as integers with column 0 the least
    significant bit, the rows decrease: the last one is the smallest
    nonzero vector of the span."""
    R, pivots = _gf2_reduce(np.asarray(M)[:, ::-1])
    return R[:len(pivots), ::-1]


class LiftClasses:
    """Counts of sign patterns on overlap components (entry j flips
    component j): valid ones keep the cocycle identity (ker delta1),
    coboundaries come from chart signs (im delta0), and gluing ones are
    both.  The witnesses are the smallest nonzero gluing pattern and the
    smallest valid non-coboundary, or None; "smallest" reads a pattern as
    an integer with component 0 the least significant bit."""

    def __init__(self, valid: int, coboundaries: int, gluing: int, classes: int,
                 witness_equiv: Optional[np.ndarray],
                 witness_inequiv: Optional[np.ndarray]):
        self.valid = valid
        self.coboundaries = coboundaries
        self.gluing = gluing
        self.classes = classes
        self.witness_equiv = witness_equiv
        self.witness_inequiv = witness_inequiv


def lift_classes(delta1: np.ndarray, delta0: np.ndarray) -> LiftClasses:
    """Count the sign patterns of a nerve with coboundaries delta1
    (triple points x components) and delta0 (components x charts).
    Precondition: delta1 delta0 = 0 over GF(2), as on every nerve, so
    the gluing patterns are the coboundaries, im delta0."""
    # reversed, the nullspace rows are the top-down basis of ker delta1
    null, free = _gf2_nullspace(delta1)
    kernel, image = null[::-1], _top_down_basis(delta0.T)
    # a valid pattern is the sum of the kernel rows at its free columns,
    # so kernel row j is a coboundary iff the unit vector j is a row of
    # the reduced image in these coordinates
    R, pivots = _gf2_reduce(image[:, free[::-1]])
    units = {p for p, row in zip(pivots, R) if np.count_nonzero(row) == 1}
    outside = [j for j in range(len(kernel)) if j not in units]
    valid, coboundaries = 2 ** len(kernel), 2 ** len(image)
    return LiftClasses(valid=valid, coboundaries=coboundaries, gluing=coboundaries,
                       classes=valid // coboundaries,
                       witness_equiv=image[-1] if len(image) else None,
                       witness_inequiv=kernel[outside[-1]] if outside else None)


# ---------------------------------------------------------------------------
# double-cover lifting
# ---------------------------------------------------------------------------

def flip_sheets(nerve: Nerve, c: Cocycle, pattern: np.ndarray) -> Cocycle:
    """The Ml cocycle c with its z-sheet flipped on the components whose
    bit of pattern (over nerve.keys) is set."""
    rows = pattern.astype(bool)[nerve.comp]
    z = np.where(rows, -c.roots, c.roots)
    G.check_ml(c.mats[rows], z[rows])
    return Cocycle("Ml", c.n, c.k, c.mats, z)


def _sign_bits(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The GF(2) bits of ratios that should be signs, 0 for +1 and 1 for
    -1, and the flags of the ratios within check_bound of neither."""
    bound = check_bound(get_tolerances())
    up, down = cabs(r - 1.0), cabs(r + 1.0)
    return (down < up).astype(np.uint8), (up > bound) & (down > bound)


def lift_double_cover(nerve: Nerve, c: Cocycle):
    """Lift a Gl cocycle through the metalinear double cover.

    Chooses a continuous square root of det t_ab per overlap component,
    each tracked from its first point with the principal root, solves
    the triple-point sign defects for per-component flips over GF(2),
    and returns the Ml cocycle; if the GF(2) system is infeasible the
    defect bits over nerve.triples (a degree-2 sign cochain) are returned
    instead — the witness of a nontrivial obstruction class.
    """
    if c.group != "Gl":
        raise ValidationError("lift_double_cover expects a Gl cocycle")
    z = track_graph(det(c.mats), nerve.overlap_walk,
                    nerve.ids, 1, jump=lambda r: "(edge too long)",
                    cycle=lambda r: "around a cycle in component")

    ab, bc, ac = nerve.triple_rows.T
    s = cdiv(cmul(z[ab], z[bc]), z[ac])
    rhs, off = _sign_bits(s)
    raise_first([(off, lambda t: ValidationError(
        f"triple defect at {nerve.triples[t][1]} is not a sign: {complex(s[t])} "
        "(input not a cocycle?)"))])
    sol = gf2_solve(nerve.delta1, rhs)
    if sol is None:
        return rhs
    return Cocycle.ml(c.n, c.k, c.mats, np.where(sol.astype(bool)[nerve.comp], -z, z))


def z2_coboundary_solve(nerve: Nerve, c2: np.ndarray) -> Optional[np.ndarray]:
    """The bits over nerve.keys of a degree-1 sign cochain whose
    coboundary is the degree-2 sign cochain c2 (bits over nerve.triples),
    or None if GF(2) elimination proves there is none."""
    return gf2_solve(nerve.delta1, c2)


def lifts_equivalent(nerve: Nerve, l1: Cocycle, l2: Cocycle
                     ) -> Optional[dict[str, int]]:
    """Decide whether two Ml lifts of the same Gl cocycle differ by a
    coboundary of chart signs.

    Returns the witness {chart: epsilon} with z2 = eps_a eps_b z1 on
    every overlap component, or None if the lifts are inequivalent.
    """
    tols = get_tolerances()
    axes = (-2, -1)
    apart = (np.max(np.abs(l1.mats - l2.mats), axis=axes, initial=0.0)
             > zero_bound(tols) * np.maximum(1.0, np.max(np.abs(l1.mats), axis=axes,
                                                        initial=0.0)))
    r = cdiv(l2.roots, l1.roots)
    bits, off = _sign_bits(r)
    # each row against the first row of its component
    starts = [rows.start for rows in nerve.components.values()]
    raise_first([
        (apart, lambda p: ValidationError("lifts do not project to the same Gl cocycle")),
        (off, lambda p: ValidationError(
            f"z-ratio at {nerve.ids[p]} is not a sign: {complex(r[p])}")),
        (bits != bits[starts][nerve.comp], lambda p: ValidationError(
            "z-ratio not constant on an overlap component")),
    ])
    sol = gf2_solve(nerve.delta0, bits[starts])
    if sol is None:
        return None
    return {ch: -1 if bit else 1 for ch, bit in zip(nerve.charts, sol)}
