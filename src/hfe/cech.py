"""Finite-nerve Cech machinery.

A nerve is a finite chart set together with sampled overlaps: every
connected overlap component is a rooted connected graph of sample
points, and triple intersections are recorded as sample points with
their component memberships in the three pairwise overlaps.  Cocycle
identities are checked at triple sample points only; continuous choices
of square roots become breadth-first tracking over component graphs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import groups as G
from .config import check_bound, get_tolerances, identity_bound, zero_bound
from .errors import SingularityError, ValidationError, raise_first
from .tracking import Walk, cabs, cdiv, cmul, track_graph

PairKey = tuple[str, str]
TripleKey = tuple[str, str, str]


class SamplePoint:
    def __init__(self, id: str, params: tuple[float, ...] = ()):
        self.id = id
        self.params = params


ORIGIN = SamplePoint("origin", ())


class OverlapComponent:
    """A connected, sampled component of a pairwise overlap."""

    def __init__(self, points: tuple[SamplePoint, ...],
                 edges: tuple[tuple[int, int], ...] = (), contractible: bool = True):
        self.points = points
        self.edges = edges
        self.contractible = contractible
        npts = len(self.points)
        if npts == 0:
            raise ValidationError("overlap component needs at least one point")
        for i, j in self.edges:
            if not (0 <= i < npts and 0 <= j < npts):
                raise ValidationError("edge references a missing point")
        # the breadth-first walk the lift tracks on, which reaches every
        # point of a connected graph
        self.walk = Walk.of(npts, self.edges, [0])
        if np.count_nonzero(self.walk.depth >= 0) != npts:
            raise ValidationError("overlap component graph is disconnected")


class TriplePoint:
    """A sample point of a triple intersection.

    memberships maps each of the three pairwise overlaps (as sorted
    chart pairs) to (component index, point index within the component).
    """

    def __init__(self, id: str, memberships: dict[PairKey, tuple[int, int]]):
        self.id = id
        self.memberships = memberships


class PointIndex:
    """The rows of a nerve's sample points, built once per nerve.

    Overlap rows, one per (component, point) in component_list() order:

    points      the sample point of each overlap row
    components  (pair, component index) -> the range of its overlap rows
    overlap_walk  the Walk of the components' graphs on the overlap rows,
                each rooted at its first row

    Chart rows, chart by chart: one per point id of the overlaps
    containing the chart, in the order of their first overlap rows, or
    one origin row for a chart that meets no overlap:

    sites       (chart, sample point) of each chart row
    charts      chart -> the range of its chart rows
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
    """

    def __init__(self, points: tuple[SamplePoint, ...],
                 components: dict[tuple[PairKey, int], range], overlap_walk: Walk,
                 sites: tuple[tuple[str, SamplePoint], ...], charts: dict[str, range],
                 ends: np.ndarray, draws: dict[str, list[int]], chart_walk: Walk):
        self.points = points
        self.components = components
        self.overlap_walk = overlap_walk
        self.sites = sites
        self.charts = charts
        self.ends = ends
        self.draws = draws
        self.chart_walk = chart_walk


class Nerve:
    def __init__(self, charts: tuple[str, ...],
                 overlaps: Optional[dict[PairKey, tuple[OverlapComponent, ...]]] = None,
                 triples: Optional[dict[TripleKey, tuple[TriplePoint, ...]]] = None):
        self.charts = charts
        self.overlaps = overlaps or {}
        self.triples = triples or {}
        chartset = set(self.charts)
        if len(chartset) != len(self.charts):
            raise ValidationError("duplicate chart ids")
        for (a, b), comps in self.overlaps.items():
            if a == b:
                raise ValidationError("self-overlap (a, a) not allowed")
            if a > b:
                raise ValidationError("overlap keys must be sorted pairs")
            if a not in chartset or b not in chartset:
                raise ValidationError(f"overlap ({a},{b}) references unknown chart")
        for key, pts in self.triples.items():
            a, b, c = key
            if not (a < b < c) or {a, b, c} - chartset:
                raise ValidationError(f"bad triple key {key}")
            for tp in pts:
                for pair in ((a, b), (b, c), (a, c)):
                    if pair not in tp.memberships:
                        raise ValidationError(
                            f"triple point {tp.id} missing membership for {pair}"
                        )
                    ci, pi = tp.memberships[pair]
                    comps = self.overlaps.get(pair, ())
                    if ci >= len(comps) or pi >= len(comps[ci].points):
                        raise ValidationError(
                            f"triple point {tp.id}: bad membership for {pair}"
                        )
                    if comps[ci].points[pi].id != tp.id:
                        raise ValidationError(
                            f"triple point {tp.id}: id mismatch in {pair}"
                        )

    def component_list(self) -> list[tuple[PairKey, int]]:
        """All overlap components as (pair, component index), sorted."""
        out = []
        for pair in sorted(self.overlaps):
            for ci in range(len(self.overlaps[pair])):
                out.append((pair, ci))
        return out

    def triple_points(self) -> list[tuple[TripleKey, TriplePoint]]:
        out = []
        for key in sorted(self.triples):
            for tp in self.triples[key]:
                out.append((key, tp))
        return out

    @cached_property
    def point_index(self) -> PointIndex:
        """The index of every sample point (see PointIndex)."""
        points: list[SamplePoint] = []
        components: dict[tuple[PairKey, int], range] = {}
        # per chart: the position of each point id among its chart rows,
        # their points, and the position of every overlap row it is in
        at: dict[str, dict[str, int]] = {ch: {} for ch in self.charts}
        vertices: dict[str, list[SamplePoint]] = {ch: [] for ch in self.charts}
        met: dict[str, list[int]] = {ch: [] for ch in self.charts}
        edges: dict[str, set] = {ch: set() for ch in self.charts}
        for pair, ci in self.component_list():
            comp = self.overlaps[pair][ci]
            components[(pair, ci)] = range(len(points), len(points) + len(comp.points))
            points.extend(comp.points)
            ids = [pt.id for pt in comp.points]
            for ch in pair:
                for pt in comp.points:
                    if pt.id not in at[ch]:
                        at[ch][pt.id] = len(vertices[ch])
                        vertices[ch].append(pt)
                    met[ch].append(at[ch][pt.id])
                edges[ch].update((min(ids[i], ids[j]), max(ids[i], ids[j]))
                                 for i, j in comp.edges)
        sites: list[tuple[str, SamplePoint]] = []
        charts: dict[str, range] = {}
        for ch in self.charts:
            charts[ch] = range(len(sites), len(sites) + max(1, len(vertices[ch])))
            sites += [(ch, pt) for pt in vertices[ch] or [ORIGIN]]
        ends = np.array([[charts[ch].start + at[ch][pt.id] for ch in pair]
                         for (pair, _), span in components.items()
                         for pt in points[span.start:span.stop]],
                        dtype=int).reshape(-1, 2)
        ends.setflags(write=False)
        chart_walk = Walk.of(
            len(sites),
            [(rows.start + at[ch][a], rows.start + at[ch][b]) for ch, rows in charts.items()
             for a, b in sorted(edges[ch])],
            [r for rows in charts.values() for r in sorted(rows, key=lambda r: sites[r][1].id)])
        return PointIndex(
            tuple(points), components,
            Walk.join([(self.overlaps[pair][ci].walk, rows.start)
                       for (pair, ci), rows in components.items()]),
            tuple(sites), charts, ends,
            {ch: [charts[ch].start + i for i in met[ch]] or [charts[ch].start]
             for ch in self.charts}, chart_walk)

    @cached_property
    def triple_rows(self) -> np.ndarray:
        """The point-index rows of the factors t_ab, t_bc, t_ac at every
        point of triple_points(), as a (T, 3) int array."""
        comps = self.point_index.components
        rows = [comps[(pair, tp.memberships[pair][0])].start + tp.memberships[pair][1]
                for (a, b, c), tp in self.triple_points()
                for pair in ((a, b), (b, c), (a, c))]
        return np.array(rows, dtype=int).reshape(-1, 3)

    @cached_property
    def delta0(self) -> np.ndarray:
        """GF(2) coboundary from chart signs to component signs: one row
        per component of component_list(), ones at its two charts."""
        col = {ch: i for i, ch in enumerate(self.charts)}
        comps = self.component_list()
        d = np.zeros((len(comps), len(self.charts)), dtype=np.uint8)
        d[np.repeat(np.arange(len(comps)), 2),
          [col[ch] for pair, _ in comps for ch in pair]] = 1
        d.setflags(write=False)  # shared by every caller
        return d

    @cached_property
    def delta1(self) -> np.ndarray:
        """GF(2) coboundary from component signs to triple-point signs: one
        row per point of triple_points(), ones at its three components."""
        col = {key: i for i, key in enumerate(self.component_list())}
        tps = self.triple_points()
        d = np.zeros((len(tps), len(col)), dtype=np.uint8)
        d[np.repeat(np.arange(len(tps)), 3),
          [col[(pair, tp.memberships[pair][0])]
           for (a, b, c), tp in tps for pair in ((a, b), (b, c), (a, c))]] = 1
        d.setflags(write=False)
        return d


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
    on the stack of its chart's rows of the nerve's point index, by
    groups.stack_values; a chart without a generator, or a value that is
    not ``kind`` (of the layout), raises ValidationError."""
    index = nerve.point_index
    sites = index.sites
    missing = sorted(set(nerve.charts) - set(generators))
    if missing:
        raise ValidationError(f"no {role} for charts {missing}")
    parts = [(generators[ch], [pt for _, pt in sites[rows.start:rows.stop]])
             for ch, rows in index.charts.items()]
    return G.stack_values(parts, layout,
                          lambda r: f"{role} of chart {sites[r][0]!r} at "
                                    f"{sites[r][1].id} is not {kind}")


class Cocycle:
    """Group-valued transition data over a nerve.

    Row r of each stack holds the transition t_ab, a < b, at row r of the
    nerve's point index (component_list() order), in the layout of the
    group:

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
                 transitions: dict[PairKey, tuple[Callable, ...]]) -> "Cocycle":
        """The cocycle whose transition on component ci of a sorted chart
        pair is the generator transitions[pair][ci] (see hfe.generators),
        evaluated once on the stack of the component's sample points by
        groups.stack_values.  A value that does not fit the group's layout
        (see _layout) raises ValidationError, and so does an Ml or Mp
        value that is not in its group."""
        for pair in sorted(nerve.overlaps):
            if pair not in transitions:
                raise ValidationError(f"missing transition for overlap {pair}")
            if len(transitions[pair]) != len(nerve.overlaps[pair]):
                raise ValidationError(f"component count mismatch for {pair}")
        index = nerve.point_index
        keys = [key for key, rows in index.components.items() for _ in rows]
        stacks = G.stack_values(
            [(transitions[pair][ci], index.points[rows.start:rows.stop])
             for (pair, ci), rows in index.components.items()],
            _layout(group, n),
            lambda r: f"transition of {keys[r][0]} at {index.points[r].id} is not "
                      f"a {group} value for n={n}")
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


class SignCochain:
    """A +/-1 valued cochain on overlap components (deg 1) or triple
    points (deg 2)."""

    def __init__(self, degree: int, values: dict):
        if degree not in (1, 2):
            raise ValidationError("degree must be 1 or 2")
        for v in values.values():
            if v not in (1, -1):
                raise ValidationError("sign cochain values must be +/-1")
        self.degree = degree
        self.values = values


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
        with np.errstate(all="ignore"):
            size = np.abs(np.linalg.det(c.mats))
        if not np.isfinite(size).all():
            raise ValidationError(f"{what} has a non-finite determinant")
        if np.any(size <= get_tolerances().singular):
            raise SingularityError(f"{what} is singular")
    if c.roots is None:
        return np.zeros(len(c.mats))
    if c.group == "Mp":
        G.check_sp(c.mats)
    dets = G.alpha0_det(c.mats) if c.group == "Mp" else G.det_stack(c.mats)
    return cabs(cmul(c.roots, c.roots) - dets) / np.fmax(1.0, cabs(dets))


def validate_cocycle(nerve: Nerve, c: Cocycle) -> dict:
    """Check group membership of every value and the cocycle identity at
    every triple sample point.  Returns a result dict with residuals."""
    tols = get_tolerances()
    index = nerve.point_index
    if len(c.mats) != len(index.points):
        raise ValidationError(f"cocycle has {len(c.mats)} values for "
                              f"{len(index.points)} sample points")
    residuals = _membership_residuals(c).tolist()
    failures = [("membership", pair, ci, index.points[row].id, residuals[row])
                for (pair, ci), rows in index.components.items() for row in rows
                if residuals[row] > tols.rel]
    # triple keys are sorted, so every factor is a forward transition
    ab, bc, ac = nerve.triple_rows.T
    if c.roots is None or not len(ab):
        prod, gap = c.mats[ab] @ c.mats[bc], np.zeros(len(ab))
    else:
        # products checked as group elements, skipped without triple
        # points since an empty stack still calls det and track_sqrt
        mul = G.ml_mul if c.group == "Ml" else G.mp_mul
        prod, roots = mul(c.mats[ab], c.roots[ab], c.mats[bc], c.roots[bc])
        gap = cabs(roots - c.roots[ac])
    dist = np.max(np.abs(prod - c.mats[ac]), axis=tuple(range(1, prod.ndim)),
                  initial=0.0)
    dist = np.where(gap > dist, gap, dist).tolist()
    failures += [("cocycle", key, tp.id, r)
                 for (key, tp), r in zip(nerve.triple_points(), dist)
                 if r > identity_bound(tols)]
    return {"ok": not failures, "max_residual": max([0.0, *residuals, *dist]),
            "failures": failures}


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
    R = (np.asarray(M) & 1).astype(np.uint8)
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


def _gf2_rank(M: np.ndarray) -> int:
    return len(_gf2_reduce(M)[1])


def _gf2_nullspace(M: np.ndarray) -> np.ndarray:
    """Basis of {x : M x = 0} over GF(2), one uint8 row per free column."""
    R, pivots = _gf2_reduce(M)
    free = sorted(set(range(R.shape[1])) - set(pivots))
    N = np.zeros((len(free), R.shape[1]), dtype=np.uint8)
    N[np.arange(len(free)), free] = 1
    N[:, pivots] = R[:len(pivots), free].T
    return N


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


def _top_down_basis(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Fully reduced basis of the row space of M, pivots taken from the
    highest column down, and its pivot columns.  Read as integers with
    column 0 the least significant bit, the rows decrease: the last one
    is the smallest nonzero vector of the span."""
    R, pivots = _gf2_reduce(np.asarray(M)[:, ::-1])
    return R[:len(pivots), ::-1], [R.shape[1] - 1 - p for p in pivots]


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
    (triple points x components) and delta0 (components x charts)."""
    kernel, _ = _top_down_basis(_gf2_nullspace(delta1))
    # ker delta1 meets im delta0 in the image of ker(delta1 delta0);
    # uint8 products wrap modulo 256, which keeps their parity
    gluing, pivots = _top_down_basis(
        (_gf2_nullspace((delta1 @ delta0) & 1) @ delta0.T) & 1
    )
    # a kernel row is a coboundary iff the gluing rows at its pivot
    # entries add up to it
    outside = np.flatnonzero(
        np.any(kernel ^ ((kernel[:, pivots] @ gluing) & 1), axis=1)
    )
    valid, coboundaries = 2 ** len(kernel), 2 ** _gf2_rank(delta0)
    return LiftClasses(
        valid=valid,
        coboundaries=coboundaries,
        gluing=2 ** len(gluing),
        classes=valid // coboundaries,
        witness_equiv=gluing[-1] if len(gluing) else None,
        witness_inequiv=kernel[outside[-1]] if outside.size else None,
    )


# ---------------------------------------------------------------------------
# double-cover lifting
# ---------------------------------------------------------------------------

def flip_sheets(nerve: Nerve, c: Cocycle, pattern) -> Cocycle:
    """The Ml cocycle c with its z-sheet flipped on the components whose
    entry of pattern (indexed like component_list()) is set."""
    rows = [r for key, bit in zip(nerve.component_list(), pattern) if bit
            for r in nerve.point_index.components[key]]
    z = c.roots.copy()
    z[rows] = -z[rows]
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
    defect SignCochain (degree 2) is returned instead — the witness of a
    nontrivial obstruction class.
    """
    if c.group != "Gl":
        raise ValidationError("lift_double_cover expects a Gl cocycle")
    index = nerve.point_index
    comps = index.components
    z = track_graph(np.linalg.det(c.mats), index.overlap_walk,
                    [pt.id for pt in index.points], 1, jump=lambda r: "(edge too long)",
                    cycle=lambda r: "around a cycle in component")

    tps = nerve.triple_points()
    ab, bc, ac = nerve.triple_rows.T
    s = cdiv(cmul(z[ab], z[bc]), z[ac])
    rhs, off = _sign_bits(s)
    raise_first([(off, lambda t: ValidationError(
        f"triple defect at {tps[t][1].id} is not a sign: {complex(s[t])} "
        "(input not a cocycle?)"))])
    sol = gf2_solve(nerve.delta1, rhs)
    if sol is None:
        return SignCochain(degree=2, values={
            (key, tp.id): -1 if bit else 1 for (key, tp), bit in zip(tps, rhs.tolist())})
    flips = np.repeat(sol, [len(rows) for rows in comps.values()]).astype(bool)
    return Cocycle.ml(c.n, c.k, c.mats, np.where(flips, -z, z))


def z2_coboundary_solve(nerve: Nerve, c2: SignCochain) -> Optional[SignCochain]:
    """Find a degree-1 sign cochain whose coboundary is c2, or prove
    infeasibility over GF(2)."""
    if c2.degree != 2:
        raise ValidationError("expected a degree-2 sign cochain")
    rhs = [
        0 if c2.values.get((key, tp.id), 1) == 1 else 1
        for key, tp in nerve.triple_points()
    ]
    sol = gf2_solve(nerve.delta1, np.array(rhs, dtype=np.uint8))
    if sol is None:
        return None
    return SignCochain(
        degree=1,
        values={key: -1 if bit else 1
                for key, bit in zip(nerve.component_list(), sol)},
    )


def lifts_equivalent(nerve: Nerve, l1: Cocycle, l2: Cocycle
                     ) -> Optional[dict[str, int]]:
    """Decide whether two Ml lifts of the same Gl cocycle differ by a
    coboundary of chart signs.

    Returns the witness {chart: epsilon} with z2 = eps_a eps_b z1 on
    every overlap component, or None if the lifts are inequivalent.
    """
    tols = get_tolerances()
    index = nerve.point_index
    axes = (-2, -1)
    apart = (np.max(np.abs(l1.mats - l2.mats), axis=axes, initial=0.0)
             > zero_bound(tols) * np.maximum(1.0, np.max(np.abs(l1.mats), axis=axes,
                                                        initial=0.0)))
    r = cdiv(l2.roots, l1.roots)
    bits, off = _sign_bits(r)
    # each row against the first row of its component
    starts = [rows.start for rows in index.components.values()]
    first = np.repeat(bits[starts], [len(rows) for rows in index.components.values()])
    raise_first([
        (apart, lambda p: ValidationError("lifts do not project to the same Gl cocycle")),
        (off, lambda p: ValidationError(
            f"z-ratio at {index.points[p].id} is not a sign: {complex(r[p])}")),
        (bits != first, lambda p: ValidationError(
            "z-ratio not constant on an overlap component")),
    ])
    sol = gf2_solve(nerve.delta0, bits[starts])
    if sol is None:
        return None
    return {ch: -1 if bit else 1 for ch, bit in zip(nerve.charts, sol)}
