"""Finite-nerve Cech machinery.

A nerve is a finite chart set together with sampled overlaps: every
connected overlap component is a rooted connected graph of sample
points, and triple intersections are recorded as sample points with
their component memberships in the three pairwise overlaps.  Cocycle
identities are checked at triple sample points only; continuous choices
of square roots become breadth-first tracking over component graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import groups as G
from .config import get_tolerances
from .errors import TrackingError, ValidationError
from .tracking import _MAX_ARG, principal_sqrt

PairKey = tuple[str, str]
TripleKey = tuple[str, str, str]


@dataclass(frozen=True)
class SamplePoint:
    id: str
    params: tuple[float, ...] = ()


@dataclass(frozen=True)
class OverlapComponent:
    """A connected, sampled component of a pairwise overlap."""

    points: tuple[SamplePoint, ...]
    edges: tuple[tuple[int, int], ...] = ()
    contractible: bool = True

    def __post_init__(self):
        npts = len(self.points)
        if npts == 0:
            raise ValidationError("overlap component needs at least one point")
        for i, j in self.edges:
            if not (0 <= i < npts and 0 <= j < npts):
                raise ValidationError("edge references a missing point")
        # connectivity
        seen = {0}
        frontier = [0]
        adj = {i: [] for i in range(npts)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != npts:
            raise ValidationError("overlap component graph is disconnected")

    def index_of(self, point_id: str) -> int:
        for i, p in enumerate(self.points):
            if p.id == point_id:
                return i
        raise ValidationError(f"point {point_id!r} not in component")


@dataclass(frozen=True)
class TriplePoint:
    """A sample point of a triple intersection.

    memberships maps each of the three pairwise overlaps (as sorted
    chart pairs) to (component index, point index within the component).
    """

    id: str
    memberships: dict[PairKey, tuple[int, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class Nerve:
    charts: tuple[str, ...]
    overlaps: dict[PairKey, tuple[OverlapComponent, ...]] = field(default_factory=dict)
    triples: dict[TripleKey, tuple[TriplePoint, ...]] = field(default_factory=dict)

    def __post_init__(self):
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


# ---------------------------------------------------------------------------
# group operation dispatch per cocycle kind
# ---------------------------------------------------------------------------

def _mat(x: Any) -> np.ndarray:
    return x.A if isinstance(x, G.GlElement) else np.asarray(x, dtype=complex)


def _gl_mul(x, y):
    return _mat(x) @ _mat(y)


def _gl_inv(x):
    return np.linalg.inv(_mat(x))


def _gl_dist(x, y):
    return float(np.max(np.abs(_mat(x) - _mat(y))))


_OPS: dict[str, dict[str, Callable]] = {
    "Gl": {"mul": _gl_mul, "inv": _gl_inv, "dist": _gl_dist},
    "Ml": {
        "mul": G.ml_mul,
        "inv": G.ml_inv,
        "dist": lambda x, y: max(
            float(np.max(np.abs(x.A - y.A))), abs(x.z - y.z)
        ),
    },
    "Sp": {
        "mul": lambda x, y: G.SpElement(x.g @ y.g),
        "inv": lambda x: G.SpElement(np.linalg.inv(x.g)),
        "dist": lambda x, y: float(np.max(np.abs(x.g - y.g))),
    },
    "Mp": {
        "mul": G.mp_mul,
        "inv": G.mp_inv,
        "dist": lambda x, y: max(
            float(np.max(np.abs(x.g.g - y.g.g))), abs(x.zeta - y.zeta)
        ),
    },
    "Glkd": {
        "mul": lambda x, y: (_gl_mul(x[0], y[0]), _gl_mul(x[1], y[1])),
        "inv": lambda x: (_gl_inv(x[0]), _gl_inv(x[1])),
        "dist": lambda x, y: max(_gl_dist(x[0], y[0]), _gl_dist(x[1], y[1])),
    },
    "Mlkd": {
        "mul": lambda x, y: (G.ml_mul(x[0], y[0]), G.ml_mul(x[1], y[1])),
        "inv": lambda x: (G.ml_inv(x[0]), G.ml_inv(x[1])),
        "dist": lambda x, y: max(
            _OPS["Ml"]["dist"](x[0], y[0]), _OPS["Ml"]["dist"](x[1], y[1])
        ),
    },
}
_OPS["Spk"] = _OPS["Sp"]


@dataclass(frozen=True)
class Cocycle:
    """Group-valued transition data over a nerve.

    transitions maps a sorted chart pair to one function object per
    overlap component; each function takes a SamplePoint and returns a
    group element.  Values for the reversed pair are the group inverses.
    """

    group: str
    n: int
    k: int
    transitions: dict[PairKey, tuple[Callable[[SamplePoint], Any], ...]] = field(
        default_factory=dict
    )

    def __post_init__(self):
        if self.group not in _OPS:
            raise ValidationError(f"unknown cocycle group {self.group!r}")

    @property
    def ops(self) -> dict[str, Callable]:
        return _OPS[self.group]

    def value(self, a: str, b: str, comp: int, point: SamplePoint) -> Any:
        """Transition t_ab evaluated at a sample point of component comp."""
        if a < b:
            return self.transitions[(a, b)][comp](point)
        return self.ops["inv"](self.transitions[(b, a)][comp](point))


@dataclass(frozen=True)
class SignCochain:
    """A +/-1 valued cochain on overlap components (deg 1) or triple
    points (deg 2)."""

    degree: int
    values: dict

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValidationError("degree must be 1 or 2")
        for v in self.values.values():
            if v not in (1, -1):
                raise ValidationError("sign cochain values must be +/-1")


def _element_membership_residual(c: Cocycle, x: Any) -> float:
    """Residual of the group-membership invariant of a single element."""
    if c.group == "Ml":
        d = np.linalg.det(x.A) if x.A.size else 1.0
        return abs(x.z * x.z - d) / max(1.0, abs(d))
    if c.group in ("Sp", "Spk"):
        G.sp_validate(x)
        if c.group == "Spk":
            G.subgroup_classify(x, c.k)
        return max(x.residuals())
    if c.group == "Mp":
        G.sp_validate(x.g)
        return 0.0
    if c.group in ("Glkd", "Mlkd"):
        G.subgroup_classify(tuple(x), c.k)
        return 0.0
    return 0.0


def validate_cocycle(nerve: Nerve, c: Cocycle) -> dict:
    """Check group membership of every value and the cocycle identity at
    every triple sample point.  Returns a result dict with residuals."""
    tols = get_tolerances()
    failures = []
    max_res = 0.0
    for pair in sorted(nerve.overlaps):
        if pair not in c.transitions:
            raise ValidationError(f"missing transition for overlap {pair}")
        if len(c.transitions[pair]) != len(nerve.overlaps[pair]):
            raise ValidationError(f"component count mismatch for {pair}")
        for ci, comp in enumerate(nerve.overlaps[pair]):
            for pt in comp.points:
                x = c.transitions[pair][ci](pt)
                r = _element_membership_residual(c, x)
                max_res = max(max_res, r)
                if r > tols.rel:
                    failures.append(("membership", pair, ci, pt.id, r))
    ops = c.ops
    for (a, b, cc), tp in nerve.triple_points():
        cab, pab = tp.memberships[(a, b)]
        cbc, pbc = tp.memberships[(b, cc)]
        cac, pac = tp.memberships[(a, cc)]
        m_ab = nerve.overlaps[(a, b)][cab].points[pab]
        m_bc = nerve.overlaps[(b, cc)][cbc].points[pbc]
        m_ac = nerve.overlaps[(a, cc)][cac].points[pac]
        lhs = ops["mul"](c.value(a, b, cab, m_ab), c.value(b, cc, cbc, m_bc))
        rhs = c.value(a, cc, cac, m_ac)
        r = float(ops["dist"](lhs, rhs))
        max_res = max(max_res, r)
        if r > tols.rel * 10:
            failures.append(("cocycle", (a, b, cc), tp.id, r))
    return {"ok": not failures, "max_residual": max_res, "failures": failures}


# ---------------------------------------------------------------------------
# associated-bundle pushforward
# ---------------------------------------------------------------------------

_PUSH_TAGS = {
    "ml_to_gl": ("Ml", "Gl", lambda x: x.A),
    "mp_to_sp": ("Mp", "Sp", lambda x: x.g),
    "det": ("Gl", "Gl", lambda x: np.array([[np.linalg.det(_mat(x))]])),
    "absdet_sqrt": (
        "Gl",
        "Gl",
        lambda x: np.array([[abs(np.linalg.det(_mat(x))) ** 0.5]]),
    ),
    "absdet_invsqrt": (
        "Gl",
        "Gl",
        lambda x: np.array([[abs(np.linalg.det(_mat(x))) ** -0.5]]),
    ),
    "pair_first": ("Glkd", "Gl", lambda x: _mat(x[0])),
    "pair_second": ("Glkd", "Gl", lambda x: _mat(x[1])),
    "pair_first_ml": ("Mlkd", "Ml", lambda x: x[0]),
    "pair_second_ml": ("Mlkd", "Ml", lambda x: x[1]),
    "sp_ball_alpha": ("Sp", "Gl", None),  # handled below (not a homomorphism)
}


def push_cocycle(c: Cocycle, hom: str, nerve: Optional[Nerve] = None) -> Cocycle:
    """Transition functions of an associated bundle: apply a homomorphism
    tag pointwise.

    The ``sp_ball_alpha`` composite g -> alpha(g, 0) is *not* a
    homomorphism in general; when a nerve is supplied the result is
    validated rather than assumed.
    """
    if hom not in _PUSH_TAGS:
        raise ValidationError(f"unknown homomorphism tag {hom!r}")
    src, dst, fn = _PUSH_TAGS[hom]
    if c.group != src and not (src == "Gl" and c.group == "Gl"):
        raise ValidationError(f"tag {hom!r} expects a {src} cocycle, got {c.group}")
    if hom == "sp_ball_alpha":
        from . import ball

        def fn(x):
            _, a = ball.alpha_raw(x.g, np.zeros((x.n, x.n)))
            return a

    def wrap(f):
        return lambda pt: fn(f(pt))

    out = Cocycle(
        group=dst,
        n=c.n,
        k=c.k,
        transitions={
            pair: tuple(wrap(f) for f in fns) for pair, fns in c.transitions.items()
        },
    )
    if hom == "sp_ball_alpha" and nerve is not None:
        report = validate_cocycle(nerve, out)
        if not report["ok"]:
            raise ValidationError(
                "alpha composite is not a cocycle on this nerve: "
                f"{report['failures'][:3]}"
            )
    return out


# ---------------------------------------------------------------------------
# GF(2) linear algebra
# ---------------------------------------------------------------------------

def gf2_solve(A: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Solve A x = b over GF(2) by Gaussian elimination.

    Returns one particular solution as a uint8 vector, or None if the
    system is infeasible.
    """
    A = (np.asarray(A) & 1).astype(np.uint8)
    b = (np.asarray(b).reshape(-1) & 1).astype(np.uint8)
    m, n = A.shape
    aug = np.concatenate([A, b[:, None]], axis=1)
    r = 0
    pivots = []
    for col in range(n):
        if r >= m:
            break
        rows = np.where(aug[r:, col] == 1)[0]
        if rows.size == 0:
            continue
        p = r + int(rows[0])
        if p != r:
            aug[[r, p]] = aug[[p, r]]
        ones = np.where(aug[:, col] == 1)[0]
        ones = ones[ones != r]
        if ones.size:
            aug[ones] ^= aug[r]
        pivots.append(col)
        r += 1
    if np.any(np.all(aug[:, :n] == 0, axis=1) & (aug[:, n] == 1)):
        return None
    x = np.zeros(n, dtype=np.uint8)
    for row, col in enumerate(pivots):
        x[col] = aug[row, n]
    return x


# ---------------------------------------------------------------------------
# double-cover lifting
# ---------------------------------------------------------------------------

class _LiftedTransition:
    """Ml-valued transition: a Gl base function plus tracked z per point."""

    def __init__(self, base: Callable[[SamplePoint], Any], zmap: dict[str, complex],
                 sign: int = 1):
        self.base = base
        self.zmap = dict(zmap)
        self.sign = sign

    def __call__(self, pt: SamplePoint) -> G.MlElement:
        return G.MlElement(_mat(self.base(pt)), self.sign * self.zmap[pt.id])

    def flipped(self) -> "_LiftedTransition":
        return _LiftedTransition(self.base, self.zmap, -self.sign)


def _track_component(comp: OverlapComponent, fn: Callable[[SamplePoint], Any]
                     ) -> dict[str, complex]:
    """Continuous square root of det fn along a component graph.

    BFS from point 0 with the principal root at the root; each edge is a
    single tracking step; non-tree edges are consistency-checked.
    """
    tols = get_tolerances()
    dets = [complex(np.linalg.det(_mat(fn(p)))) for p in comp.points]
    z: dict[int, complex] = {0: principal_sqrt(dets[0])}
    adj = {i: [] for i in range(len(comp.points))}
    for i, j in comp.edges:
        adj[i].append(j)
        adj[j].append(i)
    frontier = [0]
    while frontier:
        cur = frontier.pop(0)
        for nxt in adj[cur]:
            ratio = dets[nxt] / dets[cur]
            if abs(np.angle(ratio)) >= _MAX_ARG:
                raise TrackingError(
                    f"branch jump between {comp.points[cur].id} and "
                    f"{comp.points[nxt].id} (edge too long)"
                )
            val = z[cur] * principal_sqrt(ratio)
            if nxt in z:
                if abs(val - z[nxt]) > 1e3 * tols.rel * max(1.0, abs(val)):
                    raise TrackingError(
                        "inconsistent square root around a cycle in component"
                    )
            else:
                z[nxt] = val
                frontier.append(nxt)
    return {comp.points[i].id: z[i] for i in range(len(comp.points))}


def lift_double_cover(nerve: Nerve, c: Cocycle):
    """Lift a Gl cocycle through the metalinear double cover.

    Chooses a continuous square root of det t_ab per overlap component,
    solves the triple-point sign defects for per-component flips over
    GF(2), and returns the Ml cocycle; if the GF(2) system is infeasible
    the defect SignCochain (degree 2) is returned instead — the witness
    of a nontrivial obstruction class.
    """
    if c.group != "Gl":
        raise ValidationError("lift_double_cover expects a Gl cocycle")
    lifted: dict[PairKey, list[_LiftedTransition]] = {}
    for pair in sorted(nerve.overlaps):
        lifted[pair] = []
        for ci, comp in enumerate(nerve.overlaps[pair]):
            fn = c.transitions[pair][ci]
            lifted[pair].append(_LiftedTransition(fn, _track_component(comp, fn)))

    comp_index = {key: i for i, key in enumerate(nerve.component_list())}
    rows, rhs, defects = [], [], {}
    tols = get_tolerances()
    for (a, b, cc), tp in nerve.triple_points():
        cab, _ = tp.memberships[(a, b)]
        cbc, _ = tp.memberships[(b, cc)]
        cac, _ = tp.memberships[(a, cc)]
        zab = lifted[(a, b)][cab].zmap[tp.id]
        zbc = lifted[(b, cc)][cbc].zmap[tp.id]
        zac = lifted[(a, cc)][cac].zmap[tp.id]
        s = zab * zbc / zac
        if abs(s - 1) > 1e3 * tols.rel and abs(s + 1) > 1e3 * tols.rel:
            raise ValidationError(
                f"triple defect at {tp.id} is not a sign: {s} "
                "(input not a cocycle?)"
            )
        bit = 1 if abs(s + 1) < abs(s - 1) else 0
        defects[((a, b, cc), tp.id)] = -1 if bit else 1
        row = np.zeros(len(comp_index), dtype=np.uint8)
        for pair, ci in (((a, b), cab), ((b, cc), cbc), ((a, cc), cac)):
            row[comp_index[(pair, ci)]] ^= 1
        rows.append(row)
        rhs.append(bit)
    if rows:
        sol = gf2_solve(np.array(rows), np.array(rhs, dtype=np.uint8))
        if sol is None:
            return SignCochain(degree=2, values=defects)
        for (pair, ci), idx in comp_index.items():
            if sol[idx]:
                lifted[pair][ci] = lifted[pair][ci].flipped()
    return Cocycle(
        group="Ml",
        n=c.n,
        k=c.k,
        transitions={pair: tuple(fns) for pair, fns in lifted.items()},
    )


def z2_coboundary_solve(nerve: Nerve, c2: SignCochain) -> Optional[SignCochain]:
    """Find a degree-1 sign cochain whose coboundary is c2, or prove
    infeasibility over GF(2)."""
    if c2.degree != 2:
        raise ValidationError("expected a degree-2 sign cochain")
    comp_index = {key: i for i, key in enumerate(nerve.component_list())}
    rows, rhs = [], []
    for (a, b, cc), tp in nerve.triple_points():
        v = c2.values.get(((a, b, cc), tp.id), 1)
        row = np.zeros(len(comp_index), dtype=np.uint8)
        for pair in ((a, b), (b, cc), (a, cc)):
            ci, _ = tp.memberships[pair]
            row[comp_index[(pair, ci)]] ^= 1
        rows.append(row)
        rhs.append(0 if v == 1 else 1)
    if not rows:
        return SignCochain(degree=1, values={k: 1 for k in comp_index})
    sol = gf2_solve(np.array(rows), np.array(rhs, dtype=np.uint8))
    if sol is None:
        return None
    return SignCochain(
        degree=1,
        values={key: -1 if sol[idx] else 1 for key, idx in comp_index.items()},
    )


def lifts_equivalent(nerve: Nerve, l1: Cocycle, l2: Cocycle
                     ) -> Optional[dict[str, int]]:
    """Decide whether two Ml lifts of the same Gl cocycle differ by a
    coboundary of chart signs.

    Returns the witness {chart: epsilon} with z2 = eps_a eps_b z1 on
    every overlap component, or None if the lifts are inequivalent.
    """
    tols = get_tolerances()
    chart_index = {ch: i for i, ch in enumerate(nerve.charts)}
    rows, rhs = [], []
    for pair in sorted(nerve.overlaps):
        a, b = pair
        for ci, comp in enumerate(nerve.overlaps[pair]):
            ratio = None
            for pt in comp.points:
                x1 = l1.transitions[pair][ci](pt)
                x2 = l2.transitions[pair][ci](pt)
                if float(np.max(np.abs(x1.A - x2.A))) > 1e3 * tols.abs * max(
                    1.0, float(np.max(np.abs(x1.A)))
                ):
                    raise ValidationError(
                        "lifts do not project to the same Gl cocycle"
                    )
                r = x2.z / x1.z
                if abs(r - 1) > 1e3 * tols.rel and abs(r + 1) > 1e3 * tols.rel:
                    raise ValidationError(
                        f"z-ratio at {pt.id} is not a sign: {r}"
                    )
                rbit = 1 if abs(r + 1) < abs(r - 1) else 0
                if ratio is None:
                    ratio = rbit
                elif ratio != rbit:
                    raise ValidationError(
                        "z-ratio not constant on an overlap component"
                    )
            row = np.zeros(len(chart_index), dtype=np.uint8)
            row[chart_index[a]] ^= 1
            row[chart_index[b]] ^= 1
            rows.append(row)
            rhs.append(ratio)
    if not rows:
        return {ch: 1 for ch in nerve.charts}
    sol = gf2_solve(np.array(rows), np.array(rhs, dtype=np.uint8))
    if sol is None:
        return None
    return {ch: -1 if sol[idx] else 1 for ch, idx in chart_index.items()}
