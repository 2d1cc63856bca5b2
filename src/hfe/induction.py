"""Inducing metalinear cocycles from a metaplectic cocycle.

The transition-function recipe: sections of the frame bundle of a
positive polarization, expressed in chart coordinates, are lifted to the
meta level through the Ball description (phi plus a per-chart sheet
choice); acting with the metaplectic transitions and comparing on
overlaps produces metalinear transition functions.  The D-adapted block
machinery then yields the global square-root pairing datum and its
properties, and the cross-check ties the construction back to the
compatible-cocycle machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import ball, cech, compatibility
from .cech import Cocycle, Nerve, PairKey, SamplePoint
from .compatibility import DeltaTildeData, PolarizationPairData
from .config import Tolerances, get_tolerances
from .errors import TheoremFalsification, TrackingError, ValidationError
from .frames import (
    BallPoint,
    LagFrame,
    MetaLagFrame,
    alpha_tilde,
    delta_L,
    delta_L_tilde,
    validate_lagrangian,
)
from .groups import MlElement, MpElement, ml_mul, subgroup_classify
from .sampling import random_mlkd
from .tracking import _MAX_ARG, principal_sqrt


@dataclass(frozen=True)
class MetaplecticBundleData:
    """A metaplectic cocycle over a nerve, optionally in D-adapted form."""

    nerve: Nerve
    mp_cocycle: Cocycle  # Mp-valued
    d_adapted: bool = False
    k: int = 0

    def __post_init__(self):
        if self.mp_cocycle.group != "Mp":
            raise ValidationError("mp cocycle must be Mp-valued")
        if self.d_adapted:
            for pair in sorted(self.nerve.overlaps):
                for ci, comp in enumerate(self.nerve.overlaps[pair]):
                    for pt in comp.points:
                        x = self.mp_cocycle.transitions[pair][ci](pt)
                        subgroup_classify(x, self.k)  # raises on pattern fail

    @property
    def n(self) -> int:
        return self.mp_cocycle.n


@dataclass(frozen=True)
class FrameSectionData:
    """Per-chart positive Lagrangian frame sections in chart coordinates.

    Keeps the sheet-independent transport of the last bundle it served
    (see transport), so the recipe runs of one section family share it.
    """

    sections: dict[str, Callable[[SamplePoint], tuple[np.ndarray, np.ndarray]]]
    _last: Optional["SectionTransport"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def frame(self, chart: str, pt: SamplePoint) -> LagFrame:
        U, V = self.sections[chart](pt)
        fr = validate_lagrangian(U, V)
        if not fr.positive:
            raise ValidationError(f"section frame not positive at {pt.id}")
        return fr

    def transport(self, data: MetaplecticBundleData) -> "SectionTransport":
        """The sheet-independent part of the recipe on this bundle,
        computed once per bundle and tolerance set."""
        tols = get_tolerances()
        last = self._last
        if last is None or last.bundle is not data or last.tols != tols:
            last = _transport(data, self)
            object.__setattr__(self, "_last", last)
        return last


def _chart_graph(nerve: Nerve, chart: str):
    """Sample graph of a chart: all points of overlaps involving it,
    merged by point id, with the component edges."""
    points: dict[str, SamplePoint] = {}
    edges: set[tuple[str, str]] = set()
    for pair in sorted(nerve.overlaps):
        if chart not in pair:
            continue
        for comp in nerve.overlaps[pair]:
            for pt in comp.points:
                points.setdefault(pt.id, pt)
            for i, j in comp.edges:
                a, b = comp.points[i].id, comp.points[j].id
                edges.add((min(a, b), max(a, b)))
    return points, sorted(edges)


def chart_sqrt_values(
    nerve: Nerve,
    chart: str,
    value_fn: Callable[[SamplePoint], complex],
    flip: int = 1,
) -> dict[str, complex]:
    """Continuous square root of a nonvanishing function over a chart's
    sample graph.

    Each connected piece is rooted at its smallest point id with the
    principal root (times the sheet flip); edges are single tracking
    steps.
    """
    points, edges = _chart_graph(nerve, chart)
    vals = {pid: complex(value_fn(p)) for pid, p in points.items()}
    adj: dict[str, list[str]] = {pid: [] for pid in points}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    z: dict[str, complex] = {}
    tols = get_tolerances()
    for root in sorted(points):
        if root in z:
            continue
        z[root] = flip * principal_sqrt(vals[root])
        frontier = [root]
        while frontier:
            cur = frontier.pop(0)
            for nxt in adj[cur]:
                ratio = vals[nxt] / vals[cur]
                if abs(np.angle(ratio)) >= _MAX_ARG:
                    raise TrackingError(
                        f"branch jump between {cur} and {nxt} on chart {chart}"
                    )
                val = z[cur] * principal_sqrt(ratio)
                if nxt in z:
                    if abs(val - z[nxt]) > 1e3 * tols.rel * max(1.0, abs(val)):
                        raise TrackingError(
                            f"inconsistent square root on chart {chart}"
                        )
                else:
                    z[nxt] = val
                    frontier.append(nxt)
    return z


class _PointTable:
    """Transition function realized as a lookup over sample point ids."""

    def __init__(self, table: dict[str, MlElement]):
        self.table = dict(table)

    def __call__(self, pt: SamplePoint) -> MlElement:
        return self.table[pt.id]


@dataclass
class RecipeResult:
    ml_cocycle: Cocycle
    chart_lifts: dict[str, dict[str, MetaLagFrame]]
    residuals: dict = field(default_factory=dict)


def mp_act_meta(gt: MpElement, X: MetaLagFrame) -> MetaLagFrame:
    """Left metaplectic action on a meta frame through the Ball."""
    a = alpha_tilde(gt, X.W)
    gW, _ = ball.alpha_raw(gt.g.g, X.W.W)
    return MetaLagFrame(BallPoint(gW), ml_mul(a, X.C))


@dataclass(frozen=True)
class SectionTransport:
    """The part of the recipe that no sheet choice changes.

    charts maps chart -> point id -> (validated section frame, Ball
    point W, frame block C) with (W, C) = phi(section).  moves maps an
    overlap (pair, component) -> point id -> (frame transition N with
    g sigma_b = sigma_a N, alpha_tilde(g, W_b), g.W_b).
    """

    bundle: MetaplecticBundleData
    tols: Tolerances
    charts: dict[str, dict[str, tuple[LagFrame, BallPoint, np.ndarray]]]
    moves: dict[tuple[PairKey, int], dict[str, tuple[np.ndarray, MlElement, BallPoint]]]


def _transport(data: MetaplecticBundleData, sections: FrameSectionData
               ) -> SectionTransport:
    tols = get_tolerances()
    nerve = data.nerve
    charts: dict[str, dict] = {}
    for ch in nerve.charts:
        charts[ch] = {}
        for pid, p in _chart_graph(nerve, ch)[0].items():
            W, C = ball.phi_raw(*sections.sections[ch](p))
            charts[ch][pid] = (sections.frame(ch, p), BallPoint(W), C)
    moves: dict = {}
    for pair in sorted(nerve.overlaps):
        a, b = pair
        for ci, comp in enumerate(nerve.overlaps[pair]):
            moves[(pair, ci)] = table = {}
            for pt in comp.points:
                gt = data.mp_cocycle.transitions[pair][ci](pt)
                fb, Wb, _ = charts[b][pt.id]
                fa = charts[a][pt.id][0]
                # frame transition N: g sigma_b = sigma_a N
                gU, gV = ball.sp_apply(gt.g.g, fb.U, fb.V)
                Sa = fa.stacked()
                Sg = np.vstack([gU, gV])
                N, *_ = np.linalg.lstsq(Sa, Sg, rcond=None)
                res = float(np.max(np.abs(Sa @ N - Sg)))
                if res > 1e4 * tols.rel * max(1.0, float(np.max(np.abs(Sg)))):
                    raise ValidationError(
                        f"sections inconsistent with the cocycle at {pt.id}"
                    )
                gW, _ = ball.alpha_raw(gt.g.g, Wb.W)
                table[pt.id] = (N, alpha_tilde(gt, Wb), BallPoint(gW))
    return SectionTransport(data, tols, charts, moves)


def recipe(
    data: MetaplecticBundleData,
    sections: FrameSectionData,
    sheet_flips: Optional[dict[str, int]] = None,
) -> RecipeResult:
    """Compute the induced metalinear transition functions.

    Per chart, sections are mapped through phi and lifted by a continuous
    sheet choice over the chart's sample graph.  On each overlap sample
    point the metaplectic transition acts on the lifted section of one
    chart and is compared with the lifted section of the other; the
    quotient is the metalinear transition.  Its projection equals the
    Gl-valued frame transition computed independently from the sections.
    The sheet-independent part comes from sections.transport(data).
    """
    sheet_flips = sheet_flips or {}
    tols = get_tolerances()
    nerve = data.nerve
    transport = sections.transport(data)
    # per-chart lifted sections
    chart_lifts: dict[str, dict[str, MetaLagFrame]] = {}
    for ch, wc in transport.charts.items():
        if not wc:
            chart_lifts[ch] = {}
            continue
        z = chart_sqrt_values(
            nerve,
            ch,
            lambda p: complex(np.linalg.det(wc[p.id][2])),
            sheet_flips.get(ch, 1),
        )
        chart_lifts[ch] = {
            pid: MetaLagFrame(W, MlElement(C, z[pid]))
            for pid, (_, W, C) in wc.items()
        }

    ml_transitions: dict = {}
    worst_w, worst_n = 0.0, 0.0
    for pair in sorted(nerve.overlaps):
        a, b = pair
        ml_transitions[pair] = []
        for ci in range(len(nerve.overlaps[pair])):
            table: dict[str, MlElement] = {}
            for pid, (N, alpha_b, gW) in transport.moves[(pair, ci)].items():
                Xa = chart_lifts[a][pid]
                moved_C = ml_mul(alpha_b, chart_lifts[b][pid].C)
                wres = float(np.max(np.abs(gW.W - Xa.W.W)))
                worst_w = max(worst_w, wres)
                if wres > 1e4 * tols.rel:
                    raise ValidationError(
                        f"Ball points disagree on overlap at {pid}"
                    )
                Ninv_mat = np.linalg.inv(Xa.C.A) @ moved_C.A
                Nz = moved_C.z / Xa.C.z
                nres = float(np.max(np.abs(Ninv_mat - N)))
                worst_n = max(worst_n, nres)
                table[pid] = MlElement(Ninv_mat, Nz)
            ml_transitions[pair].append(_PointTable(table))
        ml_transitions[pair] = tuple(ml_transitions[pair])

    ml_c = Cocycle("Ml", data.n, data.k, ml_transitions)
    report = cech.validate_cocycle(nerve, ml_c)
    if not report["ok"]:
        raise ValidationError(
            f"recipe output fails cocycle validation: {report['failures'][:3]}"
        )
    return RecipeResult(
        ml_cocycle=ml_c,
        chart_lifts=chart_lifts,
        residuals={"ball_match": worst_w, "projection_match": worst_n,
                   "cocycle": report["max_residual"]},
    )


def reduce_D_adapted(frame: LagFrame | tuple[np.ndarray, np.ndarray], k: int) -> dict:
    """Extract the block data of a frame in D-adapted coordinates.

    U = (A B; 0 Ur), V = (0 0; 0 Vr) with A real invertible; returns the
    blocks, the validated reduced frame, and the positivity verdicts of
    the full and reduced frames (which must agree).
    """
    if isinstance(frame, LagFrame):
        U, V = frame.U, frame.V
        full = frame
    else:
        U, V = (np.asarray(m, complex) for m in frame)
        full = validate_lagrangian(U, V)
    from .frames import _frame_blocks  # block pattern check shared with delta_L

    blocks = _frame_blocks(np.asarray(U, complex), np.asarray(V, complex), k)
    reduced = validate_lagrangian(blocks["Ur"], blocks["Vr"])
    if reduced.positive != full.positive:
        raise ValidationError(
            "positivity verdicts of full and reduced frames disagree"
        )
    return {**blocks, "reduced": reduced, "positive": full.positive}


def build_delta_D_tilde(
    data: MetaplecticBundleData,
    pair_sections: dict[str, Callable[[SamplePoint], tuple[MetaLagFrame, MetaLagFrame]]],
    rng: Optional[np.random.Generator] = None,
) -> DeltaTildeData:
    """Global square-root pairing datum on a D-adapted metaplectic bundle.

    Per chart, the value at a sampled meta pair is delta_L_tilde of its
    block form; gluing across an overlap is the invariance of that value
    under the (diagonal) metaplectic block action — verified here, not
    assumed.  The square identity against delta_L and the metalinear-pair
    transformation law are checked at sample points.
    """
    if not data.d_adapted:
        raise ValidationError("requires D-adapted metaplectic data")
    tols = get_tolerances()
    k = data.k
    nerve = data.nerve

    # the chart value at a point serves both the gluing and the chart checks
    base = {
        ch: cech.memoize(lambda pt, fn=pair_sections[ch]: delta_L_tilde(fn(pt), k))
        for ch in nerve.charts
    }
    dt = DeltaTildeData(base=base, k=k)
    worst = 0.0
    for pair in sorted(nerve.overlaps):
        for ci, comp in enumerate(nerve.overlaps[pair]):
            for pt in comp.points:
                gt = data.mp_cocycle.transitions[pair][ci](pt)
                X1, X2 = pair_sections[pair[1]](pt)
                moved = (mp_act_meta(gt, X1), mp_act_meta(gt, X2))
                v0 = base[pair[1]](pt)
                v1 = delta_L_tilde(moved, k)
                r = abs(v1 - v0) / max(1.0, abs(v0))
                dt.residuals[(pair, ci, pt.id)] = r
                worst = max(worst, r)
    dt.checks["invariance"] = worst
    if worst > 1e4 * tols.rel:
        raise ValidationError("delta_L_tilde not invariant across an overlap")
    # square identity and transformation law at chart sample points
    sq_worst, law_worst = 0.0, 0.0
    rng = rng or np.random.default_rng(0)
    for ch in nerve.charts:
        pts, _ = _chart_graph(nerve, ch)
        for pid, pt in pts.items():
            X1, X2 = pair_sections[ch](pt)
            v = base[ch](pt)
            f1 = ball.phi_inv_raw(X1.W.W, X1.C.A)
            f2 = ball.phi_inv_raw(X2.W.W, X2.C.A)
            dl = delta_L((f1, f2), k)
            sq_worst = max(sq_worst, abs(v * v - dl) / max(1.0, abs(dl)))
            m1, m2 = random_mlkd(rng, data.n, k)
            Y = (
                MetaLagFrame(X1.W, ml_mul(X1.C, m1)),
                MetaLagFrame(X2.W, ml_mul(X2.C, m2)),
            )
            tag = subgroup_classify((m1, m2), k)
            detA = np.linalg.det(tag.blocks["A"]) if k else 1.0
            target = v * np.conj(m1.z) * m2.z / abs(detA)
            law_worst = max(
                law_worst,
                abs(delta_L_tilde(Y, k) - target) / max(1.0, abs(target)),
            )
    dt.checks["square_identity"] = sq_worst
    dt.checks["translation_law"] = law_worst
    if max(sq_worst, law_worst) > 1e4 * tols.rel:
        raise ValidationError("delta_D_tilde property check failed")
    return dt


def cross_check(
    data: MetaplecticBundleData,
    sections1: FrameSectionData,
    sections2: FrameSectionData,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Metaplectically induced metalinear bundles are compatible.

    Runs the recipe for both section families, assembles the pair data
    they span, induces the second metalinear cocycle from the first, and
    verifies (i) the reference cocycle built from the square-root pairing
    values glues, (ii) it is equivalent to the induced one, and (iii) the
    restricted square-root pairing datum agrees with the induced one up
    to a single global sign.
    """
    if not data.d_adapted:
        raise ValidationError("cross_check requires D-adapted data")
    rng = rng or np.random.default_rng(0)
    tols = get_tolerances()
    nerve, n, k = data.nerve, data.n, data.k
    r1 = recipe(data, sections1)
    r2 = recipe(data, sections2)

    # pair data spanned by the two families
    def pair_fn(pair, ci):
        f1 = r1.ml_cocycle.transitions[pair][ci]
        f2 = r2.ml_cocycle.transitions[pair][ci]
        return lambda pt: (f1(pt).A, f2(pt).A)

    pair_c = Cocycle(
        "Glkd", n, k,
        {
            pair: tuple(pair_fn(pair, ci) for ci in range(len(fns)))
            for pair, fns in r1.ml_cocycle.transitions.items()
        },
    )

    def delta_fn(ch):
        s1, s2 = sections1.sections[ch], sections2.sections[ch]
        return cech.memoize(lambda pt: delta_L((s1(pt), s2(pt)), k))

    pdata = PolarizationPairData(
        nerve, pair_c, {ch: delta_fn(ch) for ch in nerve.charts}, n, k
    )
    vrep = compatibility.validate_pair_data(pdata)
    if not vrep["ok"]:
        raise ValidationError(f"recipe pair data inconsistent: "
                              f"{vrep['failures'][:3]}")
    pnorm = compatibility.normalize_sections(pdata)
    z1 = r1.ml_cocycle
    z2_ind = compatibility.induce_compatible(pnorm, z1)

    # reference lift: transport the second recipe cocycle to the
    # normalized bundle using the restricted square-root pairing values
    # as the per-chart square root of delta
    w = {
        ch: {pid: delta_L_tilde((X1, r2.chart_lifts[ch][pid]), k)
             for pid, X1 in r1.chart_lifts[ch].items()}
        for ch in nerve.charts
    }

    def ref_fn(pair, ci):
        a, b = pair
        fz = r2.ml_cocycle.transitions[pair][ci]
        fp = pnorm.pair_cocycle.transitions[pair][ci]

        def new_fn(pt, fz=fz, fp=fp, a=a, b=b):
            _, g2n = fp(pt)
            return MlElement(
                np.asarray(g2n, complex),
                w[a][pt.id] * fz(pt).z / w[b][pt.id],
            )

        return new_fn

    z2_ref = Cocycle(
        "Ml", n, k,
        {
            pair: tuple(ref_fn(pair, ci) for ci in range(len(fns)))
            for pair, fns in r2.ml_cocycle.transitions.items()
        },
    )
    dt_ref = compatibility.build_delta_tilde(pnorm, z1, z2_ref, rng)
    witness = cech.lifts_equivalent(nerve, z2_ind, z2_ref)
    if witness is None:
        raise TheoremFalsification(
            "recipe cocycle not equivalent to the induced compatible one"
        )
    signs = sorted(set(witness.values()))
    if len(signs) > 1:
        raise TheoremFalsification(
            "restricted square-root datum differs by a non-constant sign"
        )
    global_sign = signs[0] if signs else 1

    # restriction identity: ambient pairing determinant equals the
    # reduced-block one on the section frames
    restr_worst = 0.0
    from .frames import LagFramePair, delta as delta_ambient

    frames1 = sections1.transport(data).charts
    frames2 = sections2.transport(data).charts
    for ch in nerve.charts:
        for pid, (fr1, _, _) in frames1[ch].items():
            fr2 = frames2[ch][pid][0]
            amb = delta_ambient(LagFramePair(fr1, fr2, k))
            red = delta_L(((fr1.U, fr1.V), (fr2.U, fr2.V)), k)
            restr_worst = max(restr_worst, abs(amb - red) / max(1.0, abs(red)))
    if restr_worst > 1e3 * tols.rel:
        raise TheoremFalsification("restriction identity fails")

    return {
        "ok": True,
        "global_sign": global_sign,
        "witness": witness,
        "glue_residual": max(dt_ref.residuals.values()) if dt_ref.residuals else 0.0,
        "restriction_residual": restr_worst,
        "recipe_residuals": {"first": r1.residuals, "second": r2.residuals},
    }
