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

from typing import Optional

import numpy as np

from . import ball, cech, compatibility
from .cech import Cocycle
from .compatibility import DeltaTildeData, PolarizationPairData
from .config import check_bound, get_tolerances, property_bound
from .errors import EngineError, TheoremFalsification, ValidationError, raise_first
from .frames import (
    alpha_tilde,
    ball_checks,
    check_ball,
    check_frame_pairs,
    delta,
    delta_L_stack,
    delta_L_tilde,
    validate_lagrangian,
)
from .groups import ml_checks, ml_mul, ml_root_check, rel_residual, spk_blocks, worst
from .nerve import Nerve
from .smallmat import det, inv, lstsq, mul
from .tracking import cdiv, cmul, track_graph


class MetaplecticBundleData:
    """A metaplectic cocycle over a nerve, optionally in D-adapted form;
    n and k are the cocycle's, whose group the schema makes Mp.  A
    D-adapted cocycle is checked as Spk-valued."""

    def __init__(self, nerve: Nerve, mp_cocycle: Cocycle, d_adapted: bool = False):
        if d_adapted:
            spk_blocks(mp_cocycle.mats, mp_cocycle.k)
        self.nerve = nerve
        self.mp_cocycle = mp_cocycle
        self.d_adapted = d_adapted
        self.n = mp_cocycle.n
        self.k = mp_cocycle.k


def chart_sqrt_values(nerve: Nerve, values, flips: dict[str, int]) -> np.ndarray:
    """Continuous square roots of a nonvanishing function over the sample
    graph of every chart: values[r] is its value at chart row r of the
    nerve, and so is the returned root.

    Each connected piece of a chart's graph is rooted at its smallest
    point id with the principal root times the chart's sheet flip (1 for
    a chart that flips does not name); edges are single tracking steps
    (see track_graph on Nerve.chart_walk).  Errors come for the first
    chart that fails.
    """
    where = lambda r: f"on chart {nerve.sites[r][0]}"  # noqa: E731
    return track_graph(values, nerve.chart_walk, [pid for _, pid in nerve.sites],
                       np.array([flips.get(ch, 1) for ch in nerve.charts])[nerve.chart],
                       jump=where, cycle=where)


class RecipeResult:
    """The induced Ml cocycle, and chart_z the root z of the lifted
    section (C, z) at every chart row of the section transport."""

    def __init__(self, ml_cocycle: Cocycle, chart_z: np.ndarray, residuals: dict):
        self.ml_cocycle = ml_cocycle
        self.chart_z = chart_z
        self.residuals = residuals


def _mp_act_stack(g: np.ndarray, zeta, W: np.ndarray, C: np.ndarray, z):
    """The left metaplectic action, through the Ball, of the elements
    (g[p], zeta[p]) on the meta frames (W[p], (C[p], z[p])), for stacks
    g (P, 2n, 2n) and W, C (P, n, n): the Ball points g.W, which
    alpha_tilde checks, and the Ml products alpha (C, z)."""
    gW, aA, az = alpha_tilde(g, zeta, W)
    return (gW, *ml_mul(aA, az, C, z))


class SectionTransport:
    """The part of the recipe that no sheet choice changes, as stacks;
    a SectionFamily computes it once per run.

    Chart stacks have one row per chart row of the nerve: U, V hold the
    section frames, validated as positive Lagrangian frames, W and C the
    stacks (R, n, n) of (W, C) = phi(section), W checked as Ball points,
    and dets the det C that phi_raw took and checked.  Overlap stacks
    have one row per overlap row, whose point has the chart rows a, b
    (the nerve's ends) in the two charts of its overlap: N the frame
    transition with g sigma_b = sigma_a N, alpha and alpha_z the stack
    and roots of alpha_tilde(g, W_b), and gW the Ball point g.W_b.
    """

    def __init__(self, bundle: MetaplecticBundleData, U: np.ndarray, V: np.ndarray,
                 W: np.ndarray, C: np.ndarray, dets: np.ndarray, N: np.ndarray,
                 alpha: np.ndarray, alpha_z: np.ndarray, gW: np.ndarray):
        self.bundle = bundle
        self.U = U
        self.V = V
        self.W = W
        self.C = C
        self.dets = dets
        self.N = N
        self.alpha = alpha
        self.alpha_z = alpha_z
        self.gW = gW


def transport(data: MetaplecticBundleData, sections: tuple[np.ndarray, ...]
              ) -> SectionTransport:
    """The sheet-independent part of the recipe for a section family on
    a bundle, which every recipe run on that family shares: sections are
    the stacks (U, V) (R, n, n) of its frames at every chart row of the
    nerve (see scenario.Scenario); det C is phi_raw's, kept."""
    tols = get_tolerances()
    nerve = data.nerve
    U, V = sections
    W, C, dets = ball.phi_raw(U, V)
    raise_first([(~validate_lagrangian(U, V), lambda r: ValidationError(
        f"section frame not positive at {nerve.sites[r][1]}"))])
    check_ball(W)
    a, b = nerve.ends.T
    g = data.mp_cocycle.mats
    # frame transitions N: g sigma_b = sigma_a N, in the least-squares
    # sense, the columns of sigma_a being independent
    gU, gV = ball.sp_apply(g, U[b], V[b])
    Sa = np.concatenate([U[a], V[a]], axis=-2)
    Sg = np.concatenate([gU, gV], axis=-2)
    N = lstsq(Sa, Sg)
    axes = (-2, -1)
    res = np.max(np.abs(mul(Sa, N) - Sg), axis=axes, initial=0.0)
    bound = property_bound(tols) * np.maximum(1.0, np.max(np.abs(Sg), axis=axes,
                                                          initial=0.0))
    raise_first([(~(res <= bound), lambda p: ValidationError(
        f"sections inconsistent with the cocycle at {nerve.ids[p]}"))])
    gW, alpha, alpha_z = alpha_tilde(g, data.mp_cocycle.roots, W[b])
    return SectionTransport(data, U, V, W, C, dets, N, alpha, alpha_z, gW)


def recipe(t: SectionTransport, sheet_flips: Optional[dict[str, int]] = None
           ) -> RecipeResult:
    """Compute the induced metalinear transition functions.

    Per chart, sections are mapped through phi and lifted by a continuous
    sheet choice over the chart's sample graph.  On each overlap sample
    point the metaplectic transition acts on the lifted section of one
    chart and is compared with the lifted section of the other; the
    quotient is the metalinear transition.  Its projection equals the
    Gl-valued frame transition computed independently from the sections.
    The sheet-independent part is the transport t of the sections to
    the bundle t.bundle, and every step runs on the stacks of all sample
    points at once; the lifted sections take t.dets, checked nonsingular.
    """
    tols = get_tolerances()
    data = t.bundle
    nerve = data.nerve
    # per-chart lifted sections
    z = chart_sqrt_values(nerve, t.dets, sheet_flips or {})
    raise_first([ml_root_check(z, t.dets)])

    # the metaplectic transition acting on the lifted section of chart b
    a, b = nerve.ends.T
    moved_A, moved_z = ml_mul(t.alpha, t.alpha_z, t.C[b], z[b])
    axes = (-2, -1)
    wres = np.max(np.abs(t.gW - t.W[a]), axis=axes, initial=0.0)
    raise_first([(~(wres <= property_bound(tols)), lambda p: ValidationError(
        f"Ball points disagree on overlap at {nerve.ids[p]}"))])
    Ninv = mul(inv(t.C[a], t.dets[a]), moved_A)
    Nz = cdiv(moved_z, z[a])
    nres = np.max(np.abs(Ninv - t.N), axis=axes, initial=0.0)
    ml_c = Cocycle.ml(data.n, data.k, Ninv, Nz)
    report = cech.validate_cocycle(nerve, ml_c)
    if not report["ok"]:
        raise ValidationError(
            f"recipe output fails cocycle validation: {report['failures'][:3]}"
        )
    return RecipeResult(
        ml_cocycle=ml_c,
        chart_z=z,
        residuals={"ball_match": worst(wres),
                   "projection_match": worst(nres),
                   "cocycle": report["max_residual"]},
    )


class SectionFamily:
    """A frame-section family on a bundle for one run: the recipe stage
    and cross_check take its transport and plain recipe from plain().

    The first call computes them and later calls return the same pair;
    an EngineError of the first call is raised again by every later one,
    so each stage records the same error.  A run makes its own families,
    so nothing outlives it: a Scenario run again, or at other
    tolerances, transports its sections afresh.
    """

    def __init__(self, bundle: MetaplecticBundleData, sections: tuple[np.ndarray, ...]):
        self.bundle = bundle
        self.sections = sections
        self._plain: Optional[tuple[SectionTransport, RecipeResult]] = None
        self._error: Optional[EngineError] = None

    def plain(self) -> tuple[SectionTransport, RecipeResult]:
        """The transport of the sections to the bundle and the recipe with
        no sheet flipped."""
        if self._error is not None:
            raise self._error
        if self._plain is None:
            try:
                t = transport(self.bundle, self.sections)
                self._plain = t, recipe(t)
            except EngineError as exc:
                self._error = exc
                raise
        return self._plain


def build_delta_D_tilde(data: MetaplecticBundleData,
                        pair_sections: tuple[np.ndarray, ...]) -> DeltaTildeData:
    """Global square-root pairing datum on a D-adapted metaplectic bundle.

    Per chart, the value at a sampled meta pair is delta_L_tilde of its
    block form, whose Gamma factor track_sqrt takes in closed form along
    a straight path; gluing across an overlap is the invariance of that value
    under the (diagonal) metaplectic block action — verified here, not
    assumed.  The square identity against delta_L is checked at every
    chart row.  pair_sections are the stacks (W1, C1, z1, W2, C2, z2) at
    every chart row of the nerve (see scenario.Scenario).  Each check
    runs on the stacks of all sample points at once, after the pair
    sections are checked as Ball points and metalinear frames.  The
    metalinear-pair transformation law is the product identity of
    meta_pair_factor with groups.translation_factor, which the tests
    check.
    """
    if not data.d_adapted:
        raise ValidationError("requires D-adapted metaplectic data")
    tols = get_tolerances()
    nerve, k = data.nerve, data.k

    # the values at every chart row serve the gluing and the chart checks
    W1, C1, z1, W2, C2, z2 = pair_sections
    # each point's first W, first (C, z), second W and second (C, z)
    raise_first(ball_checks(W1) + ml_checks(det(C1), z1) + ball_checks(W2)
                + ml_checks(det(C2), z2))
    values = delta_L_tilde(W1, C1, z1, W2, C2, z2, k)

    # invariance: both members of the chart-b pair moved by the transition
    b = nerve.ends[:, 1]
    P = len(b)
    g, zeta = data.mp_cocycle.mats, data.mp_cocycle.roots
    gW, gC, gz = _mp_act_stack(np.concatenate([g, g]), np.concatenate([zeta, zeta]),
                               np.concatenate([W1[b], W2[b]]),
                               np.concatenate([C1[b], C2[b]]),
                               np.concatenate([z1[b], z2[b]]))
    moved = delta_L_tilde(gW[:P], gC[:P], gz[:P], gW[P:], gC[P:], gz[P:], k)
    residuals = rel_residual(moved, values[b])
    dt = DeltaTildeData(base=values, residuals=residuals)
    dt.checks["invariance"] = worst(residuals)
    if not dt.checks["invariance"] <= property_bound(tols):
        raise ValidationError("delta_L_tilde not invariant across an overlap")

    # square identity at chart sample points
    U1, V1 = ball.phi_inv_raw(W1, C1)
    U2, V2 = ball.phi_inv_raw(W2, C2)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = rel_residual(values * values, delta_L_stack(U1, V1, U2, V2, k))
    dt.checks["square_identity"] = worst(sq)
    if not dt.checks["square_identity"] <= property_bound(tols):
        raise ValidationError("delta_D_tilde property check failed")
    return dt


def cross_check(data: MetaplecticBundleData, first: SectionFamily,
                second: SectionFamily) -> dict:
    """Metaplectically induced metalinear bundles are compatible.

    Takes the transport and plain recipe of each section family from the
    family, which computes them on its first call, so after the recipe
    stage the first family's are that stage's own.  Assembles the pair
    data the two recipes span, induces the second metalinear cocycle
    from the first, and verifies (i) the reference cocycle built from
    the square-root pairing values glues, (ii) it is equivalent to the
    induced one, and (iii) the restricted square-root pairing datum
    agrees with the induced one up to a single global sign.  The recipe
    has validated both cocycles, so the pair they span is not validated
    again.
    """
    if not data.d_adapted:
        raise ValidationError("cross_check requires D-adapted data")
    tols = get_tolerances()
    nerve, n, k = data.nerve, data.n, data.k
    t1, r1 = first.plain()
    t2, r2 = second.plain()

    # pair data spanned by the two families
    recipes = r1.ml_cocycle, r2.ml_cocycle
    pair_c = Cocycle("Glkd", n, k, np.stack([c.mats for c in recipes], axis=1),
                     dets=np.stack([c.dets for c in recipes], axis=1))
    # the reduced pairing determinant of the two families at every chart
    # row; it also serves the restriction identity
    reduced = delta_L_stack(t1.U, t1.V, t2.U, t2.V, k)
    pdata = PolarizationPairData(nerve, pair_c, np.array(reduced))
    vrep = compatibility.validate_pair_data(pdata)
    if not vrep["ok"]:
        raise ValidationError(f"recipe pair data inconsistent: "
                              f"{vrep['failures'][:3]}")
    pnorm = compatibility.normalize_sections(pdata)
    z1 = r1.ml_cocycle
    z2_ind, _ = compatibility.induce_compatible(pnorm, z1)

    # reference lift: transport the second recipe cocycle to the
    # normalized bundle using the restricted square-root pairing values
    # as the per-chart square root of delta
    w = delta_L_tilde(t1.W, t1.C, r1.chart_z, t2.W, t2.C, r2.chart_z, k)
    a, b = nerve.ends.T
    zs = cdiv(cmul(w[a], r2.ml_cocycle.roots), w[b])
    z2_ref = Cocycle.ml(n, k, pnorm.pair_cocycle.mats[:, 1], zs,
                        pnorm.pair_cocycle.dets[:, 1])
    dt_ref = compatibility.build_delta_tilde(pnorm, z1, z2_ref)
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
    S1 = np.concatenate([t1.U, t1.V], axis=-2)
    S2 = np.concatenate([t2.U, t2.V], axis=-2)
    check_frame_pairs(S1, S2, k)
    restr_worst = worst(rel_residual(delta(S1, S2, k), reduced))
    if not restr_worst <= check_bound(tols):
        raise TheoremFalsification("restriction identity fails")

    return {
        "global_sign": global_sign,
        "witness": witness,
        "glue_residual": worst(dt_ref.residuals),
        "restriction_residual": restr_worst,
    }
