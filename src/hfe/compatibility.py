"""Compatible metalinear cocycles and the global square-root datum.

Given Čech data for a pair of polarizations — a Gl_k²-valued transition
cocycle whose two members share their real A-block, together with sampled
values of the pairing determinant per chart — this module normalizes the
sections so the determinant is identically one, induces the unique
compatible metalinear cocycle for the second member from a metalinear
lift of the first, builds the global square-root datum (as per-chart base
values plus the group-translation formula), verifies its two defining
conditions, tests uniqueness, and establishes self-compatibility.
"""

from __future__ import annotations

import cmath
from typing import Optional

import numpy as np

from . import cech
from .cech import Cocycle, Nerve
from .config import check_bound, get_tolerances, property_bound, zero_bound
from .errors import (
    GluingError,
    SingularityError,
    TheoremFalsification,
    ValidationError,
    raise_first,
)
from .groups import rel_residual, subgroup_classify, worst
from .sampling import Draws, random_mlkd_stack
from .smallmat import det

# seeded random draws per chart in the translation-law and positivity checks
_DRAWS_PER_CHART = 20


class PolarizationPairData:
    """Čech data of a compatible pair of polarizations: the Glkd pair
    cocycle and the (R,) complex stack of the pairing determinant delta at
    every chart row of the nerve; n and k are the pair
    cocycle's."""

    def __init__(self, nerve: Nerve, pair_cocycle: Cocycle, delta_samples: np.ndarray):
        if pair_cocycle.group != "Glkd":
            raise ValidationError("pair cocycle must be Glkd-valued")
        rows = len(nerve.sites)
        if np.shape(delta_samples) != (rows,):
            raise ValidationError(f"expected delta samples at {rows} chart rows, "
                                  f"got shape {np.shape(delta_samples)}")
        self.nerve = nerve
        self.pair_cocycle = pair_cocycle
        self.delta_samples = delta_samples
        self.n = pair_cocycle.n
        self.k = pair_cocycle.k


def _check_delta_samples(data: PolarizationPairData) -> None:
    """Raise SingularityError for the first chart row whose delta sample
    vanishes."""
    sites = data.nerve.sites
    raise_first([(np.abs(data.delta_samples) <= get_tolerances().singular,
                  lambda r: SingularityError(f"delta sample vanishes at {sites[r][1]} "
                                             f"on chart {sites[r][0]!r}"))])


def validate_pair_data(data: PolarizationPairData) -> dict:
    """Check shared-A membership, nonzero delta samples, and the
    transformation consistency of the delta samples across overlaps;
    with k == n, that every delta sample is 1.  The pair cocycle itself
    is checked by cech.validate_cocycle, not here."""
    bound = check_bound(get_tolerances())
    nerve = data.nerve
    pairs = data.pair_cocycle.mats
    blocks = subgroup_classify(pairs[:, 0], pairs[:, 1], data.k)
    _check_delta_samples(data)
    delta = data.delta_samples
    a, b = nerve.ends.T
    # conj(det D1) det D2, the pairing-determinant transformation; one
    # that overflows gives a NaN residual
    with np.errstate(over="ignore"):
        law = np.conj(blocks["detD1"]) * blocks["detD2"]
        residuals = rel_residual(delta[b], delta[a] * law)
    res = residuals.tolist()
    failures = [("delta-consistency", *nerve.keys[nerve.comp[r]], nerve.ids[r], res[r])
                for r in np.flatnonzero(~(residuals <= bound)).tolist()]
    if data.k == data.n:
        # delta is an empty determinant: every sample must be 1
        ones = rel_residual(delta, 1.0)
        residuals = np.concatenate([residuals, ones])
        failures += [("delta-consistency", chart, pid, x)
                     for (chart, pid), x in zip(nerve.sites, ones.tolist()) if x > bound]
    return {"ok": not failures, "max_residual": worst(residuals), "failures": failures}


def _diag_changes(values: list[complex], n: int) -> np.ndarray:
    """The section-change matrices: the identity with one diagonal element
    set to each value (in the last slot of the D-block), as a stack."""
    m = np.tile(np.eye(n, dtype=complex), (len(values), 1, 1))
    m[:, n - 1, n - 1] = values
    return m


def normalize_sections(data: PolarizationPairData) -> PolarizationPairData:
    """Change sections so every delta sample becomes identically 1.

    The second frame of each pair is multiplied by the inverse of a
    diagonal matrix carrying the local delta value, which divides delta
    by itself; the pair cocycle is conjugated accordingly.  The shared
    A-block is untouched (the change lives in the D-block).
    """
    _check_delta_samples(data)
    n, k = data.n, data.k
    if k == n:
        # delta is an empty determinant, identically 1 already
        return data
    delta = data.delta_samples
    a, b = data.nerve.ends.T
    G1, G2 = data.pair_cocycle.mats[:, 0], data.pair_cocycle.mats[:, 1]
    G2 = _diag_changes(delta[a], n) @ G2 @ _diag_changes(1.0 / delta[b], n)
    return PolarizationPairData(
        nerve=data.nerve,
        pair_cocycle=Cocycle("Glkd", n, k, np.stack([G1, G2], axis=1)),
        delta_samples=np.ones(len(delta), dtype=complex),
    )


def _require_normalized(data: PolarizationPairData) -> None:
    """Raise ValidationError unless the delta sample at every overlap
    point is 1."""
    delta = data.delta_samples[data.nerve.ends]
    if np.any(np.abs(delta - 1.0) > check_bound(get_tolerances())):
        raise ValidationError("data not normalized (delta sample != 1)")


def induce_compatible(data: PolarizationPairData, z1: Cocycle
                      ) -> tuple[Cocycle, dict]:
    """Induce the compatible metalinear cocycle for the second member.

    z2 = |det A| / conj(z1) per sample point, after checking the premise
    conj(det g1) det g2 det(A)^{-2} = 1 of normalized compatible data.
    Returns z2 with its cech.validate_cocycle result, which must pass.
    """
    if z1.group != "Ml":
        raise ValidationError("z1 must be an Ml cocycle")
    _require_normalized(data)
    tols = get_tolerances()
    G1, G2 = data.pair_cocycle.mats[:, 0], data.pair_cocycle.mats[:, 1]
    detA = subgroup_classify(G1, G2, data.k)["detA"]
    premise = np.conj(det(G1)) * det(G2) / (detA * detA)
    L = z1.mats
    axes = (-2, -1)
    off = np.max(np.abs(L - G1), axis=axes, initial=0.0)
    off_bound = zero_bound(tols) * np.maximum(1.0, np.max(np.abs(L), axis=axes,
                                                       initial=0.0))
    raise_first([
        (np.abs(premise - 1.0) > property_bound(tols), lambda r: ValidationError(
            f"premise violated at {data.nerve.ids[r]}: "
            f"conj(det g1) det g2 / det(A)^2 = {premise[r]}")),
        (off > off_bound, lambda r: ValidationError("z1 does not lift the first member")),
    ])
    out = Cocycle.ml(data.n, data.k, G2, np.abs(detA) / np.conj(z1.roots))
    report = cech.validate_cocycle(data.nerve, out)
    if not report["ok"]:
        raise ValidationError(f"induced lift fails cocycle validation: "
                              f"{report['failures'][:3]}")
    return out, report


class DeltaTildeData:
    """The global square-root datum.

    Stored as base values, the (R,) stack of its value at every chart
    row of the nerve, plus the group-translation formula:
    the value at a point translated by a metalinear pair (gt1, gt2) is
    base * conj(z1) z2 |det A|^{-1}.  residuals holds the gluing residual
    of every overlap row.
    """

    def __init__(self, base: np.ndarray, residuals: Optional[np.ndarray] = None,
                 epsilon: Optional[int] = None):
        self.base = base
        self.residuals = np.zeros(0) if residuals is None else residuals
        self.checks: dict = {}
        self.epsilon = epsilon


def draw_translations(rng: Draws, n: int, k: int,
                      rows: list[int] | range, diagonal: bool = False) -> dict:
    """One seeded random metalinear pair per chart row of rows, or
    (diagonal) one element taken twice, drawn as one stack by
    random_mlkd_stack and checked as Mlkd pairs: the blocks of
    subgroup_classify with the stacks M1, M2 (m, n, n) and the rows."""
    M1, z1, M2, z2 = random_mlkd_stack(rng, len(rows), n, k, diagonal)
    blocks = subgroup_classify(M1, M2, k, z1, z2)
    blocks.update(rows=rows, M1=M1, M2=M2)
    return blocks


def _chart_draws(nerve: Nerve, rng: Draws) -> list[int]:
    """_DRAWS_PER_CHART seeded chart rows per chart, drawn from the
    chart's draw population (see Nerve.draws) by one integers call with
    one high per row."""
    populations = list(nerve.draws.values())
    picks = rng.integers(np.repeat([len(p) for p in populations], _DRAWS_PER_CHART))
    return [populations[j // _DRAWS_PER_CHART][i] for j, i in enumerate(picks.tolist())]


def _check_translation_law(
    dt: DeltaTildeData,
    data: PolarizationPairData,
    rng: Draws,
) -> float:
    """Squared identity under random metalinear-pair translations.

    The square of the translated value must be delta at the translated
    pair, i.e. delta * conj(det g1) det g2 det(A)^{-2}.
    """
    t = draw_translations(rng, data.n, data.k, _chart_draws(data.nerve, rng))
    rows, detA = t["rows"], t["detA"]
    val = dt.base[rows] * t["factor"]
    target = (data.delta_samples[rows] * np.conj(det(t["M1"])) * det(t["M2"])
              / (detA * detA))
    return worst(rel_residual(val * val, target))


def build_delta_tilde(
    data: PolarizationPairData,
    z1: Cocycle,
    z2: Cocycle,
    rng: Optional[Draws] = None,
    base_values: Optional[np.ndarray] = None,
) -> DeltaTildeData:
    """Glue the global square-root datum from base values at every chart
    row.

    With normalized data the base value is 1 on every chart; gluing
    requires conj(z1) z2 |det A|^{-1} = base_b / base_a across every
    overlap sample point.  A residual above tolerance raises GluingError
    (this is the uniqueness detector).  The pairs (z1, z2) of all points
    are classified as one stack.
    """
    bound = check_bound(get_tolerances())
    nerve = data.nerve
    if base_values is None:
        _require_normalized(data)
        base_values = np.ones(len(nerve.sites), dtype=complex)
    factor = subgroup_classify(z1.mats, z2.mats, data.k, z1.roots, z2.roots)["factor"]
    a, b = nerve.ends.T
    residuals = rel_residual(base_values[a] * factor, base_values[b])
    res = residuals.tolist()
    bad = {(*nerve.keys[nerve.comp[r]], nerve.ids[r]): res[r]
           for r in np.flatnonzero(residuals > bound).tolist()}
    if bad:
        raise GluingError("square-root datum does not glue", bad)
    dt = DeltaTildeData(base=base_values, residuals=residuals)
    # squared identity against the delta samples
    sq_worst = worst(rel_residual(base_values * base_values, data.delta_samples))
    dt.checks["square_identity"] = sq_worst
    if sq_worst > bound:
        raise GluingError("square identity fails", {"square": sq_worst})
    if rng is not None:
        dt.checks["translation_law"] = _check_translation_law(dt, data, rng)
    return dt


def verify_uniqueness(nerve: Nerve, z2a: Cocycle, z2b: Cocycle) -> dict[str, int]:
    """Two candidates that both glue (checked by the caller) must be
    equivalent: returns the chart-sign witness of the coboundary solver.
    A failure contradicts the uniqueness theorem and raises
    TheoremFalsification."""
    witness = cech.lifts_equivalent(nerve, z2a, z2b)
    if witness is None:
        raise TheoremFalsification(
            "two gluing metalinear lifts are inequivalent"
        )
    return witness


def self_compat(data: PolarizationPairData, z1: Cocycle, rng: Draws
                ) -> tuple[DeltaTildeData, DeltaTildeData]:
    """Self-compatibility: diagonal pair data admits a square-root datum.

    The delta samples must be real of one constant sign; with
    delta = e^{i pi eps} |delta| the base value e^{i pi eps/2}
    |delta|^{1/2} glues along the diagonal lift (z1, z1).  Returns the
    built datum and its normalized variant (multiplied by
    e^{-i pi eps/2}), which is positive real on equal meta frames.
    """
    tols = get_tolerances()
    # diagonal data check
    pairs = data.pair_cocycle.mats
    if np.any(np.abs(pairs[:, 0] - pairs[:, 1]) > zero_bound(tols)):
        raise ValidationError("pair cocycle is not diagonal")
    _check_delta_samples(data)
    # real, constant-sign delta samples
    delta = data.delta_samples
    positive = delta.real > 0
    raise_first([
        (np.abs(delta.imag) > zero_bound(tols) * np.maximum(1.0, np.abs(delta)),
         lambda r: ValidationError("delta samples not real")),
        (positive != positive[:1], lambda r: ValidationError("delta sign not constant")),
    ])
    # a nerve without charts has no sample: epsilon 0
    eps = 0 if positive[:1].all() else 1
    phase = cmath.exp(1j * cmath.pi * eps / 2.0)

    bases = phase * np.abs(delta) ** 0.5
    dt = build_delta_tilde(data, z1, z1, rng, base_values=bases)
    dt.epsilon = eps

    dt_norm = DeltaTildeData(base=bases / phase, epsilon=eps)
    # positivity on equal meta frames: translating by a diagonal
    # metalinear pair multiplies by |z|^2 / |det A| > 0
    t = draw_translations(rng, data.n, data.k,
                          _chart_draws(data.nerve, rng), diagonal=True)
    val = dt_norm.base[t["rows"]] * t["factor"]
    worst_imag = worst(np.abs(val.imag))
    min_real = -worst(-val.real, floor=-np.inf)
    dt_norm.checks["positivity_imag"] = worst_imag
    dt_norm.checks["positivity_min_real"] = min_real
    if worst_imag > check_bound(tols) or min_real <= 0:
        raise TheoremFalsification(
            "normalized self-compatibility value not positive real"
        )
    return dt, dt_norm
