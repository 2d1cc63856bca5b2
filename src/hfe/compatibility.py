"""Compatible metalinear cocycles and the global square-root datum.

Given Čech data for a pair of polarizations — a Gl_k²-valued transition
cocycle whose two members share their real A-block, together with sampled
values of the pairing determinant per chart — this module classifies the
pair where its data is made, normalizes the sections so the determinant
is identically one, induces the unique compatible metalinear cocycle for
the second member from a metalinear lift of the first, builds the global
square-root datum (as per-chart base values plus the group-translation
formula), verifies that it glues and squares to delta, and establishes
self-compatibility.  Every check reads the scenario's data alone; the
translation law of the datum is an identity of translation_factor,
which the tests check.
"""

from __future__ import annotations

import cmath
from typing import Optional

import numpy as np

from . import cech
from .cech import Cocycle
from .config import check_bound, get_tolerances, property_bound, zero_bound
from .errors import GluingError, SingularityError, ValidationError, raise_first
from .groups import rel_residual, subgroup_classify, worst
from .nerve import Nerve
from .smallmat import det


class PolarizationPairData:
    """Čech data of a compatible pair of polarizations, classified where
    it is made: the Glkd pair cocycle, the (R,) complex stack of the
    pairing determinant delta at every chart row of the nerve (None for a
    pair cocycle without samples), and blocks, the pair stack's
    subgroup_classify blocks (the constructor raises for the first pair
    not in Glkd); n and k are the pair cocycle's.  The schema, loading
    and cross_check decide the cocycle's group and the stacks' rows."""

    def __init__(self, nerve: Nerve, pair_cocycle: Cocycle, delta_samples):
        pairs = pair_cocycle.mats
        self.blocks = subgroup_classify(pairs[:, 0], pairs[:, 1], pair_cocycle.k)
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
    """Check nonzero delta samples and their transformation consistency
    across overlaps by data's blocks, without a warning; with k == n,
    that every delta sample is 1.  The pair cocycle itself is checked by
    cech.validate_cocycle, not here."""
    bound = check_bound(get_tolerances())
    nerve = data.nerve
    _check_delta_samples(data)
    delta = data.delta_samples
    a, b = nerve.ends.T
    # conj(det D1) det D2, the pairing-determinant transformation; one
    # that overflows gives a NaN residual
    with np.errstate(over="ignore", invalid="ignore"):
        law = np.conj(data.blocks["detD1"]) * data.blocks["detD2"]
        residuals = rel_residual(delta[b], delta[a] * law)
    res = residuals.tolist()
    failures = [("delta-consistency", *nerve.keys[nerve.comp[r]], nerve.ids[r], res[r])
                for r in np.flatnonzero(~(residuals <= bound)).tolist()]
    if data.k == data.n:
        # delta is an empty determinant: every sample must be 1
        ones = rel_residual(delta, 1.0)
        residuals = np.concatenate([residuals, ones])
        failures += [("delta-consistency", chart, pid, x)
                     for (chart, pid), x in zip(nerve.sites, ones.tolist())
                     if not x <= bound]
    return {"ok": not failures, "max_residual": worst(residuals), "failures": failures}


def normalize_sections(data: PolarizationPairData) -> PolarizationPairData:
    """Change sections so every delta sample becomes identically 1.

    The second frame of each pair is multiplied by the inverse of a
    diagonal matrix carrying the local delta value, which divides delta
    by itself; the pair cocycle is conjugated accordingly.  The shared
    A-block is untouched (the change lives in the D-block).  Its callers
    run validate_pair_data on the same data first, whose
    _check_delta_samples has found no vanishing sample.
    """
    n, k = data.n, data.k
    if k == n:
        # delta is an empty determinant, identically 1 already
        return data
    delta = data.delta_samples
    a, b = data.nerve.ends.T
    G1, G2 = data.pair_cocycle.mats[:, 0], data.pair_cocycle.mats[:, 1].astype(complex)
    # the section changes, the identity with its last diagonal element
    # set to delta_a on the left and 1 / delta_b on the right, scale the
    # last row and the last column
    with np.errstate(over="ignore", invalid="ignore"):
        G2[:, n - 1] *= delta[a][:, None]
        G2[:, :, n - 1] *= (1.0 / delta[b])[:, None]
    raise_first([(~np.isfinite(G2).all(axis=(1, 2)), lambda r: ValidationError(
        f"normalized second member at {data.nerve.ids[r]} is not finite"))])
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

    z2 = |det A| / conj(z1) per sample point, after checking that the
    data is normalized and the premise conj(det g1) det g2 det(A)^{-2} = 1
    of normalized compatible data, with det A from data's blocks.  z1 is
    the Ml lift of data's first members: the lift stage lifts them, and
    cross_check stacks its pair from z1's matrices.  Returns z2 with its
    cech.validate_cocycle result, which must pass.
    """
    _require_normalized(data)
    G1, G2 = data.pair_cocycle.mats[:, 0], data.pair_cocycle.mats[:, 1]
    detA = data.blocks["detA"]
    with np.errstate(over="ignore", invalid="ignore"):
        premise = np.conj(det(G1)) * det(G2) / (detA * detA)
    raise_first([(~(np.abs(premise - 1.0) <= property_bound(get_tolerances())),
                  lambda r: ValidationError(
                      f"premise violated at {data.nerve.ids[r]}: "
                      f"conj(det g1) det g2 / det(A)^2 = {premise[r]}"))])
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
    base * translation_factor, conj(z1) z2 |det A|^{-1}.  residuals holds
    the gluing residual of every overlap row, and self_compat sets
    epsilon.
    """

    def __init__(self, base: np.ndarray, residuals: np.ndarray):
        self.base = base
        self.residuals = residuals
        self.checks: dict = {}
        self.epsilon: Optional[int] = None


def translation_factor(z1, z2, detA) -> np.ndarray:
    """conj(z1) z2 / |det A|: the factor by which the Mlkd pairs with
    roots z1, z2 and A-block determinants detA translate a square-root
    datum, and by which build_delta_tilde glues across overlaps.  Its
    square is conj(det g1) det g2 / det(A)^2, the transformation of
    delta, as z**2 = det(A) det(D) for each member."""
    return np.conj(z1) * z2 / np.abs(detA)


def build_delta_tilde(
    data: PolarizationPairData,
    z1: Cocycle,
    z2: Cocycle,
    base_values: Optional[np.ndarray] = None,
) -> DeltaTildeData:
    """Glue the global square-root datum from base values at every chart
    row.

    z1 and z2 are Cocycle.ml-checked lifts of data's two members, whose
    det A is in data's blocks.  Without base_values, data is normalized
    data that induce_compatible has accepted, so the base value is 1 on
    every chart; gluing requires conj(z1) z2 |det A|^{-1} = base_b /
    base_a across every overlap sample point, the factor being
    translation_factor.  A residual above tolerance raises GluingError
    (an inequivalent lift fails here), and so does a square identity
    above its bound; a NaN fails each, as the guards are negated
    comparisons.
    """
    bound = check_bound(get_tolerances())
    nerve = data.nerve
    if base_values is None:
        base_values = np.ones(len(nerve.sites), dtype=complex)
    factor = translation_factor(z1.roots, z2.roots, data.blocks["detA"])
    a, b = nerve.ends.T
    residuals = rel_residual(base_values[a] * factor, base_values[b])
    res = residuals.tolist()
    bad = {(*nerve.keys[nerve.comp[r]], nerve.ids[r]): res[r]
           for r in np.flatnonzero(~(residuals <= bound)).tolist()}
    if bad:
        raise GluingError("square-root datum does not glue", bad)
    dt = DeltaTildeData(base=base_values, residuals=residuals)
    # squared identity against the delta samples
    sq_worst = worst(rel_residual(base_values * base_values, data.delta_samples))
    dt.checks["square_identity"] = sq_worst
    if not sq_worst <= bound:
        raise GluingError("square identity fails", {"square": sq_worst})
    return dt


def self_compat(data: PolarizationPairData, z1: Cocycle) -> DeltaTildeData:
    """Self-compatibility: diagonal pair data admits a square-root datum.

    The delta samples must be real of one constant sign; with
    delta = e^{i pi eps} |delta| the base value e^{i pi eps/2}
    |delta|^{1/2} glues along the diagonal lift (z1, z1).  Returns the
    built datum with its epsilon.  Its normalized variant, the base
    values times e^{-i pi eps/2}, is |delta|^{1/2} > 0, and a diagonal
    translation multiplies it by |z|^2 / |det A| > 0, so it is positive
    real on equal meta frames.
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
    dt = build_delta_tilde(data, z1, z1, base_values=phase * np.abs(delta) ** 0.5)
    dt.epsilon = eps
    return dt
