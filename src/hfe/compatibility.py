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
from typing import Optional, Sequence

import numpy as np

from . import cech
from .cech import Cocycle, Nerve, PointIndex
from .config import check_bound, get_tolerances, property_bound, zero_bound
from .errors import (
    GluingError,
    SingularityError,
    TheoremFalsification,
    ValidationError,
)
from .groups import subgroup_classify
from .sampling import random_mlkd_stack

# seeded random draws per chart in the translation-law and positivity checks
_DRAWS_PER_CHART = 20


class PolarizationPairData:
    """Čech data of a compatible pair of polarizations: the Glkd pair
    cocycle and the (R,) complex stack of the pairing determinant delta at
    every chart row of the nerve's point index."""

    def __init__(self, nerve: Nerve, pair_cocycle: Cocycle, delta_samples: np.ndarray,
                 n: int, k: int):
        if pair_cocycle.group != "Glkd":
            raise ValidationError("pair cocycle must be Glkd-valued")
        rows = len(nerve.point_index.sites)
        if np.shape(delta_samples) != (rows,):
            raise ValidationError(f"expected delta samples at {rows} chart rows, "
                                  f"got shape {np.shape(delta_samples)}")
        self.nerve = nerve
        self.pair_cocycle = pair_cocycle
        self.delta_samples = delta_samples
        self.n = n
        self.k = k


def validate_pair_data(data: PolarizationPairData) -> dict:
    """Check shared-A membership, nonzero delta samples, and the
    transformation consistency of the delta samples across overlaps;
    with k == n, that every delta sample is 1."""
    tols = get_tolerances()
    failures = []
    max_res = 0.0
    index = data.nerve.point_index
    pairs = data.pair_cocycle.mats
    blocks = subgroup_classify(pairs[:, 0], pairs[:, 1], data.k)
    # conj(det D1) det D2, the pairing-determinant transformation
    ones = [1.0] * len(pairs)
    d1 = np.linalg.det(blocks["D1"]) if data.k < data.n else ones
    d2 = np.linalg.det(blocks["D2"]) if data.k < data.n else ones
    delta, ends = data.delta_samples.tolist(), index.ends.tolist()
    for (pair, ci), rows in index.components.items():
        for r in rows:
            pt = index.points[r]
            a, b = ends[r]
            da, db = delta[a], delta[b]
            if min(abs(da), abs(db)) <= tols.singular:
                raise SingularityError(f"delta sample vanishes at {pt.id}")
            expected = da * complex(np.conj(d1[r]) * d2[r])
            res = abs(db - expected) / max(1.0, abs(expected))
            max_res = max(max_res, res)
            if res > check_bound(tols):
                failures.append(("delta-consistency", pair, ci, pt.id, res))
    if data.k == data.n:
        # delta is an empty determinant: every sample must be 1
        for (chart, pt), d in zip(index.sites, delta):
            res = abs(d - 1.0)
            max_res = max(max_res, res)
            if res > check_bound(tols):
                failures.append(("delta-consistency", chart, pt.id, res))
    base = cech.validate_cocycle(data.nerve, data.pair_cocycle)
    if not base["ok"]:
        failures.extend(base["failures"])
    return {"ok": not failures,
            "max_residual": max(max_res, base["max_residual"]),
            "failures": failures}


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
    tols = get_tolerances()
    n, k = data.n, data.k
    if k == n:
        # delta is an empty determinant, identically 1 already
        return data
    delta = data.delta_samples.tolist()
    G1, G2 = data.pair_cocycle.mats[:, 0], data.pair_cocycle.mats[:, 1]
    va, vb_inv = [], []
    for a, b in data.nerve.point_index.ends.tolist():
        if min(abs(delta[a]), abs(delta[b])) <= tols.singular:
            raise SingularityError("delta sample vanishes")
        va.append(delta[a])
        vb_inv.append(1.0 / delta[b])
    G2 = _diag_changes(va, n) @ G2 @ _diag_changes(vb_inv, n)
    return PolarizationPairData(
        nerve=data.nerve,
        pair_cocycle=Cocycle("Glkd", n, k, np.stack([G1, G2], axis=1)),
        delta_samples=np.ones(len(delta), dtype=complex),
        n=n,
        k=k,
    )


def _require_normalized(data: PolarizationPairData) -> None:
    """Raise ValidationError unless the delta sample at every overlap
    point is 1."""
    bound = check_bound(get_tolerances())
    delta = data.delta_samples[data.nerve.point_index.ends].ravel().tolist()
    if any(abs(d - 1.0) > bound for d in delta):
        raise ValidationError("data not normalized (delta sample != 1)")


def induce_compatible(data: PolarizationPairData, z1: Cocycle) -> Cocycle:
    """Induce the compatible metalinear cocycle for the second member.

    z2 = |det A| / conj(z1) per sample point, after checking the premise
    conj(det g1) det g2 det(A)^{-2} = 1 of normalized compatible data.
    """
    if z1.group != "Ml":
        raise ValidationError("z1 must be an Ml cocycle")
    _require_normalized(data)
    tols = get_tolerances()
    index = data.nerve.point_index
    G1, G2 = data.pair_cocycle.mats[:, 0], data.pair_cocycle.mats[:, 1]
    blocks = subgroup_classify(G1, G2, data.k)
    detA = np.linalg.det(blocks["A"]) if data.k else [1.0] * len(G1)
    d1, d2 = np.linalg.det(G1), np.linalg.det(G2)
    L = z1.mats
    axes = (-2, -1)
    off = np.max(np.abs(L - G1), axis=axes, initial=0.0)
    off_bound = zero_bound(tols) * np.maximum(1.0, np.max(np.abs(L), axis=axes,
                                                       initial=0.0))
    z2 = []
    for r, (dA, x) in enumerate(zip(detA, z1.roots.tolist())):
        premise = np.conj(d1[r]) * d2[r] / (dA * dA)
        if abs(premise - 1.0) > property_bound(tols):
            raise ValidationError(
                f"premise violated at {index.points[r].id}: "
                f"conj(det g1) det g2 / det(A)^2 = {premise}"
            )
        if off[r] > off_bound[r]:
            raise ValidationError("z1 does not lift the first member")
        z2.append(abs(dA) / np.conj(x))
    out = Cocycle.ml(data.n, data.k, G2, z2)
    report = cech.validate_cocycle(data.nerve, out)
    if not report["ok"]:
        raise ValidationError(f"induced lift fails cocycle validation: "
                              f"{report['failures'][:3]}")
    return out


class DeltaTildeData:
    """The global square-root datum.

    Stored as base values, the (R,) stack of its value at every chart
    row of the nerve's point index, plus the group-translation formula:
    the value at a point translated by a metalinear pair (gt1, gt2) is
    base * conj(z1) z2 |det A|^{-1}.  residuals holds the gluing residual
    of every overlap row.
    """

    def __init__(self, base: np.ndarray, k: int, residuals: Optional[np.ndarray] = None,
                 epsilon: Optional[int] = None):
        self.base = base
        self.k = k
        self.residuals = np.zeros(0) if residuals is None else residuals
        self.checks: dict = {}
        self.epsilon = epsilon


class Translations:
    """Seeded metalinear pairs ((M1[p], z1[p]), (M2[p], z2[p])) checked as
    Mlkd pairs: the stacks M1, M2 (m, n, n), their roots, det A of their
    shared blocks, and the chart row each pair translates."""

    def __init__(self, rows: list[int], M1: np.ndarray, M2: np.ndarray,
                 z1: list[complex], z2: list[complex], detA: np.ndarray | list[float]):
        self.rows = rows
        self.M1 = M1
        self.M2 = M2
        self.z1 = z1
        self.z2 = z2
        self.detA = detA


def draw_translations(rng: np.random.Generator, n: int, k: int, rows: Sequence[int],
                      diagonal: bool = False) -> Translations:
    """One seeded random metalinear pair per chart row of rows, or
    (diagonal) one element taken twice, drawn as one stack by
    random_mlkd_stack and checked as Mlkd pairs."""
    M1, z1, M2, z2 = random_mlkd_stack(rng, len(rows), n, k, diagonal)
    z1, z2 = z1.tolist(), z2.tolist()
    blocks = subgroup_classify(M1, M2, k, z1, z2)
    detA = np.linalg.det(blocks["A"]) if k else [1.0] * len(rows)
    return Translations(list(rows), M1, M2, z1, z2, detA)


def _chart_draws(index: PointIndex, rng: np.random.Generator) -> list[int]:
    """_DRAWS_PER_CHART seeded chart rows per chart, drawn from the
    chart's draw population (see PointIndex) by one integers call per
    chart."""
    return [population[i] for population in index.draws.values()
            for i in rng.integers(len(population), size=_DRAWS_PER_CHART).tolist()]


def _check_translation_law(
    dt: DeltaTildeData,
    data: PolarizationPairData,
    rng: np.random.Generator,
) -> float:
    """Squared identity under random metalinear-pair translations.

    The square of the translated value must be delta at the translated
    pair, i.e. delta * conj(det g1) det g2 det(A)^{-2}.
    """
    t = draw_translations(rng, data.n, data.k, _chart_draws(data.nerve.point_index, rng))
    ones = [1.0] * len(t.rows)
    d1 = np.linalg.det(t.M1) if data.n else ones
    d2 = np.linalg.det(t.M2) if data.n else ones
    base, delta = dt.base.tolist(), data.delta_samples.tolist()
    worst = 0.0
    for r, x1, x2, dA, e1, e2 in zip(t.rows, t.z1, t.z2, t.detA, d1, d2):
        # the value translated by (m1, m2), sharing one classification
        val = base[r] * np.conj(x1) * x2 / abs(dA)
        target = delta[r] * np.conj(e1) * e2 / (dA * dA)
        worst = max(worst, abs(val * val - target) / max(1.0, abs(target)))
    return worst


def build_delta_tilde(
    data: PolarizationPairData,
    z1: Cocycle,
    z2: Cocycle,
    rng: Optional[np.random.Generator] = None,
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
    tols = get_tolerances()
    index = data.nerve.point_index
    if base_values is None:
        _require_normalized(data)
        base_values = np.ones(len(index.sites), dtype=complex)
    l1, l2 = z1.roots.tolist(), z2.roots.tolist()
    blocks = subgroup_classify(z1.mats, z2.mats, data.k, l1, l2)
    detA = np.linalg.det(blocks["A"]) if data.k else [1.0] * len(l1)
    base, ends = base_values.tolist(), index.ends.tolist()
    residuals, bad = [], {}
    for (pair, ci), rows in index.components.items():
        for r in rows:
            a, b = ends[r]
            factor = np.conj(l1[r]) * l2[r] / abs(detA[r])
            res = abs(base[a] * factor - base[b]) / max(1.0, abs(base[b]))
            residuals.append(res)
            if res > check_bound(tols):
                bad[(pair, ci, index.points[r].id)] = res
    if bad:
        raise GluingError("square-root datum does not glue", bad)
    dt = DeltaTildeData(base=base_values, k=data.k, residuals=np.array(residuals))
    # squared identity against the delta samples
    sq_worst = 0.0
    for v, d in zip(base, data.delta_samples.tolist()):
        sq_worst = max(sq_worst, abs(v * v - d) / max(1.0, abs(d)))
    dt.checks["square_identity"] = sq_worst
    if sq_worst > check_bound(tols):
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


def self_compat(
    data: PolarizationPairData, z1: Cocycle,
    rng: Optional[np.random.Generator] = None,
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
    # real, constant-sign delta samples
    delta = data.delta_samples.tolist()
    sign = None
    for d in delta:
        if abs(d.imag) > zero_bound(tols) * max(1.0, abs(d)):
            raise ValidationError("delta samples not real")
        s = 1 if d.real > 0 else -1
        if sign is None:
            sign = s
        elif sign != s:
            raise ValidationError("delta sign not constant")
    eps = 1 if sign == -1 else 0
    phase = cmath.exp(1j * cmath.pi * eps / 2.0)

    bases = [phase * abs(d) ** 0.5 for d in delta]
    dt = build_delta_tilde(data, z1, z1, rng=None, base_values=np.array(bases))
    dt.epsilon = eps
    dt.checks["epsilon"] = eps
    if rng is not None:
        dt.checks["translation_law"] = _check_translation_law(dt, data, rng)

    dt_norm = DeltaTildeData(base=np.array([v / phase for v in bases]), k=data.k,
                             epsilon=eps)
    # positivity on equal meta frames: translating by a diagonal
    # metalinear pair multiplies by |z|^2 / |det A| > 0
    if rng is not None:
        worst_imag, min_real = 0.0, float("inf")
        t = draw_translations(rng, data.n, data.k,
                              _chart_draws(data.nerve.point_index, rng), diagonal=True)
        norm = dt_norm.base.tolist()
        for r, x, dA in zip(t.rows, t.z1, t.detA):
            # the value translated by (m, m), sharing one classification
            val = norm[r] * np.conj(x) * x / abs(dA)
            worst_imag = max(worst_imag, abs(val.imag))
            min_real = min(min_real, val.real)
        dt_norm.checks["positivity_imag"] = worst_imag
        dt_norm.checks["positivity_min_real"] = min_real
        if worst_imag > check_bound(tols) or min_real <= 0:
            raise TheoremFalsification(
                "normalized self-compatibility value not positive real"
            )
    return dt, dt_norm
