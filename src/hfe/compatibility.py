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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cech
from .cech import ORIGIN, Cocycle, Nerve, SamplePoint
from .config import check_bound, get_tolerances, property_bound, zero_bound
from .errors import (
    GluingError,
    SingularityError,
    TheoremFalsification,
    ValidationError,
)
from .groups import as_stack, classify_pairs
from .sampling import random_mlkd

# seeded random draws per chart in the translation-law and positivity checks
_DRAWS_PER_CHART = 20


@dataclass(frozen=True)
class PolarizationPairData:
    """Čech data of a compatible pair of polarizations."""

    nerve: Nerve
    pair_cocycle: Cocycle  # Glkd-valued
    delta_samples: dict[str, dict[str, complex]]  # chart -> point id -> delta
    n: int
    k: int

    def __post_init__(self):
        if self.pair_cocycle.group != "Glkd":
            raise ValidationError("pair cocycle must be Glkd-valued")
        for ch in self.nerve.charts:
            if ch not in self.delta_samples:
                raise ValidationError(f"missing delta samples for chart {ch}")


def validate_pair_data(data: PolarizationPairData) -> dict:
    """Check shared-A membership, nonzero delta samples, and the
    transformation consistency of the delta samples across overlaps."""
    tols = get_tolerances()
    failures = []
    max_res = 0.0
    index = data.nerve.point_index
    pairs = data.pair_cocycle.mats
    blocks = classify_pairs(pairs[:, 0], pairs[:, 1], data.k)
    # conj(det D1) det D2, the pairing-determinant transformation
    ones = [1.0] * len(pairs)
    d1 = np.linalg.det(blocks["D1"]) if data.k < data.n else ones
    d2 = np.linalg.det(blocks["D2"]) if data.k < data.n else ones
    for (pair, ci), rows in index.components.items():
        a, b = pair
        for r in rows:
            pt = index.points[r]
            da = complex(data.delta_samples[a][pt.id])
            db = complex(data.delta_samples[b][pt.id])
            if min(abs(da), abs(db)) <= tols.singular:
                raise SingularityError(f"delta sample vanishes at {pt.id}")
            expected = da * complex(np.conj(d1[r]) * d2[r])
            res = abs(db - expected) / max(1.0, abs(expected))
            max_res = max(max_res, res)
            if res > check_bound(tols):
                failures.append(("delta-consistency", pair, ci, pt.id, res))
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


def _ones(data: PolarizationPairData) -> dict[str, dict[str, complex]]:
    """The value 1 at every delta sample point."""
    return {ch: dict.fromkeys(data.delta_samples[ch], 1.0 + 0j)
            for ch in data.nerve.charts}


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
    index = data.nerve.point_index
    G1, G2 = data.pair_cocycle.mats[:, 0], data.pair_cocycle.mats[:, 1]
    va, vb_inv = [], []
    for (pair, _), rows in index.components.items():
        a, b = pair
        for r in rows:
            pt = index.points[r]
            v_a = complex(data.delta_samples[a][pt.id])
            v_b = complex(data.delta_samples[b][pt.id])
            if min(abs(v_a), abs(v_b)) <= tols.singular:
                raise SingularityError("delta sample vanishes")
            va.append(v_a)
            vb_inv.append(1.0 / v_b)
    G2 = _diag_changes(va, n) @ G2 @ _diag_changes(vb_inv, n)
    return PolarizationPairData(
        nerve=data.nerve,
        pair_cocycle=Cocycle("Glkd", n, k, np.stack([G1, G2], axis=1)),
        delta_samples=_ones(data),
        n=n,
        k=k,
    )


def _chart_sample_points(data: PolarizationPairData, ch: str) -> list[SamplePoint]:
    """Overlap sample points of a chart, or a fallback origin point for
    charts that meet no overlap (single-chart nerves)."""
    index = data.nerve.point_index
    return [index.points[r] for r in index.charts[ch]] or [ORIGIN]


def _require_normalized(data: PolarizationPairData) -> None:
    tols = get_tolerances()
    index = data.nerve.point_index
    for ch in data.nerve.charts:
        values = data.delta_samples[ch]
        for r in index.charts[ch]:
            if abs(complex(values[index.points[r].id]) - 1.0) > check_bound(tols):
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
    blocks = classify_pairs(G1, G2, data.k)
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


@dataclass
class DeltaTildeData:
    """The global square-root datum.

    Stored as per-chart base values (chart -> point id -> value) plus
    the group-translation formula: the value at a point translated by a
    metalinear pair (gt1, gt2) is base * conj(z1) z2 |det A|^{-1}.
    """

    base: dict[str, dict[str, complex]]
    k: int
    residuals: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    epsilon: Optional[int] = None

    def value(self, chart: str, pt: SamplePoint) -> complex:
        return complex(self.base[chart][pt.id])


def _draw_translations(data: PolarizationPairData, rng: np.random.Generator,
                       pairs: bool = True) -> list:
    """_DRAWS_PER_CHART seeded (chart, point, m1, m2) per chart: a random
    overlap sample point of the chart and a random metalinear pair, or
    (when pairs is False) the first member of one taken twice."""
    draws = []
    for ch in data.nerve.charts:
        pts = _chart_sample_points(data, ch)
        for _ in range(_DRAWS_PER_CHART):
            pt = pts[int(rng.integers(len(pts)))]
            m1, m2 = random_mlkd(rng, data.n, data.k)
            draws.append((ch, pt, m1, m2 if pairs else m1))
    return draws


def _translation_dets(draws: list, n: int, k: int):
    """det A of the shared blocks of the drawn metalinear pairs (checked
    as Mlkd pairs), and the stacks of their two members."""
    M1 = as_stack([m1.A for _, _, m1, _ in draws], n)
    M2 = as_stack([m2.A for _, _, _, m2 in draws], n)
    blocks = classify_pairs(M1, M2, k, [m1.z for _, _, m1, _ in draws],
                            [m2.z for _, _, _, m2 in draws])
    return (np.linalg.det(blocks["A"]) if k else [1.0] * len(draws)), M1, M2


def _check_translation_law(
    dt: DeltaTildeData,
    data: PolarizationPairData,
    rng: np.random.Generator,
) -> float:
    """Squared identity under random metalinear-pair translations.

    The square of the translated value must be delta at the translated
    pair, i.e. delta * conj(det g1) det g2 det(A)^{-2}.
    """
    draws = _draw_translations(data, rng)
    detA, M1, M2 = _translation_dets(draws, data.n, data.k)
    ones = [1.0] * len(draws)
    d1 = np.linalg.det(M1) if data.n else ones
    d2 = np.linalg.det(M2) if data.n else ones
    worst = 0.0
    for (ch, pt, m1, m2), dA, e1, e2 in zip(draws, detA, d1, d2):
        # the value translated by (m1, m2), sharing one classification
        val = dt.value(ch, pt) * np.conj(m1.z) * m2.z / abs(dA)
        delta0 = complex(data.delta_samples[ch][pt.id])
        target = delta0 * np.conj(e1) * e2 / (dA * dA)
        worst = max(worst, abs(val * val - target) / max(1.0, abs(target)))
    return worst


def build_delta_tilde(
    data: PolarizationPairData,
    z1: Cocycle,
    z2: Cocycle,
    rng: Optional[np.random.Generator] = None,
    base_values: Optional[dict[str, dict[str, complex]]] = None,
) -> DeltaTildeData:
    """Glue the global square-root datum from per-chart base values.

    With normalized data the base value is 1 on every chart; gluing
    requires conj(z1) z2 |det A|^{-1} = base_b / base_a across every
    overlap sample point.  A residual above tolerance raises GluingError
    (this is the uniqueness detector).  The pairs (z1, z2) of all points
    are classified as one stack.
    """
    tols = get_tolerances()
    if base_values is None:
        _require_normalized(data)
        base_values = _ones(data)
    dt = DeltaTildeData(base=base_values, k=data.k)
    index = data.nerve.point_index
    l1, l2 = z1.roots.tolist(), z2.roots.tolist()
    blocks = classify_pairs(z1.mats, z2.mats, data.k, l1, l2)
    detA = np.linalg.det(blocks["A"]) if data.k else [1.0] * len(l1)
    bad = {}
    for (pair, ci), rows in index.components.items():
        a, b = pair
        for r in rows:
            pt = index.points[r]
            factor = np.conj(l1[r]) * l2[r] / abs(detA[r])
            lhs = complex(base_values[a][pt.id]) * factor
            rhs = complex(base_values[b][pt.id])
            res = abs(lhs - rhs) / max(1.0, abs(rhs))
            dt.residuals[(pair, ci, pt.id)] = res
            if res > check_bound(tols):
                bad[(pair, ci, pt.id)] = res
    if bad:
        raise GluingError("square-root datum does not glue", bad)
    # squared identity against the delta samples
    sq_worst = 0.0
    for ch in data.nerve.charts:
        for pt in _chart_sample_points(data, ch):
            v = dt.value(ch, pt)
            d = complex(data.delta_samples[ch][pt.id])
            sq_worst = max(sq_worst, abs(v * v - d) / max(1.0, abs(d)))
    dt.checks["square_identity"] = sq_worst
    if sq_worst > check_bound(tols):
        raise GluingError("square identity fails", {"square": sq_worst})
    if rng is not None:
        dt.checks["translation_law"] = _check_translation_law(dt, data, rng)
    return dt


def verify_uniqueness(
    data: PolarizationPairData, z1: Cocycle, z2a: Cocycle, z2b: Cocycle,
    rng: Optional[np.random.Generator] = None,
    base_a: Optional[dict[str, dict[str, complex]]] = None,
    base_b: Optional[dict[str, dict[str, complex]]] = None,
) -> dict[str, int]:
    """Both candidates glue (precondition), hence must be equivalent.

    Each candidate may come with its own per-chart base values (gluing
    with the trivial base pins the cocycle down pointwise; the
    equivalence freedom lives in chart-sign base changes).  Delegates to
    the chart-sign coboundary solver; a failure contradicts the
    uniqueness theorem and raises TheoremFalsification.
    """
    build_delta_tilde(data, z1, z2a, rng, base_values=base_a)
    build_delta_tilde(data, z1, z2b, rng, base_values=base_b)
    witness = cech.lifts_equivalent(data.nerve, z2a, z2b)
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
    sign = None
    for ch in data.nerve.charts:
        for pt in _chart_sample_points(data, ch):
            d = complex(data.delta_samples[ch][pt.id])
            if abs(d.imag) > zero_bound(tols) * max(1.0, abs(d)):
                raise ValidationError("delta samples not real")
            s = 1 if d.real > 0 else -1
            if sign is None:
                sign = s
            elif sign != s:
                raise ValidationError("delta sign not constant")
    if sign is None:
        sign = 1
    eps = 0 if sign > 0 else 1
    phase = cmath.exp(1j * cmath.pi * eps / 2.0)

    bases = {ch: {pid: phase * abs(complex(d)) ** 0.5
                  for pid, d in data.delta_samples[ch].items()}
             for ch in data.nerve.charts}
    dt = build_delta_tilde(data, z1, z1, rng=None, base_values=bases)
    dt.epsilon = eps
    dt.checks["epsilon"] = eps
    if rng is not None:
        dt.checks["translation_law"] = _check_translation_law(dt, data, rng)

    norm_bases = {ch: {pid: v / phase for pid, v in bases[ch].items()}
                  for ch in data.nerve.charts}
    dt_norm = DeltaTildeData(base=norm_bases, k=data.k, epsilon=eps)
    # positivity on equal meta frames: translating by a diagonal
    # metalinear pair multiplies by |z|^2 / |det A| > 0
    if rng is not None:
        worst_imag, min_real = 0.0, float("inf")
        draws = _draw_translations(data, rng, pairs=False)
        detA, _, _ = _translation_dets(draws, data.n, data.k)
        for (ch, pt, m, _), dA in zip(draws, detA):
            # the value translated by (m, m), sharing one classification
            val = dt_norm.value(ch, pt) * np.conj(m.z) * m.z / abs(dA)
            worst_imag = max(worst_imag, abs(val.imag))
            min_real = min(min_real, val.real)
        dt_norm.checks["positivity_imag"] = worst_imag
        dt_norm.checks["positivity_min_real"] = min_real
        if worst_imag > check_bound(tols) or min_real <= 0:
            raise TheoremFalsification(
                "normalized self-compatibility value not positive real"
            )
    return dt, dt_norm
