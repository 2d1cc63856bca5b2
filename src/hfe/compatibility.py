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
from typing import Callable, Optional

import numpy as np

from . import cech
from .cech import Cocycle, Nerve, SamplePoint
from .config import get_tolerances
from .errors import (
    GluingError,
    SingularityError,
    TheoremFalsification,
    ValidationError,
)
from .groups import MlElement, subgroup_classify
from .sampling import random_mlkd

# seeded random draws per chart in the translation-law and positivity checks
_DRAWS_PER_CHART = 20


@dataclass(frozen=True)
class PolarizationPairData:
    """Čech data of a compatible pair of polarizations."""

    nerve: Nerve
    pair_cocycle: Cocycle  # Glkd-valued
    delta_samples: dict[str, Callable[[SamplePoint], complex]]
    n: int
    k: int

    def __post_init__(self):
        if self.pair_cocycle.group != "Glkd":
            raise ValidationError("pair cocycle must be Glkd-valued")
        for ch in self.nerve.charts:
            if ch not in self.delta_samples:
                raise ValidationError(f"missing delta samples for chart {ch}")


def _pair_blocks(data: PolarizationPairData, pair, comp: int, pt: SamplePoint):
    g1, g2 = data.pair_cocycle.transitions[pair][comp](pt)
    tag = subgroup_classify((np.asarray(g1, complex), np.asarray(g2, complex)),
                            data.k)
    return np.asarray(g1, complex), np.asarray(g2, complex), tag.blocks


def _transformation_factor(blocks: dict) -> complex:
    """conj(det D1) det D2 — the pairing-determinant transformation."""
    d1 = np.linalg.det(blocks["D1"]) if blocks["D1"].size else 1.0
    d2 = np.linalg.det(blocks["D2"]) if blocks["D2"].size else 1.0
    return complex(np.conj(d1) * d2)


def validate_pair_data(data: PolarizationPairData) -> dict:
    """Check shared-A membership, nonzero delta samples, and the
    transformation consistency of the delta samples across overlaps."""
    tols = get_tolerances()
    failures = []
    max_res = 0.0
    for pair in sorted(data.nerve.overlaps):
        a, b = pair
        for ci, comp in enumerate(data.nerve.overlaps[pair]):
            for pt in comp.points:
                _, _, blocks = _pair_blocks(data, pair, ci, pt)
                da = complex(data.delta_samples[a](pt))
                db = complex(data.delta_samples[b](pt))
                if min(abs(da), abs(db)) <= tols.singular:
                    raise SingularityError(f"delta sample vanishes at {pt.id}")
                expected = da * _transformation_factor(blocks)
                r = abs(db - expected) / max(1.0, abs(expected))
                max_res = max(max_res, r)
                if r > 1e3 * tols.rel:
                    failures.append(("delta-consistency", pair, ci, pt.id, r))
    base = cech.validate_cocycle(data.nerve, data.pair_cocycle)
    if not base["ok"]:
        failures.extend(base["failures"])
    return {"ok": not failures,
            "max_residual": max(max_res, base["max_residual"]),
            "failures": failures}


def _diag_change(delta_value: complex, n: int, k: int) -> np.ndarray:
    """The section-change matrix: identity with one diagonal element set
    to the delta value (in the last slot of the D-block)."""
    m = np.eye(n, dtype=complex)
    m[n - 1, n - 1] = delta_value
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

    def conjugated(pair, ci):
        a, b = pair
        fn = data.pair_cocycle.transitions[pair][ci]
        da = data.delta_samples[a]
        db = data.delta_samples[b]

        def new_fn(pt, fn=fn, da=da, db=db):
            g1, g2 = fn(pt)
            va, vb = complex(da(pt)), complex(db(pt))
            if min(abs(va), abs(vb)) <= tols.singular:
                raise SingularityError("delta sample vanishes")
            h_a = _diag_change(va, n, k)
            h_b_inv = _diag_change(1.0 / vb, n, k)
            return np.asarray(g1, complex), h_a @ np.asarray(g2, complex) @ h_b_inv

        return new_fn

    new_transitions = {
        pair: tuple(conjugated(pair, ci) for ci in range(len(fns)))
        for pair, fns in data.pair_cocycle.transitions.items()
    }
    return PolarizationPairData(
        nerve=data.nerve,
        pair_cocycle=Cocycle("Glkd", n, k, new_transitions),
        delta_samples={ch: (lambda pt: 1.0 + 0j) for ch in data.nerve.charts},
        n=n,
        k=k,
    )


def _chart_sample_points(data: PolarizationPairData, ch: str) -> list[SamplePoint]:
    """Overlap sample points of a chart, or a fallback origin point for
    charts that meet no overlap (single-chart nerves)."""
    pts = [
        pt
        for pair in sorted(data.nerve.overlaps)
        if ch in pair
        for comp in data.nerve.overlaps[pair]
        for pt in comp.points
    ]
    return pts or [SamplePoint("origin", ())]


def _require_normalized(data: PolarizationPairData) -> None:
    tols = get_tolerances()
    for ch in data.nerve.charts:
        fn = data.delta_samples[ch]
        for pair in sorted(data.nerve.overlaps):
            if ch not in pair:
                continue
            for comp in data.nerve.overlaps[pair]:
                for pt in comp.points:
                    if abs(complex(fn(pt)) - 1.0) > 1e3 * tols.rel:
                        raise ValidationError(
                            "data not normalized (delta sample != 1)"
                        )


def induce_compatible(data: PolarizationPairData, z1: Cocycle) -> Cocycle:
    """Induce the compatible metalinear cocycle for the second member.

    z2 = |det A| / conj(z1) per sample point, after checking the premise
    conj(det g1) det g2 det(A)^{-2} = 1 of normalized compatible data.
    """
    if z1.group != "Ml":
        raise ValidationError("z1 must be an Ml cocycle")
    _require_normalized(data)
    tols = get_tolerances()

    def induced(pair, ci):
        fn = data.pair_cocycle.transitions[pair][ci]
        lift = z1.transitions[pair][ci]

        def new_fn(pt, fn=fn, lift=lift):
            g1, g2 = fn(pt)
            tag = subgroup_classify(
                (np.asarray(g1, complex), np.asarray(g2, complex)), data.k
            )
            detA = np.linalg.det(tag.blocks["A"]) if data.k else 1.0
            d1 = np.linalg.det(np.asarray(g1, complex))
            d2 = np.linalg.det(np.asarray(g2, complex))
            premise = np.conj(d1) * d2 / (detA * detA)
            if abs(premise - 1.0) > 1e4 * tols.rel:
                raise ValidationError(
                    f"premise violated at {pt.id}: "
                    f"conj(det g1) det g2 / det(A)^2 = {premise}"
                )
            l1 = lift(pt)
            if np.max(np.abs(l1.A - np.asarray(g1, complex))) > 1e3 * tols.abs * max(
                1.0, float(np.max(np.abs(l1.A)))
            ):
                raise ValidationError("z1 does not lift the first member")
            z2 = abs(detA) / np.conj(l1.z)
            return MlElement(np.asarray(g2, complex), z2)

        return new_fn

    out = Cocycle(
        "Ml",
        data.n,
        data.k,
        {
            pair: tuple(induced(pair, ci) for ci in range(len(fns)))
            for pair, fns in data.pair_cocycle.transitions.items()
        },
    )
    report = cech.validate_cocycle(data.nerve, out)
    if not report["ok"]:
        raise ValidationError(f"induced lift fails cocycle validation: "
                              f"{report['failures'][:3]}")
    return out


@dataclass
class DeltaTildeData:
    """The global square-root datum.

    Stored as per-chart base values plus the group-translation formula:
    the value at a point translated by a metalinear pair (gt1, gt2) is
    base * conj(z1) z2 |det A|^{-1}.
    """

    base: dict[str, Callable[[SamplePoint], complex]]
    k: int
    residuals: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    epsilon: Optional[int] = None

    def value(self, chart: str, pt: SamplePoint,
              mlkd: Optional[tuple[MlElement, MlElement]] = None) -> complex:
        v = complex(self.base[chart](pt))
        if mlkd is None:
            return v
        tag = subgroup_classify(tuple(mlkd), self.k)
        detA = np.linalg.det(tag.blocks["A"]) if self.k else 1.0
        return v * np.conj(mlkd[0].z) * mlkd[1].z / abs(detA)


def _check_translation_law(
    dt: DeltaTildeData,
    data: PolarizationPairData,
    rng: np.random.Generator,
) -> float:
    """Squared identity under random metalinear-pair translations.

    The square of the translated value must be delta at the translated
    pair, i.e. delta * conj(det g1) det g2 det(A)^{-2}.
    """
    worst = 0.0
    for ch in data.nerve.charts:
        pts = _chart_sample_points(data, ch)
        for _ in range(_DRAWS_PER_CHART):
            pt = pts[int(rng.integers(len(pts)))]
            m1, m2 = random_mlkd(rng, data.n, data.k)
            # dt.value(ch, pt, (m1, m2)), sharing one classification
            tag = subgroup_classify((m1, m2), data.k)
            detA = np.linalg.det(tag.blocks["A"]) if data.k else 1.0
            val = dt.value(ch, pt) * np.conj(m1.z) * m2.z / abs(detA)
            d1 = np.linalg.det(m1.A) if data.n else 1.0
            d2 = np.linalg.det(m2.A) if data.n else 1.0
            delta0 = complex(data.delta_samples[ch](pt))
            target = delta0 * np.conj(d1) * d2 / (detA * detA)
            worst = max(worst, abs(val * val - target) / max(1.0, abs(target)))
    return worst


def build_delta_tilde(
    data: PolarizationPairData,
    z1: Cocycle,
    z2: Cocycle,
    rng: Optional[np.random.Generator] = None,
    base_values: Optional[dict[str, Callable[[SamplePoint], complex]]] = None,
) -> DeltaTildeData:
    """Glue the global square-root datum from per-chart base values.

    With normalized data the base value is 1 on every chart; gluing
    requires conj(z1) z2 |det A|^{-1} = base_b / base_a across every
    overlap sample point.  A residual above tolerance raises GluingError
    (this is the uniqueness detector).
    """
    tols = get_tolerances()
    if base_values is None:
        _require_normalized(data)
        base_values = {ch: (lambda pt: 1.0 + 0j) for ch in data.nerve.charts}
    dt = DeltaTildeData(base=base_values, k=data.k)
    bad = {}
    for pair in sorted(data.nerve.overlaps):
        a, b = pair
        for ci, comp in enumerate(data.nerve.overlaps[pair]):
            for pt in comp.points:
                l1 = z1.transitions[pair][ci](pt)
                l2 = z2.transitions[pair][ci](pt)
                tag = subgroup_classify((l1, l2), data.k)
                detA = np.linalg.det(tag.blocks["A"]) if data.k else 1.0
                factor = np.conj(l1.z) * l2.z / abs(detA)
                lhs = complex(base_values[a](pt)) * factor
                rhs = complex(base_values[b](pt))
                r = abs(lhs - rhs) / max(1.0, abs(rhs))
                dt.residuals[(pair, ci, pt.id)] = r
                if r > 1e3 * tols.rel:
                    bad[(pair, ci, pt.id)] = r
    if bad:
        raise GluingError("square-root datum does not glue", bad)
    # squared identity against the delta samples
    sq_worst = 0.0
    for ch in data.nerve.charts:
        for pt in _chart_sample_points(data, ch):
            v = dt.value(ch, pt)
            d = complex(data.delta_samples[ch](pt))
            sq_worst = max(sq_worst, abs(v * v - d) / max(1.0, abs(d)))
    dt.checks["square_identity"] = sq_worst
    if sq_worst > 1e3 * tols.rel:
        raise GluingError("square identity fails", {"square": sq_worst})
    if rng is not None:
        dt.checks["translation_law"] = _check_translation_law(dt, data, rng)
    return dt


def verify_uniqueness(
    data: PolarizationPairData, z1: Cocycle, z2a: Cocycle, z2b: Cocycle,
    rng: Optional[np.random.Generator] = None,
    base_a: Optional[dict[str, Callable]] = None,
    base_b: Optional[dict[str, Callable]] = None,
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
    for pair in sorted(data.nerve.overlaps):
        for ci, comp in enumerate(data.nerve.overlaps[pair]):
            for pt in comp.points:
                g1, g2 = data.pair_cocycle.transitions[pair][ci](pt)
                if np.max(np.abs(np.asarray(g1) - np.asarray(g2))) > 1e3 * tols.abs:
                    raise ValidationError("pair cocycle is not diagonal")
    # real, constant-sign delta samples
    sign = None
    for ch in data.nerve.charts:
        for pt in _chart_sample_points(data, ch):
            d = complex(data.delta_samples[ch](pt))
            if abs(d.imag) > 1e3 * tols.abs * max(1.0, abs(d)):
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

    def base_for(ch):
        fn = data.delta_samples[ch]
        return lambda pt, fn=fn: phase * abs(complex(fn(pt))) ** 0.5

    bases = {ch: base_for(ch) for ch in data.nerve.charts}
    dt = build_delta_tilde(data, z1, z1, rng=None, base_values=bases)
    dt.epsilon = eps
    dt.checks["epsilon"] = eps
    if rng is not None:
        dt.checks["translation_law"] = _check_translation_law(dt, data, rng)

    norm_bases = {
        ch: (lambda pt, fn=bases[ch]: fn(pt) / phase) for ch in data.nerve.charts
    }
    dt_norm = DeltaTildeData(base=norm_bases, k=data.k, epsilon=eps)
    # positivity on equal meta frames: translating by a diagonal
    # metalinear pair multiplies by |z|^2 / |det A| > 0
    if rng is not None:
        worst_imag, min_real = 0.0, float("inf")
        for ch in data.nerve.charts:
            pts = _chart_sample_points(data, ch)
            for _ in range(_DRAWS_PER_CHART):
                pt = pts[int(rng.integers(len(pts)))]
                m, _ = random_mlkd(rng, data.n, data.k)
                val = dt_norm.value(ch, pt, (m, m))
                worst_imag = max(worst_imag, abs(val.imag))
                min_real = min(min_real, val.real)
        dt_norm.checks["positivity_imag"] = worst_imag
        dt_norm.checks["positivity_min_real"] = min_real
        if worst_imag > 1e3 * tols.rel or min_real <= 0:
            raise TheoremFalsification(
                "normalized self-compatibility value not positive real"
            )
    return dt, dt_norm
