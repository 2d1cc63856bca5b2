import cmath
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfe.cech import Cocycle
from hfe.compatibility import (
    PolarizationPairData,
    build_delta_tilde,
    induce_compatible,
    normalize_sections,
    self_compat,
    validate_pair_data,
)
from hfe.errors import GluingError, ValidationError
from hfe.groups import subgroup_classify, translation_factor
from hfe.nerve import Nerve
from hfe.pipelines import run_scenario
from hfe.scenario import builtin_scenario_path, evaluate_cocycle

from helpers import component, nerve_doc, per_point, random_mlkd_stack


def circle_nerve():
    return Nerve(nerve_doc("ab", {("a", "b"): [component([("east", (0.0,))]),
                                               component([("west", (1.0,))])]}))


SITES = circle_nerve().sites


def _samples(**fns):
    """The values fns[chart](point id) at every chart row of the circle
    nerve, as a stack."""
    return np.array([fns[ch](pid) for ch, pid in SITES], dtype=complex)


def _row(chart, point):
    """The chart row of a point of a chart of the circle nerve."""
    return SITES.index((chart, point))


def _pair_fn(g2):
    g2 = np.array(g2, dtype=complex)
    eye = np.eye(len(g2), dtype=complex)
    return per_point(lambda *_: (eye, g2))


def circle_pair_data(g2_west=((1j, 0.0), (0.0, 1.0))):
    """Two-chart, two-component pair data with a twisted west transition."""
    n = len(g2_west)
    nerve = circle_nerve()
    pair_c = evaluate_cocycle(
        "Glkd", n, 0, nerve,
        [_pair_fn(np.eye(n)), _pair_fn(g2_west)],
    )
    d2 = complex(np.linalg.det(np.array(g2_west, dtype=complex)))

    def delta_b(pid):
        return 2.0 * d2 if pid == "west" else 2.0

    return PolarizationPairData(nerve, pair_c, _samples(a=lambda pid: 2.0 + 0j, b=delta_b))


def identity_lift(n):
    """The Ml cocycle (1, 1) on both components of the circle nerve."""
    return Cocycle.ml(n, 0, [np.eye(n)] * 2, [1.0, 1.0])


def _flip(c, comp_indices):
    """Flip the root sheet of an Ml cocycle on the given components (each
    component of the circle nerve has one point, so one row)."""
    return Cocycle.ml(c.n, c.k, c.mats, [-z if ci in comp_indices else z
                                         for ci, z in enumerate(c.roots.tolist())])


def test_validate_pair_data_accepts_consistent():
    out = validate_pair_data(circle_pair_data())
    assert out["ok"] and out["max_residual"] < 1e-12


def test_validate_pair_data_flags_inconsistent_delta():
    data = circle_pair_data()
    bad = PolarizationPairData(
        data.nerve, data.pair_cocycle,
        _samples(a=lambda pid: 2.0 + 0j, b=lambda pid: 2.0 + 0j),
    )
    out = validate_pair_data(bad)
    assert not out["ok"]
    assert any(f[0] == "delta-consistency" for f in out["failures"])


def test_normalize_makes_delta_one_and_keeps_consistency():
    norm = normalize_sections(circle_pair_data())
    assert norm.delta_samples.tolist() == [1.0] * len(SITES)
    out = validate_pair_data(norm)
    assert out["ok"]
    # the normalized second member has unit premise factor
    _, g2 = norm.pair_cocycle.mats[1]  # the row of west
    assert abs(np.conj(1.0) * np.linalg.det(g2) - 1.0) < 1e-12


def test_induce_requires_normalized_data():
    with pytest.raises(ValidationError):
        induce_compatible(circle_pair_data(), identity_lift(2))


def test_induce_rejects_premise_violation():
    # data that claims to be normalized but whose second member has a
    # non-unit determinant factor
    nerve = circle_nerve()
    pair_c = evaluate_cocycle(
        "Glkd", 2, 0, nerve,
        [_pair_fn(np.eye(2)), _pair_fn(np.diag([2.0, 1.0]))],
    )
    data = PolarizationPairData(
        nerve, pair_c,
        _samples(a=lambda pid: 1.0 + 0j, b=lambda pid: 1.0 + 0j),
    )
    with pytest.raises(ValidationError):
        induce_compatible(data, identity_lift(2))


def test_induce_and_glue_roundtrip():
    norm = normalize_sections(circle_pair_data())
    z1 = identity_lift(2)
    z2, _ = induce_compatible(norm, z1)
    for A, z in zip(z2.mats, z2.roots):
        assert abs(z * z - np.linalg.det(A)) < 1e-12
    dt = build_delta_tilde(norm, z1, z2)
    assert max(dt.residuals) < 1e-12
    assert dt.checks["square_identity"] < 1e-10
    assert abs(dt.base[_row("a", "east")] - 1.0) < 1e-12


def test_flipped_lift_fails_to_glue():
    norm = normalize_sections(circle_pair_data())
    z1 = identity_lift(2)
    z2, _ = induce_compatible(norm, z1)
    with pytest.raises(GluingError) as exc:
        build_delta_tilde(norm, z1, _flip(z2, {1}))
    assert exc.value.residuals  # the offending points are reported


def test_nan_base_value_fails_to_glue_at_its_point():
    # a NaN compares false with every bound, so each guard of
    # build_delta_tilde is a negated comparison
    norm = normalize_sections(circle_pair_data())
    z1 = identity_lift(2)
    z2, _ = induce_compatible(norm, z1)
    base = np.ones(len(SITES), dtype=complex)
    base[_row("b", "west")] = np.nan
    with pytest.raises(GluingError, match="does not glue") as exc:
        build_delta_tilde(norm, z1, z2, base_values=base)
    assert list(exc.value.residuals) == [(("a", "b"), 1, "west")]
    # a NaN delta sample leaves the gluing alone and fails the square identity
    nan_delta = PolarizationPairData(norm.nerve, norm.pair_cocycle,
                                     np.where(np.arange(len(SITES)) == _row("a", "east"),
                                              np.nan, norm.delta_samples))
    with pytest.raises(GluingError, match="square identity fails"):
        build_delta_tilde(nan_delta, z1, z2, base_values=np.ones(len(SITES), complex))


# The laws of the square-root datum are identities of the engine's
# formulas, not facts about a scenario, so no verification checks them;
# these tests do, over seeded Mlkd pairs of every n <= 4 and 0 <= k <= n.
_DIMS = st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
_SEEDS = st.integers(0, 2 ** 32 - 1)


def _close(x, target, rel=1e-10) -> bool:
    return bool(np.all(np.abs(x - target) <= rel * np.abs(target)))


@settings(max_examples=60, deadline=None)
@given(_DIMS, _SEEDS)
def test_translation_factor_obeys_the_translation_law(dims, seed):
    # a value v with v**2 = delta, translated by an Mlkd pair, squares to
    # delta at the translated pair: (v f)**2 = delta conj(det g1) det g2
    # / det(A)**2; a factor off by i (not by -1) breaks this
    n, k = dims
    rng = np.random.default_rng(seed)
    M1, z1, M2, z2 = random_mlkd_stack(rng, 16, n, k)
    detA = subgroup_classify(M1, M2, k)["detA"]
    delta = rng.uniform(-2.0, 2.0, 16) + 1j * rng.uniform(-2.0, 2.0, 16)
    v = rng.choice([1, -1], 16) * np.sqrt(delta)
    value = v * translation_factor(z1, z2, detA)
    law = np.conj(np.linalg.det(M1)) * np.linalg.det(M2) / (detA * detA)
    assert _close(value * value, delta * law)


def _diagonal_circle_data(rng, n: int, k: int, sign: float):
    """Diagonal pair data on the circle nerve from a diagonal Mlkd pair
    per overlap row, with real delta samples of one sign that obey the
    delta law, and the lift of its first members."""
    M, z, _, _ = random_mlkd_stack(rng, 2, n, k, diagonal=True)
    pair_c = Cocycle("Glkd", n, k, np.stack([M, M], axis=1))
    nerve = circle_nerve()
    a, b = nerve.ends.T
    detD = subgroup_classify(M, M, k)["detD1"]
    delta = np.empty(len(SITES), dtype=complex)
    delta[a] = sign * rng.uniform(0.5, 2.0, len(a))
    delta[b] = delta[a] * np.abs(detD) ** 2
    return PolarizationPairData(nerve, pair_c, delta), Cocycle.ml(n, k, M, z)


@settings(max_examples=60, deadline=None)
@given(_DIMS, _SEEDS, st.sampled_from([1.0, -1.0]))
def test_normalized_self_compat_values_are_positive_on_equal_frames(dims, seed, sign):
    # the normalized datum is |delta|^(1/2) > 0, and a diagonal pair
    # translates it by |z|**2 / |det A| > 0
    n, k = dims
    rng = np.random.default_rng(seed)
    data, z1 = _diagonal_circle_data(rng, n, k, sign)
    dt = self_compat(data, z1)
    assert dt.epsilon == (sign < 0)
    normalized = dt.base / cmath.exp(1j * cmath.pi * dt.epsilon / 2.0)
    M, z, _, _ = random_mlkd_stack(rng, len(SITES), n, k, diagonal=True)
    value = normalized * translation_factor(z, z, subgroup_classify(M, M, k)["detA"])
    assert np.all(value.real > 0)
    assert np.all(np.abs(value.imag) <= 1e-12 * np.abs(value))


def diagonal_pair_data(sign=1.0):
    """Diagonal pair data with real delta samples of one sign."""
    nerve = circle_nerve()
    g = np.array([[2.0]])
    pair_c = evaluate_cocycle(
        "Glkd", 1, 0, nerve,
        [per_point(lambda *_: (np.eye(1), np.eye(1))), per_point(lambda *_: (g, g))],
    )

    def delta_b(pid):
        return sign * (8.0 if pid == "west" else 2.0)

    return PolarizationPairData(nerve, pair_c,
                                _samples(a=lambda pid: sign * 2.0 + 0j, b=delta_b))


def _diagonal_lift():
    """The Ml cocycle of the diagonal pair data's first members, each
    with its principal root."""
    return Cocycle.ml(1, 0, [np.eye(1), [[2.0]]], [1.0, 2.0 ** 0.5])


def test_self_compat_positive_sign():
    dt = self_compat(diagonal_pair_data(1.0), _diagonal_lift())
    assert dt.epsilon == 0
    assert abs(dt.base[_row("a", "east")] ** 2 - 2.0) < 1e-12
    assert np.all(dt.base.real > 0) and np.all(dt.base.imag == 0)


def test_self_compat_negative_sign():
    dt = self_compat(diagonal_pair_data(-1.0), _diagonal_lift())
    assert dt.epsilon == 1
    v = dt.base[_row("b", "west")]
    assert abs(v * v + 8.0) < 1e-10
    normalized = dt.base / 1j
    assert np.all(normalized.real > 0) and np.all(np.abs(normalized.imag) < 1e-15)


def test_self_compat_rejects_nondiagonal():
    with pytest.raises(ValidationError):
        self_compat(circle_pair_data(), identity_lift(2))


def test_self_compat_rejects_nonreal_delta():
    data = diagonal_pair_data(1.0)
    bad = PolarizationPairData(
        data.nerve, data.pair_cocycle,
        _samples(a=lambda pid: 2.0j,
                 b=lambda pid: 2.0j if pid == "east" else 8.0j),
    )
    with pytest.raises(ValidationError):
        self_compat(bad, _diagonal_lift())


def test_overflowing_pair_transition_fails_the_delta_law():
    # conj(det D1) det D2 of the pair transition 1e308 overflows, so the
    # residual of the delta transformation law is NaN: a failure, not a
    # pass (a NaN compares false with its bound)
    doc = json.loads(builtin_scenario_path("circle_mobius").read_text())
    doc["pair_cocycle"]["transitions"][0]["generator"]["params"] = {
        "first": [[1e308]], "second": [[1e308]]}
    report = run_scenario(doc, pipelines=["validate"])
    check = next(c for c in report.checks if c.check_id == "pair_data.consistency")
    assert not check.passed
    assert [f[:4] for f in check.failures] == [("delta-consistency", ("0", "1"), 0, "east")]


def test_nan_delta_sample_fails_the_k_equals_n_test():
    # with k == n delta is an empty determinant, so every sample must be
    # 1; a NaN sample fails that test, whose guard is a negated
    # comparison (documents cannot reach it: loading rejects a NaN)
    nerve = Nerve(nerve_doc("a"))
    pair_c = evaluate_cocycle("Glkd", 1, 1, nerve, [])
    out = validate_pair_data(PolarizationPairData(nerve, pair_c, np.array([np.nan + 0j])))
    assert not out["ok"] and np.isnan(out["max_residual"])
    assert [f[:3] for f in out["failures"]] == [("delta-consistency", "a", "origin")]
    assert np.isnan(out["failures"][0][3])
