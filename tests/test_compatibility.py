import json

import numpy as np
import pytest

from hfe.cech import Cocycle, Nerve
from hfe.compatibility import (
    PolarizationPairData,
    build_delta_tilde,
    induce_compatible,
    normalize_sections,
    self_compat,
    validate_pair_data,
    verify_uniqueness,
)
from hfe.errors import GluingError, TheoremFalsification, ValidationError
from hfe.pipelines import run_scenario
from hfe.scenario import builtin_scenario_path

from helpers import component, nerve_doc, per_point


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
    pair_c = Cocycle.evaluate(
        "Glkd", n, 0, nerve,
        [_pair_fn(np.eye(n)), _pair_fn(g2_west)],
    )
    d2 = complex(np.linalg.det(np.array(g2_west, dtype=complex)))

    def delta_b(pid):
        return 2.0 * d2 if pid == "west" else 2.0

    return PolarizationPairData(nerve, pair_c, _samples(a=lambda pid: 2.0 + 0j, b=delta_b))


def _ml_const(A, z):
    value = (np.array(A, dtype=complex), z)
    return per_point(lambda *_: value)


def identity_lift(n):
    return Cocycle.evaluate(
        "Ml", n, 0, circle_nerve(),
        [_ml_const(np.eye(n), 1.0), _ml_const(np.eye(n), 1.0)],
    )


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


def test_pair_data_requires_glkd():
    with pytest.raises(ValidationError):
        PolarizationPairData(
            circle_nerve(),
            Cocycle.evaluate("Gl", 1, 0, circle_nerve(),
                             [per_point(lambda *_: np.eye(1))] * 2),
            _samples(a=lambda pid: 1.0, b=lambda pid: 1.0),
        )


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


def test_induce_requires_ml_lift():
    norm = normalize_sections(circle_pair_data())
    gl = Cocycle.evaluate("Gl", 2, 0, norm.nerve,
                          [per_point(lambda *_: np.eye(2))] * 2)
    with pytest.raises(ValidationError):
        induce_compatible(norm, gl)


def test_induce_rejects_premise_violation():
    # data that claims to be normalized but whose second member has a
    # non-unit determinant factor
    nerve = circle_nerve()
    pair_c = Cocycle.evaluate(
        "Glkd", 2, 0, nerve,
        [_pair_fn(np.eye(2)), _pair_fn(np.diag([2.0, 1.0]))],
    )
    data = PolarizationPairData(
        nerve, pair_c,
        _samples(a=lambda pid: 1.0 + 0j, b=lambda pid: 1.0 + 0j),
    )
    with pytest.raises(ValidationError):
        induce_compatible(data, identity_lift(2))


def test_induce_and_glue_roundtrip(rng):
    norm = normalize_sections(circle_pair_data())
    z1 = identity_lift(2)
    z2, _ = induce_compatible(norm, z1)
    for A, z in zip(z2.mats, z2.roots):
        assert abs(z * z - np.linalg.det(A)) < 1e-12
    dt = build_delta_tilde(norm, z1, z2, rng)
    assert max(dt.residuals) < 1e-12
    assert dt.checks["square_identity"] < 1e-10
    assert dt.checks["translation_law"] < 1e-8
    assert abs(dt.base[_row("a", "east")] - 1.0) < 1e-12


def test_flipped_lift_fails_to_glue(rng):
    norm = normalize_sections(circle_pair_data())
    z1 = identity_lift(2)
    z2, _ = induce_compatible(norm, z1)
    with pytest.raises(GluingError) as exc:
        build_delta_tilde(norm, z1, _flip(z2, {1}), rng)
    assert exc.value.residuals  # the offending points are reported


def test_verify_uniqueness_witness(rng):
    norm = normalize_sections(circle_pair_data())
    z1 = identity_lift(2)
    z2, _ = induce_compatible(norm, z1)
    both = _flip(z2, {0, 1})
    base_b = _samples(a=lambda pid: 1.0 + 0j, b=lambda pid: -1.0 + 0j)
    # both candidates glue, each with its own base values
    build_delta_tilde(norm, z1, z2, rng)
    build_delta_tilde(norm, z1, both, rng, base_values=base_b)
    witness = verify_uniqueness(norm.nerve, z2, both)
    assert witness["a"] * witness["b"] == -1


def test_verify_uniqueness_falsification_detector(rng):
    # a one-component sheet flip glues only with a base that jumps inside
    # chart b; the candidates are then provably inequivalent
    norm = normalize_sections(circle_pair_data())
    z1 = identity_lift(2)
    z2, _ = induce_compatible(norm, z1)
    one = _flip(z2, {1})
    base_b = _samples(
        a=lambda pid: 1.0 + 0j,
        b=lambda pid: -1.0 + 0j if pid == "west" else 1.0 + 0j,
    )
    build_delta_tilde(norm, z1, z2, rng)
    build_delta_tilde(norm, z1, one, rng, base_values=base_b)
    with pytest.raises(TheoremFalsification):
        verify_uniqueness(norm.nerve, z2, one)


def diagonal_pair_data(sign=1.0):
    """Diagonal pair data with real delta samples of one sign."""
    nerve = circle_nerve()
    g = np.array([[2.0]])
    pair_c = Cocycle.evaluate(
        "Glkd", 1, 0, nerve,
        [per_point(lambda *_: (np.eye(1), np.eye(1))), per_point(lambda *_: (g, g))],
    )

    def delta_b(pid):
        return sign * (8.0 if pid == "west" else 2.0)

    return PolarizationPairData(nerve, pair_c,
                                _samples(a=lambda pid: sign * 2.0 + 0j, b=delta_b))


def _diagonal_lift():
    return Cocycle.evaluate(
        "Ml", 1, 0, circle_nerve(),
        [_ml_const(np.eye(1), 1.0), _ml_const([[2.0]], 2.0 ** 0.5)],
    )


def test_self_compat_positive_sign(rng):
    dt, dt_norm = self_compat(diagonal_pair_data(1.0), _diagonal_lift(), rng)
    assert dt.epsilon == 0
    assert abs(dt.base[_row("a", "east")] ** 2 - 2.0) < 1e-12
    assert dt.checks["translation_law"] < 1e-8
    assert dt_norm.checks["positivity_min_real"] > 0


def test_self_compat_negative_sign(rng):
    dt, dt_norm = self_compat(diagonal_pair_data(-1.0), _diagonal_lift(), rng)
    assert dt.epsilon == 1
    v = dt.base[_row("b", "west")]
    assert abs(v * v + 8.0) < 1e-10
    assert dt_norm.checks["positivity_min_real"] > 0
    assert dt_norm.checks["positivity_imag"] < 1e-10


def test_self_compat_rejects_nondiagonal(rng):
    with pytest.raises(ValidationError):
        self_compat(circle_pair_data(), identity_lift(2), rng)


def test_self_compat_rejects_nonreal_delta(rng):
    data = diagonal_pair_data(1.0)
    bad = PolarizationPairData(
        data.nerve, data.pair_cocycle,
        _samples(a=lambda pid: 2.0j,
                 b=lambda pid: 2.0j if pid == "east" else 8.0j),
    )
    with pytest.raises(ValidationError):
        self_compat(bad, _diagonal_lift(), rng)


def test_overflowing_pair_transition_fails_the_delta_law():
    # conj(det D1) det D2 of the pair transition 1e308 overflows, so the
    # residual of the delta transformation law is NaN: a failure, not a
    # pass (a NaN compares false with its bound)
    doc = json.loads(builtin_scenario_path("circle_mobius").read_text())
    doc["pair_cocycle"]["transitions"][0]["generator"]["params"] = {
        "first": [[1e308]], "second": [[1e308]]}
    with np.errstate(all="ignore"):
        report = run_scenario(doc, pipelines=["validate"])
    check = next(c for c in report.checks if c.check_id == "pair_data.consistency")
    assert not check.passed
    assert [f[:4] for f in check.failures] == [("delta-consistency", ("0", "1"), 0, "east")]
