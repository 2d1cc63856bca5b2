import cmath
import json
import math
from cmath import sqrt as principal_sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfe import ball, induction
from hfe.cech import lifts_equivalent
from hfe.errors import SubgroupRejection, ValidationError, raise_first
from hfe.frames import frame_pattern, meta_pair_factor, validate_lagrangian
from hfe.groups import ml_mul, subgroup_classify, translation_factor
from hfe.induction import (
    MetaplecticBundleData,
    SectionFamily,
    _mp_act_stack,
    build_delta_D_tilde,
    chart_sqrt_values,
    cross_check,
    recipe,
    transport,
)
from hfe.nerve import Nerve
from hfe.scenario import builtin_scenario_path, evaluate_cocycle, load_scenario

from helpers import component, nerve_doc, per_point, random_ball_point, random_mlkd_stack


def circle_nerve():
    return Nerve(nerve_doc("ab", {("a", "b"): [component([("east", (0.0,))]),
                                               component([("west", (1.0,))])]}))


def _mp_rotation(theta):
    g = np.array([[math.cos(theta), math.sin(theta)],
                  [-math.sin(theta), math.cos(theta)]])
    value = (g, cmath.exp(0.5j * theta))
    return per_point(lambda *_: value)


def rotation_bundle(theta=math.pi / 2):
    nerve = circle_nerve()
    mp_c = evaluate_cocycle(
        "Mp", 1, 0, nerve, [_mp_rotation(0.0), _mp_rotation(theta)],
    )
    return MetaplecticBundleData(nerve, mp_c, d_adapted=False)


def _sections(UVa, UVb=None):
    """Sections of the circle nerve, the frame UVa on chart a and UVb
    (by default the same) on chart b: the stacks (U, V) over its chart
    rows."""
    frames = {"a": UVa, "b": UVa if UVb is None else UVb}
    return tuple(np.array([frames[ch][i] for ch, _ in circle_nerve().sites], dtype=complex)
                 for i in (0, 1))


def holo_sections():
    return _sections(ball.phi_inv_raw(np.zeros((1, 1)), np.eye(1)))


def test_recipe_rotation_anchor():
    # rotating the origin frame by a quarter turn produces the metalinear
    # transition ([i], e^{i pi/4}) on the twisted component
    r = recipe(transport(rotation_bundle(), holo_sections()))
    (eye, el), (z_eye, z_el) = r.ml_cocycle.mats, r.ml_cocycle.roots  # east, west
    assert abs(el[0, 0] - 1j) < 1e-12
    assert abs(z_el - cmath.exp(0.25j * cmath.pi)) < 1e-12
    assert abs(eye[0, 0] - 1.0) < 1e-12 and abs(z_eye - 1.0) < 1e-12
    assert max(r.residuals.values()) < 1e-10


def test_recipe_projection_matches_gl():
    # the projection of the metalinear transition is the frame transition
    # N with g sigma_b = sigma_a N, solved from the sections on their own
    data = rotation_bundle(theta=0.7)
    t = transport(data, holo_sections())
    r = recipe(t)
    row = data.nerve.components[(("a", "b"), 1)][0]
    gl = t.N[row]
    assert np.allclose(r.ml_cocycle.mats[row], gl)


def test_recipe_sheet_flip_is_coboundary():
    data = rotation_bundle()
    t = transport(data, holo_sections())
    r1 = recipe(t)
    r2 = recipe(t, sheet_flips={"a": -1})
    witness = lifts_equivalent(data.nerve, r1.ml_cocycle, r2.ml_cocycle)
    assert witness is not None
    assert witness["a"] * witness["b"] == -1


def test_recipe_rejects_inconsistent_sections():
    data = rotation_bundle(theta=0.0)
    sections = _sections(ball.phi_inv_raw(np.array([[0.5]]), np.eye(1)),
                         ball.phi_inv_raw(np.zeros((1, 1)), np.eye(1)))
    with pytest.raises(ValidationError):
        recipe(transport(data, sections))


def test_transport_rejects_a_nan_frame_transition(monkeypatch):
    # a NaN consistency residual fails the negated guard
    monkeypatch.setattr(induction, "lstsq", lambda A, B: np.full(
        (*A.shape[:-2], A.shape[-1], B.shape[-1]), np.nan))
    with pytest.raises(ValidationError, match="inconsistent with the cocycle at east"):
        transport(rotation_bundle(), holo_sections())


def test_recipe_rejects_a_nan_ball_point():
    # a NaN overlap residual of the Ball points fails the negated guard
    t = transport(rotation_bundle(), holo_sections())
    t.gW = t.gW + np.array([np.nan, 0.0])[:, None, None]
    with pytest.raises(ValidationError, match="Ball points disagree on overlap at east"):
        recipe(t)


def test_frame_sections_must_be_positive():
    # Lagrangian with U - iV invertible, but i(V*U - U*V) = -1
    negative = (np.array([[1.0]]), np.array([[-0.5j]]))
    with pytest.raises(ValidationError, match="section frame not positive at east"):
        recipe(transport(rotation_bundle(), _sections(negative)))


@pytest.mark.parametrize("flip", [1, -1])
def test_recipe_roots_an_isolated_chart_at_its_origin_row(flip):
    # a chart that meets no overlap has one chart row, the origin, rooted
    # with the principal root of det C times its sheet flip
    doc = json.loads(builtin_scenario_path("abstract_k1_nonorientable").read_text())
    doc["nerve"]["charts"].append("2")
    for family in (doc["delta_samples"], doc["pair_sections"],
                   *doc["sections"].values()):
        family["2"] = family["0"]
    sc = load_scenario(doc)
    data = MetaplecticBundleData(sc.nerve, sc.mp_cocycle, sc.d_adapted)
    t = transport(data, sc.sections_first)
    r = recipe(t, sheet_flips={"2": flip})
    row, = sc.nerve.charts["2"]
    det = np.linalg.det(t.C)[row]
    assert r.chart_z[row] == flip * principal_sqrt(complex(det))


def test_mp_act_stack_identity():
    W, C, z = np.zeros((1, 1, 1)), np.array([[[2.0]]]), [principal_sqrt(2.0)]
    gW, gC, gz = _mp_act_stack(np.eye(2)[None], [1.0], W, C, z)
    assert np.allclose(gW, W)
    assert np.allclose(gC, C)
    assert abs(gz[0] - z[0]) < 1e-12


def test_chart_sqrt_values_continuity():
    comp = component([(f"t{i}", (i / 8.0,)) for i in range(9)],
                     [(i, i + 1) for i in range(8)])
    nerve = Nerve(nerve_doc("ab", {("a", "b"): [comp]}))
    # chart a's rows are t0, ..., t8, and so are chart b's
    values = [cmath.exp(2j * cmath.pi * t) for t in nerve.params[:, 0].tolist()]
    z = chart_sqrt_values(nerve, values + values, {})
    assert abs(z[0] - 1.0) < 1e-12
    assert abs(z[8] + 1.0) < 1e-9  # tracked onto the other sheet
    zf = chart_sqrt_values(nerve, values + values, {"a": -1})
    assert abs(zf[0] + 1.0) < 1e-12
    assert zf[9] == z[9]  # chart b keeps its sheet


def test_frame_pattern_blocks():
    Ur, Vr = ball.phi_inv_raw(np.array([[0.2]]), np.array([[1.0]]))
    U = np.zeros((1, 2, 2), dtype=complex)
    V = np.zeros((1, 2, 2), dtype=complex)
    U[0, 0, 0] = 2.0
    U[0, 0, 1] = 0.3
    U[0, 1:, 1:] = Ur
    V[0, 1:, 1:] = Vr
    checks, blocks = frame_pattern(U, V, 1)
    raise_first(checks)
    assert np.allclose(blocks["A"], [[[2.0]]])
    # the full and the reduced frame are both positive
    full, = validate_lagrangian(U, V)
    reduced, = validate_lagrangian(blocks["Ur"], blocks["Vr"])
    assert full and reduced


def test_frame_pattern_rejects_bad_pattern():
    # the holomorphic frame is Lagrangian but has no zero V-block
    with pytest.raises(SubgroupRejection):
        raise_first(frame_pattern(np.eye(2)[None], 1j * np.eye(2)[None], 1)[0])


def test_build_delta_D_requires_adapted_flag():
    data = rotation_bundle()  # d_adapted False
    with pytest.raises(ValidationError):
        build_delta_D_tilde(data, None)


def _load(name):
    return load_scenario(builtin_scenario_path(name))


def test_delta_D_on_nonorientable_scenario():
    # the transition has a negative-determinant shared block, so the
    # gluing exercises the |det A| convention
    sc = _load("abstract_k1_nonorientable")
    data = MetaplecticBundleData(sc.nerve, sc.mp_cocycle, sc.d_adapted)
    g = sc.mp_cocycle.mats[sc.nerve.components[(("0", "1"), 1)][0]]
    assert np.linalg.det(g[: sc.k, : sc.k]) < 0
    dt = build_delta_D_tilde(data, sc.pair_sections)
    assert dt.checks["invariance"] < 1e-8
    assert dt.checks["square_identity"] < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(0, 2 ** 32 - 1))
def test_meta_pair_factor_translates_by_the_translation_factor(dims, seed):
    # the metalinear-pair transformation law of the block-form datum, an
    # identity of the engine's formulas that no verification checks:
    # moving both meta frames of a pair by an Mlkd pair (M1, M2) leaves
    # the Ball points, so Gamma, alone and multiplies the factor,
    # translation_factor of the pair's roots and det A, by
    # translation_factor of (M1, M2)
    n, k = dims
    rng = np.random.default_rng(seed)
    m = 8
    C1, z1, C2, z2 = random_mlkd_stack(rng, m, n, k)
    W1, W2 = (np.stack([np.eye(n, dtype=complex)] * m) for _ in range(2))
    for W in (W1, W2):
        W[:, k:, k:] = [random_ball_point(rng, n - k) for _ in range(m)]
    M1, y1, M2, y2 = random_mlkd_stack(rng, m, n, k)
    before, W1r, W2r = meta_pair_factor(W1, C1, z1, W2, C2, z2, k)
    after, W1t, W2t = meta_pair_factor(W1, *ml_mul(C1, z1, M1, y1),
                                       W2, *ml_mul(C2, z2, M2, y2), k)
    assert np.array_equal(W1t, W1r) and np.array_equal(W2t, W2r)
    want = before * translation_factor(y1, y2, subgroup_classify(M1, M2, k)["detA"])
    assert np.all(np.abs(after - want) <= 1e-10 * np.abs(want))


def test_cross_check_global_sign():
    sc = _load("abstract_k1_nonorientable")
    data = MetaplecticBundleData(sc.nerve, sc.mp_cocycle, sc.d_adapted)
    out = cross_check(data, SectionFamily(data, sc.sections_first),
                      SectionFamily(data, sc.sections_second))
    assert out["global_sign"] in (1, -1)
    assert out["glue_residual"] < 1e-8
    assert out["restriction_residual"] < 1e-9


def test_a_section_family_computes_its_transport_once(monkeypatch):
    sc = _load("abstract_k1_nonorientable")
    data = MetaplecticBundleData(sc.nerve, sc.mp_cocycle, sc.d_adapted)
    alone = recipe(transport(data, sc.sections_first))
    family = SectionFamily(data, sc.sections_first)
    t, r = family.plain()
    monkeypatch.setattr(induction, "transport", None)  # not called again
    assert family.plain()[0] is t and family.plain()[1] is r
    assert t.bundle is data
    np.testing.assert_array_equal(r.ml_cocycle.mats, alone.ml_cocycle.mats)
    np.testing.assert_array_equal(r.chart_z, alone.chart_z)


def test_a_section_family_raises_its_first_error_again(monkeypatch):
    calls = []

    def failing(data, sections):
        calls.append(sections)
        raise ValidationError(f"call {len(calls)}")

    monkeypatch.setattr(induction, "transport", failing)
    family = SectionFamily(rotation_bundle(), holo_sections())
    errors = []
    for _ in range(2):
        with pytest.raises(ValidationError) as info:
            family.plain()
        errors.append(info.value)
    assert errors[0] is errors[1]
    assert str(errors[1]) == "call 1" and len(calls) == 1
