import numpy as np
import pytest

from hfe import ball
from hfe.errors import SubgroupRejection, ValidationError
from hfe.groups import (
    MlElement,
    MpElement,
    SpElement,
    ml_elements,
    ml_mul,
    mp_mul,
    sp_validate,
    subgroup_classify,
)
from hfe.sampling import random_gl, random_mlkd_stack, random_sp
from hfe.tracking import principal_sqrt


def test_ml_element_rejects_wrong_root():
    with pytest.raises(ValidationError):
        MlElement(np.eye(2), 2.0)


def test_ml_product_preserves_relation(rng):
    for _ in range(100):
        n = int(rng.integers(1, 5))
        A = np.array([random_gl(rng, n), random_gl(rng, n)])
        z = [s * principal_sqrt(d) for s, d in zip(rng.choice([1, -1], 2),
                                                   np.linalg.det(A))]
        C, zc = ml_mul(A[:1], z[:1], A[1:], z[1:])
        d = np.linalg.det(C[0])
        assert abs(zc[0] * zc[0] - d) <= 1e-9 * abs(d)
        assert np.allclose(C[0], A[0] @ A[1])


def test_ml_identity(rng):
    A = random_gl(rng, 3)
    a = ml_elements(A[None], [principal_sqrt(np.linalg.det(A))])[0]
    e = MlElement(np.eye(3), 1.0)
    assert ml_mul(a.A[None], [a.z], e.A[None], [e.z])[1] == [a.z]


def test_ml_lift_two_sheets(rng):
    A = random_gl(rng, 3)
    z = principal_sqrt(np.linalg.det(A))
    p, m = ml_elements(np.array([A, A]), [z, -z])
    assert np.array_equal(p.A, A) and np.array_equal(m.A, A)
    assert m.z == -p.z
    assert abs(p.z * p.z - np.linalg.det(A)) < 1e-9 * abs(np.linalg.det(A))


def test_sp_validate_accepts_generated_rejects_generic(rng):
    sp_validate(random_sp(rng, 3))
    with pytest.raises(ValidationError):
        sp_validate(np.eye(4) + 0.5)


def _lift(g: SpElement) -> MpElement:
    """The metaplectic element over g with the principal anchor."""
    _, a0 = ball.alpha_raw(g.g, np.zeros((g.n, g.n)))
    return MpElement(g, principal_sqrt(np.linalg.det(a0)))


def _stack(x: MpElement):
    """An element as the one-row stack mp_mul takes."""
    return x.g.g[None], [x.zeta]


def test_mp_product_stays_on_cover(rng):
    # mp_mul checks zeta**2 = det alpha(g, 0) of every product, so a
    # successful product is itself the check of the tracked anchor
    for _ in range(20):
        n = int(rng.integers(1, 4))
        a = _lift(random_sp(rng, n))
        b = _lift(random_sp(rng, n))
        g, _ = mp_mul(*_stack(a), *_stack(b))
        assert np.allclose(g[0], a.g.g @ b.g.g)


def test_mp_associativity_of_sheets(rng):
    a, b, c = (_stack(_lift(random_sp(rng, 2))) for _ in range(3))
    (lhs, (zl,)), (rhs, (zr,)) = mp_mul(*mp_mul(*a, *b), *c), mp_mul(*a, *mp_mul(*b, *c))
    assert np.max(np.abs(lhs - rhs)) < 1e-8
    assert abs(zl - zr) < 1e-8 * max(1.0, abs(zl))


def test_mp_deck_is_central(rng):
    # flipping the sheet of a factor flips the sheet of the product
    a = _lift(random_sp(rng, 2))
    b = _lift(random_sp(rng, 2))
    _, (flipped,) = mp_mul(*_stack(MpElement(a.g, -a.zeta)), *_stack(b))
    _, (zeta,) = mp_mul(*_stack(a), *_stack(b))
    assert abs(flipped + zeta) < 1e-8
    # the identity lies on the cover with either anchor
    for sheet in (1, -1):
        MpElement(SpElement(np.eye(4)), sheet)


def test_subgroup_classify_glk_accept_and_reject():
    g = np.array([[2.0, 1.0 + 1j], [0.0, 3.0 - 1j]])
    tag = subgroup_classify(g, 1)
    assert tag.kind == "Glk"
    assert np.allclose(tag.blocks["A"], [[2.0]])
    bad = g.copy()
    bad[1, 0] = 0.5
    with pytest.raises(SubgroupRejection) as exc:
        subgroup_classify(bad, 1)
    assert (1, 0) in exc.value.indices


def test_subgroup_classify_complex_a_block_rejected():
    g = np.array([[2.0 + 1j, 0.0], [0.0, 3.0]])
    with pytest.raises(SubgroupRejection):
        subgroup_classify(g, 1)


def test_subgroup_classify_pair_shared_a(rng):
    M1, z1, M2, z2 = random_mlkd_stack(rng, 2, 3, 2)
    m1, m2, other = ml_elements(np.stack([M1[0], M2[0], M1[1]]),
                                [z1[0], z2[0], z1[1]])
    tag = subgroup_classify((m1, m2), 2)
    assert tag.kind == "Mlkd"
    with pytest.raises(SubgroupRejection):
        subgroup_classify((m1, other), 2)


def test_subgroup_classify_spk():
    # diag(A, g_r-embedded, A^{-t}, ...) pattern with k=1, n=2
    g = np.diag([-1.0, 1.0, -1.0, 1.0])
    tag = subgroup_classify(SpElement(g), 1)
    assert tag.kind == "Spk"
    assert np.allclose(tag.blocks["A_g"], [[-1.0]])
    # a shear mixing the distinguished direction into the rest violates
    # the required zero pattern
    A = np.array([[1.0, 0.0], [0.3, 1.0]])
    shear = np.block([
        [A, np.zeros((2, 2))],
        [np.zeros((2, 2)), np.linalg.inv(A).T],
    ])
    with pytest.raises(SubgroupRejection):
        subgroup_classify(SpElement(shear), 1)


def test_mp_element_wrong_anchor_rejected(rng):
    g = random_sp(rng, 2)
    _, a0 = ball.alpha_raw(g.g, np.zeros((2, 2)))
    zeta = np.sqrt(abs(np.linalg.det(a0))) * 5.0
    with pytest.raises(ValidationError):
        MpElement(g, zeta)
