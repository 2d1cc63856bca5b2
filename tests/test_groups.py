import math
from cmath import sqrt as principal_sqrt

import numpy as np
import pytest

from hfe import ball, groups
from hfe.config import check_bound, get_tolerances, identity_bound, tolerance_overrides
from hfe.errors import (
    EngineError,
    SingularityError,
    SubgroupRejection,
    ValidationError,
    raise_first,
)
from hfe.groups import (
    _glk_pattern,
    check_ml,
    check_mp,
    check_sp,
    ml_checks,
    ml_mul,
    mp_mul,
    spk_blocks,
    subgroup_classify,
    tracked_alpha_det,
)
from hfe.smallmat import det

from helpers import random_gl, random_mlkd_stack, random_sp


def test_ml_element_rejects_wrong_root():
    with pytest.raises(ValidationError):
        check_ml(np.eye(2)[None], [2.0])


def test_ml_checks_reject_nan():
    # nan <= singular and nan > bound are both False
    with pytest.raises(SingularityError, match="matrix is singular"):
        check_ml(np.array([[[np.nan]]]), [np.nan])
    with pytest.raises(ValidationError, match="not a metalinear element"):
        check_ml(np.eye(1)[None], [np.nan])


def test_kernels_overflow_without_a_warning():
    # z * z overflows, and inf * 0j is NaN: the checks fail, the Ball
    # blocks are inf or NaN, and nothing warns
    big = 1e308 + 1e308j
    with pytest.raises(ValidationError, match="not a metalinear element"):
        check_ml(np.full((1, 1, 1), 1e308), [big])
    g = np.eye(2)
    g[0, 1] = np.inf
    assert not np.isfinite(ball.cayley_blocks(g)).all()
    assert not all(np.isfinite(M).all() for M in ball.phi_inv_raw([[np.inf]], [[big]]))


def test_check_mp_rejects_nan():
    # nan > bound is False, so a plain comparison let a NaN anchor pass
    with pytest.raises(ValidationError, match=r"zeta\*\*2 != det alpha"):
        check_mp(np.eye(2)[None], np.array([np.nan + 0j]))


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
    A = random_gl(rng, 3)[None]
    z = [principal_sqrt(np.linalg.det(A[0]))]
    check_ml(A, z)
    check_ml(np.eye(3)[None], [1.0])
    assert ml_mul(A, z, np.eye(3)[None], [1.0])[1] == z


def test_ml_lift_two_sheets(rng):
    A = random_gl(rng, 3)
    z = principal_sqrt(np.linalg.det(A))
    # both sheets over A are metalinear; their roots differ by the sign
    check_ml(np.array([A, A]), [z, -z])
    assert abs(z * z - np.linalg.det(A)) < 1e-9 * abs(np.linalg.det(A))


def test_sp_validate_accepts_generated_rejects_generic(rng):
    check_sp(random_sp(rng, 3)[None])
    # every block product of the second overflows, and its residuals are
    # inf - inf = NaN, which fails
    for g in (np.eye(4) + 0.5, np.full((2, 2), 1e200)):
        with pytest.raises(ValidationError):
            check_sp(g[None])


def _lift(g: np.ndarray):
    """The metaplectic element over g with the principal anchor, as the
    one-row stack mp_mul takes."""
    n = len(g) // 2
    _, a0 = ball.alpha_raw(g, np.zeros((n, n)))
    return g[None], [principal_sqrt(np.linalg.det(a0))]


def test_mp_product_stays_on_cover(rng):
    # mp_mul checks zeta**2 = det alpha(g, 0) of every product, so a
    # successful product is itself the check of the tracked anchor
    for _ in range(20):
        n = int(rng.integers(1, 4))
        a = _lift(random_sp(rng, n))
        b = _lift(random_sp(rng, n))
        g, _ = mp_mul(*a, *b)
        assert np.allclose(g[0], a[0][0] @ b[0][0])


def test_tracked_alpha_det_takes_no_inverse(rng, monkeypatch):
    # alpha(g, sW) = P + s QW: no grid parameter inverts anything
    g = np.stack([random_sp(rng, 2) for _ in range(3)])
    W = np.stack([np.diag([0.5, -0.3j]), np.zeros((2, 2)), [[0.2, 0.1], [0.1, 0.0]]])
    zeta = [_lift(gp)[1][0] for gp in g]
    calls = []
    real_inv = groups.inv

    def counting_inv(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_inv(a, *args, **kwargs)

    monkeypatch.setattr(groups, "inv", counting_inv)
    z, alpha = tracked_alpha_det(g, W, zeta)
    assert calls == []
    monkeypatch.undo()
    _, want = ball.alpha_raw(g, W)
    assert np.array_equal(alpha, want)
    for zp, a in zip(z, np.linalg.det(alpha)):
        assert abs(zp * zp - a) < 1e-9 * abs(a)


def test_mp_associativity_of_sheets(rng):
    a, b, c = (_lift(random_sp(rng, 2)) for _ in range(3))
    (lhs, (zl,)), (rhs, (zr,)) = mp_mul(*mp_mul(*a, *b), *c), mp_mul(*a, *mp_mul(*b, *c))
    assert np.max(np.abs(lhs - rhs)) < 1e-8
    assert abs(zl - zr) < 1e-8 * max(1.0, abs(zl))


def test_mp_deck_is_central(rng):
    # flipping the sheet of a factor flips the sheet of the product
    (ga, (za,)), b = _lift(random_sp(rng, 2)), _lift(random_sp(rng, 2))
    _, (flipped,) = mp_mul(ga, [-za], *b)
    _, (zeta,) = mp_mul(ga, [za], *b)
    assert abs(flipped + zeta) < 1e-8
    # the identity lies on the cover with either anchor
    check_mp(np.array([np.eye(4), np.eye(4)]), [1.0, -1.0])


def test_subgroup_classify_glk_accept_and_reject():
    g = np.array([[2.0, 1.0 + 1j], [0.0, 3.0 - 1j]])
    checks, A, _ = _glk_pattern(g[None], 1)
    raise_first(checks)
    assert np.allclose(A[0], [[2.0]])
    bad = g.copy()
    bad[1, 0] = 0.5
    with pytest.raises(SubgroupRejection, match="nonzero lower-left block"):
        raise_first(_glk_pattern(bad[None], 1)[0])


def test_subgroup_classify_complex_a_block_rejected():
    g = np.array([[2.0 + 1j, 0.0], [0.0, 3.0]])
    with pytest.raises(SubgroupRejection):
        raise_first(_glk_pattern(g[None], 1)[0])


def test_subgroup_classify_pair_shared_a(rng):
    M1, _, M2, _ = random_mlkd_stack(rng, 2, 3, 2)
    blocks = subgroup_classify(M1[:1], M2[:1], 2)
    assert np.array_equal(blocks["A"], M1[:1, :2, :2].real)
    with pytest.raises(SubgroupRejection, match="A-blocks differ"):
        subgroup_classify(M1[:1], M1[1:], 2)


def test_corner_whose_determinant_overflows_is_singular():
    # a d - b c of this corner is inf - inf = NaN, which the guards reject
    A = np.array([[[1e200, 1e200], [1e200, 2e200]]])
    with pytest.raises(SingularityError, match="A-block singular"):
        subgroup_classify(A, A, 2)
    g = np.zeros((1, 4, 4))
    g[:, :2, :2] = A
    with pytest.raises(SingularityError, match="A_g block singular"):
        spk_blocks(g, 2)


def test_nan_residuals_fail_the_subgroup_guards():
    # the Spk inverse guard is a negated comparison
    g = np.eye(4)[None]
    g[0, 2, 2] = np.nan
    with pytest.raises(SubgroupRejection, match="not the inverse of the first"):
        spk_blocks(g, 1)


def _dets(blocks: np.ndarray) -> np.ndarray:
    """The determinants of a stack, block by block, an empty block's 1."""
    return np.array([np.linalg.det(b) if b.size else 1.0 for b in blocks])


def test_subgroup_classify_returns_determinants(rng):
    for n in range(4):
        for k in range(n + 1):
            M1, _, M2, _ = random_mlkd_stack(rng, 4, n, k)
            blocks = subgroup_classify(M1, M2, k)
            for key, want in (("detA", _dets(M1[:, :k, :k])),
                              ("detD1", _dets(M1[:, k:, k:])),
                              ("detD2", _dets(M2[:, k:, k:]))):
                assert blocks[key].shape == (4,)
                np.testing.assert_allclose(blocks[key], want, rtol=1e-12, atol=0,
                                           err_msg=f"{key}, n={n}, k={k}")


def test_subgroup_classify_spk():
    # diag(A, g_r-embedded, A^{-t}, ...) pattern with k=1, n=2
    g = np.diag([-1.0, 1.0, -1.0, 1.0])
    blocks = spk_blocks(g[None], 1)
    assert np.allclose(blocks["A_g"][0], [[-1.0]])
    # a shear mixing the distinguished direction into the rest violates
    # the required zero pattern
    A = np.array([[1.0, 0.0], [0.3, 1.0]])
    shear = np.block([
        [A, np.zeros((2, 2))],
        [np.zeros((2, 2)), np.linalg.inv(A).T],
    ])
    with pytest.raises(SubgroupRejection):
        spk_blocks(shear[None], 1)


def test_mp_element_wrong_anchor_rejected(rng):
    g = random_sp(rng, 2)
    _, a0 = ball.alpha_raw(g, np.zeros((2, 2)))
    zeta = np.sqrt(abs(np.linalg.det(a0))) * 5.0
    with pytest.raises(ValidationError):
        check_mp(g[None], [zeta])


def _per_row_ml_flags(A, z):
    """The flags of the per-row Ml membership checks, as they were
    written: the singular test and the root test of each point."""
    tols = get_tolerances()
    bound = identity_bound(tols)
    dets = det(A)
    return (np.array([abs(d) <= tols.singular for d in dets], dtype=bool),
            np.array([abs(zp * zp - d) > bound * abs(d) for zp, d in zip(z, dets)],
                     dtype=bool))


def _per_row_check_mp(g, zeta) -> None:
    """The per-row Mp anchor test, as it was written."""
    n = g.shape[-1] // 2
    _, a0 = ball.alpha_raw(g, np.zeros((len(g), n, n)))
    bound = check_bound(get_tolerances())
    for zp, d in zip(zeta, det(a0)):
        if abs(zp * zp - d) > bound * abs(d):
            raise ValidationError("zeta**2 != det alpha(g, 0)")


def _outcome(check, *args):
    """None, or the type and message of the EngineError check raised."""
    try:
        check(*args)
    except EngineError as exc:
        return type(exc), str(exc)
    return None


def _at_the_bound(gap: float, size: float, scale: float) -> list[float]:
    """rel values around the one at which scale * rel * size meets gap,
    so that some point sits at its bound or on either side of it."""
    rel = gap / (scale * size)
    return [math.nextafter(rel, 0.0), rel, math.nextafter(rel, math.inf)]


def test_vectorized_membership_flags_match_the_per_row_checks(rng):
    # roots off their determinants by relative amounts around the
    # default bounds, and tolerances that put a point at its bound
    off = [0.0, 1e-12, 1e-9, 1e-8, 3e-8, 1e-6, 1e-3]
    for trial in range(40):
        n = int(rng.integers(1, 4))
        A = np.array([random_gl(rng, n) for _ in off])
        z = [s * principal_sqrt(d) * (1 + e) for s, d, e in
             zip(rng.choice([1, -1], len(off)), np.linalg.det(A), off)]
        g = np.array([random_sp(rng, n) for _ in off])
        zeta = [s * principal_sqrt(d) * (1 + e) for s, d, e in
                zip(rng.choice([1, -1], len(off)), np.linalg.det(
                    ball.alpha_raw(g, np.zeros((len(g), n, n)))[1]), off)]
        p = int(rng.integers(len(off)))
        d, dm = np.linalg.det(A[p]), np.linalg.det(ball.alpha_raw(g[p], np.zeros((n, n)))[1])
        settings = [{}, {"singular": abs(d)}, {"singular": math.nextafter(abs(d), 0.0)}]
        settings += [{"rel": r} for r in _at_the_bound(abs(z[p] * z[p] - d), abs(d), 10)]
        settings += [{"rel": r} for r in
                     _at_the_bound(abs(zeta[p] * zeta[p] - dm), abs(dm), 1e3)]
        for tols in settings:
            with tolerance_overrides(**tols):
                flags = [bad for bad, _ in ml_checks(A, np.array(z))]
                assert [f.tolist() for f in flags] == [
                    f.tolist() for f in _per_row_ml_flags(A, z)], (trial, tols)
                for rows in [slice(None)] + [slice(i, i + 1) for i in range(len(off))]:
                    assert (_outcome(check_mp, g[rows], np.array(zeta[rows]))
                            == _outcome(_per_row_check_mp, g[rows], zeta[rows])), (trial, tols)
