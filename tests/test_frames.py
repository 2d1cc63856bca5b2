import numpy as np
import pytest

from hfe import ball
from hfe.errors import SingularityError, SubgroupRejection, ValidationError
from hfe.frames import (
    BallPoint,
    LagFramePair,
    MetaLagFrame,
    alpha_tilde,
    check_ball,
    delta,
    delta_L_from_wc,
    delta_L_stack,
    delta_L_tilde,
    gamma_stack,
    liouville,
    pairing_density,
    validate_lagrangian,
)
from hfe.groups import MlElement, MpElement, ml_mul
from hfe.sampling import (
    random_ball_point,
    random_complex,
    random_gl,
    random_gl_real,
    random_positive_frame,
    random_sp,
)
from hfe.tracking import principal_sqrt

VERT = (np.array([[0.0]]), np.array([[1.0]]))
HORIZ = (np.array([[1.0]]), np.array([[0.0]]))
HOLO = (np.array([[1.0]]), np.array([[1j]]))


def _pair(f1, f2, k=0):
    return LagFramePair(validate_lagrangian(*f1), validate_lagrangian(*f2), k)


def test_validate_rejects_nonisotropic():
    U = np.eye(2)
    V = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        validate_lagrangian(U, V)


def test_validate_positivity_verdict():
    assert validate_lagrangian(*HOLO).positive
    anti = validate_lagrangian(np.array([[1.0]]), np.array([[-1j]]))
    assert not anti.positive


def test_delta_axis_values():
    assert abs(delta(_pair(VERT, HORIZ)) - 1j) < 1e-12
    assert abs(delta(_pair(HORIZ, VERT)) + 1j) < 1e-12
    assert abs(delta(_pair(HOLO, HOLO)) - 2.0) < 1e-12


def test_delta_shared_columns_k_equals_n():
    pair = _pair(VERT, VERT, k=1)
    assert delta(pair) == 1.0


def test_pair_rejects_differing_shared_columns():
    with pytest.raises(ValidationError):
        _pair(VERT, HORIZ, k=1)


def test_phi_anchor_and_roundtrip(rng):
    W, C = ball.phi_raw(*HOLO)
    assert np.max(np.abs(W)) < 1e-12
    assert abs(C[0, 0] - 2.0) < 1e-12
    for _ in range(50):
        n = int(rng.integers(1, 5))
        fr = random_positive_frame(rng, n)
        W, C = ball.phi_raw(fr.U, fr.V)
        check_ball(W[None])
        U, V = ball.phi_inv_raw(W, C)
        assert np.max(np.abs(U - fr.U)) < 1e-10
        assert np.max(np.abs(V - fr.V)) < 1e-10


def test_phi_inv_left_inverse(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        W = random_ball_point(rng, n).W
        C = random_gl(rng, n)
        U, V = ball.phi_inv_raw(W, C)
        assert validate_lagrangian(U, V).positive
        W2, C2 = ball.phi_raw(U, V)
        assert np.max(np.abs(W2 - W)) < 1e-10
        assert np.max(np.abs(C2 - C)) < 1e-10


def test_alpha_is_automorphy_cocycle(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        g, h = random_sp(rng, n), random_sp(rng, n)
        W = random_ball_point(rng, n)
        hW, ah = ball.alpha_raw(h.g, W.W)
        _, ag = ball.alpha_raw(g.g, hW)
        _, agh = ball.alpha_raw(g.g @ h.g, W.W)
        scale = max(1.0, float(np.max(np.abs(ag @ ah.A if hasattr(ah, "A") else ag @ ah))))
        assert np.max(np.abs(agh - ag @ ah)) < 1e-8 * scale


def test_ball_maps_broadcast_over_stacks(rng):
    # a stack of Ball points gives the stack of the pointwise results
    g = random_sp(rng, 2)
    Ws = np.stack([random_ball_point(rng, 2).W for _ in range(5)])
    gWs, As = ball.alpha_raw(g.g, Ws)
    for W, gW, A in zip(Ws, gWs, As):
        gW1, A1 = ball.alpha_raw(g.g, W)
        assert np.max(np.abs(gW - gW1)) < 1e-12
        assert np.max(np.abs(A - A1)) < 1e-12
    # one singular member of a stack trips the guard
    U = np.stack([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(SingularityError):
        ball.phi_raw(U, np.zeros((2, 2, 2)))


def test_alpha_moves_frames_consistently(rng):
    # phi(g . frame) = (g.W, alpha(g, W) C)
    g = random_sp(rng, 2)
    fr = random_positive_frame(rng, 2)
    W, C = ball.phi_raw(fr.U, fr.V)
    gU, gV = ball.sp_apply(g.g, fr.U, fr.V)
    W2, C2 = ball.phi_raw(gU, gV)
    gW, a = ball.alpha_raw(g.g, W)
    check_ball(gW[None])
    assert np.max(np.abs(W2 - gW)) < 1e-9
    assert np.max(np.abs(C2 - a @ C)) < 1e-9


def test_alpha_tilde_projection_and_deck(rng):
    g = random_sp(rng, 2)
    _, a0 = ball.alpha_raw(g.g, np.zeros((2, 2)))
    gt = MpElement(g, principal_sqrt(np.linalg.det(a0)))
    W = random_ball_point(rng, 2)
    at = alpha_tilde(gt, W)
    _, am = ball.alpha_raw(gt.g.g, W.W)
    assert np.array_equal(at.A, am)
    deck = alpha_tilde(MpElement(gt.g, -gt.zeta), W)
    flipped, (z,) = ml_mul(at.A[None], [at.z], np.eye(2)[None], [-1.0])
    assert np.array_equal(deck.A, flipped[0])
    assert deck.z == z


def test_gamma_anchor_and_square(rng):
    for n in (1, 3):
        origin = np.zeros((1, n, n))
        assert abs(gamma_stack(origin, origin)[0] - 2 ** (-n / 2)) < 1e-12
    for _ in range(50):
        n = int(rng.integers(1, 5))
        W1, W2 = random_ball_point(rng, n).W, random_ball_point(rng, n).W
        v, = gamma_stack(W1[None], W2[None])
        target = np.linalg.det(0.5 * (np.eye(n) - W1.conj().T @ W2))
        assert abs(v * v - target) < 1e-9 * max(1.0, abs(target))
        assert abs(v - gamma_stack(W1[None], W2[None], via=0.5)[0]) < 1e-8


def test_delta_L_restriction_matches_ambient(rng):
    # on block-form frames the reduced pairing determinant equals the
    # ambient one
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n + 1))
        A = random_gl_real(rng, k)
        frames = []
        for _ in range(2):
            B = random_complex(rng, (k, n - k))
            red = random_positive_frame(rng, n - k)
            U = np.zeros((n, n), dtype=complex)
            V = np.zeros((n, n), dtype=complex)
            U[:k, :k] = A
            U[:k, k:] = B
            U[k:, k:] = red.U
            V[k:, k:] = red.V
            frames.append((U, V))
        amb = delta(_pair(frames[0], frames[1], k))
        (U1, V1), (U2, V2) = frames
        red = delta_L_stack(U1[None], V1[None], U2[None], V2[None], k)[0]
        assert abs(amb - red) < 1e-9 * max(1.0, abs(red))


def test_delta_L_rejects_bad_block_pattern():
    U = np.array([[1.0, 0.0], [0.5, 1.0]])
    V = np.array([[0.0, 0.0], [0.0, 1j]])
    with pytest.raises(SubgroupRejection):
        delta_L_stack(U[None], V[None], U[None], V[None], 1)


def _block_meta(rng, n, k, A):
    B = random_complex(rng, (k, n - k))
    Wr = random_ball_point(rng, n - k).W
    Cr = random_gl(rng, n - k)
    W = np.zeros((n, n), dtype=complex)
    W[:k, :k] = np.eye(k)
    W[k:, k:] = Wr
    C = np.zeros((n, n), dtype=complex)
    C[:k, :k] = A
    C[:k, k:] = B
    C[k:, k:] = Cr
    return MetaLagFrame(BallPoint(W), MlElement(C, principal_sqrt(np.linalg.det(C))))


def test_delta_L_tilde_squares_to_delta_L(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n + 1))
        A = random_gl_real(rng, k)
        X1, X2 = _block_meta(rng, n, k, A), _block_meta(rng, n, k, A)
        v = delta_L_tilde((X1, X2), k)
        f1 = ball.phi_inv_raw(X1.W.W, X1.C.A)
        f2 = ball.phi_inv_raw(X2.W.W, X2.C.A)
        target = delta_L_stack(f1[0][None], f1[1][None], f2[0][None], f2[1][None], k)[0]
        assert abs(v * v - target) < 1e-9 * max(1.0, abs(target))
        via_wc = delta_L_from_wc((X1.W.W, X1.C.A), (X2.W.W, X2.C.A), k)
        assert abs(via_wc - target) < 1e-9 * max(1.0, abs(target))


def test_liouville_scaling_and_value(rng):
    e = np.eye(4)
    base = liouville([e[:, i] for i in range(4)])
    # the prefactor makes the standard symplectic basis have volume +1
    assert abs(base - 1.0) < 1e-12
    M = random_gl(rng, 4)
    vecs = [M[:, i] for i in range(4)]
    assert abs(liouville(vecs) - np.linalg.det(M) * base) < 1e-9 * abs(
        np.linalg.det(M)
    )


def test_pairing_density_anchor():
    pair = _pair(HOLO, HOLO)
    lifts = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    v = pairing_density(1.0, 1.0, 1.0, pair, lifts, "half-density")
    assert abs(v - 2 ** 0.5) < 1e-12
    v2 = pairing_density(1.0, 1.0, 1.0, pair, lifts, "half-form",
                         delta_tilde_value=2 ** 0.5)
    assert abs(v2 - 2 ** 0.5) < 1e-12
    with pytest.raises(ValidationError):
        pairing_density(1.0, 1.0, 1.0, pair, lifts, "half-form",
                        delta_tilde_value=1.0)


def test_ball_point_validation():
    with pytest.raises(ValidationError):
        BallPoint(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
    with pytest.raises(ValidationError):
        BallPoint(np.array([[1.5]]))  # operator norm > 1
