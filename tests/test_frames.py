from cmath import sqrt as principal_sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfe import ball
from hfe.config import tolerance_overrides
from hfe.errors import SingularityError, SubgroupRejection, ValidationError
from hfe.frames import (
    alpha_tilde,
    check_ball,
    check_frame_pairs,
    delta,
    delta_L_stack,
    delta_L_tilde,
    gamma_stack,
    pairing_density,
    standard_omega,
    validate_lagrangian,
)
from hfe.groups import ml_mul

from helpers import (
    delta_L_from_wc,
    gamma_two_legs,
    normal_complex,
    random_ball_point,
    random_gl,
    random_gl_real,
    random_positive_frame,
    random_sp,
)

VERT = (np.array([[0.0]]), np.array([[1.0]]))
HORIZ = (np.array([[1.0]]), np.array([[0.0]]))
HOLO = (np.array([[1.0]]), np.array([[1j]]))


def _columns(U, V):
    """The stacked columns (U; V) of a frame, as a stack of one."""
    return np.vstack([U, V]).astype(complex)[None]


def _delta(f1, f2, k=0):
    """delta of one frame pair, checked as a pair first."""
    S1, S2 = _columns(*f1), _columns(*f2)
    check_frame_pairs(S1, S2, k)
    return delta(S1, S2, k)[0]


def test_validate_rejects_nonisotropic():
    U = np.eye(2)
    V = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        validate_lagrangian(U[None], V[None])


def test_validate_rejects_a_frame_whose_gram_determinant_overflows():
    # det(U* U + V* V) is inf - inf = NaN here, and must not pass
    U = np.array([[[1e100, 1e100], [1e100, 2e100]]], dtype=complex)
    with pytest.raises(ValidationError, match="dependent"):
        validate_lagrangian(U, np.zeros_like(U))


def test_validate_rejects_a_frame_whose_isotropy_residual_overflows():
    # U^t V - V^t U is inf - inf = NaN here, which the negated isotropy
    # check fails, without a warning
    U = np.array([[[1e200]]], dtype=complex)
    with pytest.raises(ValidationError, match=r"not isotropic \(residual nan\)"):
        validate_lagrangian(U, 1j * U)


def test_validate_positivity_verdict():
    U, V = np.array([[[1.0]], [[1.0]]]), np.array([[[1j]], [[-1j]]])
    assert validate_lagrangian(U, V).tolist() == [True, False]


def test_delta_axis_values():
    assert abs(_delta(VERT, HORIZ) - 1j) < 1e-12
    assert abs(_delta(HORIZ, VERT) + 1j) < 1e-12
    assert abs(_delta(HOLO, HOLO) - 2.0) < 1e-12


def test_delta_shared_columns_k_equals_n():
    assert _delta(VERT, VERT, k=1) == 1.0


def test_pair_rejects_differing_shared_columns():
    with pytest.raises(ValidationError):
        _delta(VERT, HORIZ, k=1)


def test_delta_singular_bound_is_inclusive():
    # |delta| = |delta_L| = 0.5 exactly: vanishing at singular = 0.5, as
    # every other singular guard counts |value| <= singular
    (U1, V1), (U2, V2) = HORIZ, (np.array([[1.0]]), np.array([[0.5]]))
    S1, S2 = _columns(U1, V1), _columns(U2, V2)
    assert abs(delta(S1, S2, 0)[0]) == 0.5
    assert abs(delta_L_stack(U1[None], V1[None], U2[None], V2[None], 0)[0]) == 0.5
    with tolerance_overrides(singular=0.5):
        with pytest.raises(SingularityError, match="pairing determinant vanishes"):
            delta(S1, S2, 0)
        with pytest.raises(SingularityError, match="reduced pairing determinant"):
            delta_L_stack(U1[None], V1[None], U2[None], V2[None], 0)


def test_phi_anchor_and_roundtrip(rng):
    W, C, _ = ball.phi_raw(*HOLO)
    assert np.max(np.abs(W)) < 1e-12
    assert abs(C[0, 0] - 2.0) < 1e-12
    for _ in range(50):
        n = int(rng.integers(1, 5))
        U0, V0 = random_positive_frame(rng, n)
        W, C, _ = ball.phi_raw(U0, V0)
        check_ball(W[None])
        U, V = ball.phi_inv_raw(W, C)
        assert np.max(np.abs(U - U0)) < 1e-10
        assert np.max(np.abs(V - V0)) < 1e-10


def test_phi_inv_left_inverse(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        W = random_ball_point(rng, n)
        C = random_gl(rng, n)
        U, V = ball.phi_inv_raw(W, C)
        assert validate_lagrangian(U[None], V[None])[0]
        W2, C2, _ = ball.phi_raw(U, V)
        assert np.max(np.abs(W2 - W)) < 1e-10
        assert np.max(np.abs(C2 - C)) < 1e-10


def test_alpha_is_automorphy_cocycle(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        g, h = random_sp(rng, n), random_sp(rng, n)
        W = random_ball_point(rng, n)
        hW, ah = ball.alpha_raw(h, W)
        _, ag = ball.alpha_raw(g, hW)
        _, agh = ball.alpha_raw(g @ h, W)
        scale = max(1.0, float(np.max(np.abs(ag @ ah))))
        assert np.max(np.abs(agh - ag @ ah)) < 1e-8 * scale


def _alpha_by_frames(g, W):
    """(g.W, alpha(g, W)) the long way: (W, 1) through phi_inv, the
    action on frames, and phi of the result."""
    U, V = ball.phi_inv_raw(W, np.eye(W.shape[-1]))
    return ball.phi_raw(*ball.sp_apply(g, U, V))[:2]


def _ball_maps(fn, g, W):
    """fn(g, W), or the class and message of the SingularityError."""
    try:
        return fn(g, W)
    except SingularityError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_closed_form_alpha_matches_the_frame_round_trip(n, P, seed, singular):
    rng = np.random.default_rng(seed)
    g = np.stack([random_sp(rng, n) for _ in range(P)])
    W = np.stack([random_ball_point(rng, n) for _ in range(P)])
    if singular:
        # W = -Q^{-1} P, outside the Ball, zeroes alpha = P + Q W
        p = int(rng.integers(P))
        T1, T2, T3, T4 = ball.sp_blocks(g[p])
        W[p] = -np.linalg.solve(0.5 * ((T1 - T4) - 1j * (T2 + T3)),
                                0.5 * ((T1 + T4) + 1j * (T2 - T3)))
    # At W = -Q^{-1} P both sides leave a rounding residue of about
    # eps * |g| in alpha; a regular point of the 0.9-Ball has
    # |det alpha| >= 0.1**n, so 1e-4 separates the two for every n <= 3.
    with tolerance_overrides(singular=1e-4):
        got = _ball_maps(ball.alpha_raw, g, W)
        want = _ball_maps(_alpha_by_frames, g, W)
    if singular:
        assert got == want == (SingularityError, "U - iV is singular (frame not positive)")
        return
    scale = np.max(np.abs(g), axis=(-2, -1))[:, None, None]
    for a, b in zip(got, want):
        assert np.all(np.abs(a - b) <= 1e-13 * scale)


def test_ball_maps_broadcast_over_stacks(rng):
    # a stack of Ball points gives the stack of the pointwise results
    g = random_sp(rng, 2)
    Ws = np.stack([random_ball_point(rng, 2) for _ in range(5)])
    gWs, As = ball.alpha_raw(g, Ws)
    for W, gW, A in zip(Ws, gWs, As):
        gW1, A1 = ball.alpha_raw(g, W)
        assert np.max(np.abs(gW - gW1)) < 1e-12
        assert np.max(np.abs(A - A1)) < 1e-12
    # one singular member of a stack trips the guard
    U = np.stack([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(SingularityError):
        ball.phi_raw(U, np.zeros((2, 2, 2)))


def test_alpha_moves_frames_consistently(rng):
    # phi(g . frame) = (g.W, alpha(g, W) C)
    g = random_sp(rng, 2)
    U, V = random_positive_frame(rng, 2)
    W, C, _ = ball.phi_raw(U, V)
    gU, gV = ball.sp_apply(g, U, V)
    W2, C2, _ = ball.phi_raw(gU, gV)
    gW, a = ball.alpha_raw(g, W)
    check_ball(gW[None])
    assert np.max(np.abs(W2 - gW)) < 1e-9
    assert np.max(np.abs(C2 - a @ C)) < 1e-9


def test_alpha_tilde_projection_and_deck(rng):
    g = random_sp(rng, 2)
    _, a0 = ball.alpha_raw(g, np.zeros((2, 2)))
    zeta = principal_sqrt(np.linalg.det(a0))
    W = random_ball_point(rng, 2)
    _, A, z = alpha_tilde(g[None], [zeta], W[None])
    _, am = ball.alpha_raw(g, W)
    assert np.array_equal(A[0], am)
    deck = alpha_tilde(g[None], [-zeta], W[None])[1:]
    flipped, zf = ml_mul(A, z, np.eye(2)[None], [-1.0])
    assert np.array_equal(deck[0], flipped)
    assert deck[1] == zf


def test_gamma_anchor_and_square(rng):
    for n in (1, 3):
        origin = np.zeros((1, n, n))
        assert abs(gamma_stack(origin, origin)[0] - 2 ** (-n / 2)) < 1e-12
    for _ in range(50):
        n = int(rng.integers(1, 5))
        W1, W2 = random_ball_point(rng, n), random_ball_point(rng, n)
        v, = gamma_stack(W1[None], W2[None])
        target = np.linalg.det(0.5 * (np.eye(n) - W1.conj().T @ W2))
        assert abs(v * v - target) < 1e-9 * max(1.0, abs(target))
        assert abs(v - gamma_two_legs(W1[None], W2[None], 0.5)[0]) < 1e-8


def test_delta_L_restriction_matches_ambient(rng):
    # on block-form frames the reduced pairing determinant equals the
    # ambient one
    for _ in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n + 1))
        A = random_gl_real(rng, k)
        frames = []
        for _ in range(2):
            B = normal_complex(rng, (k, n - k))
            Ur, Vr = random_positive_frame(rng, n - k)
            U = np.zeros((n, n), dtype=complex)
            V = np.zeros((n, n), dtype=complex)
            U[:k, :k] = A
            U[:k, k:] = B
            U[k:, k:] = Ur
            V[k:, k:] = Vr
            validate_lagrangian(U[None], V[None])
            frames.append((U, V))
        amb = _delta(frames[0], frames[1], k)
        (U1, V1), (U2, V2) = frames
        red = delta_L_stack(U1[None], V1[None], U2[None], V2[None], k)[0]
        assert abs(amb - red) < 1e-9 * max(1.0, abs(red))


def test_delta_L_rejects_bad_block_pattern():
    U = np.array([[1.0, 0.0], [0.5, 1.0]])
    V = np.array([[0.0, 0.0], [0.0, 1j]])
    with pytest.raises(SubgroupRejection):
        delta_L_stack(U[None], V[None], U[None], V[None], 1)


def _block_meta(rng, n, k, A):
    B = normal_complex(rng, (k, n - k))
    Wr = random_ball_point(rng, n - k)
    Cr = random_gl(rng, n - k)
    W = np.zeros((n, n), dtype=complex)
    W[:k, :k] = np.eye(k)
    W[k:, k:] = Wr
    C = np.zeros((n, n), dtype=complex)
    C[:k, :k] = A
    C[:k, k:] = B
    C[k:, k:] = Cr
    return W, C, principal_sqrt(np.linalg.det(C))


def test_delta_L_tilde_squares_to_delta_L(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n + 1))
        A = random_gl_real(rng, k)
        X1, X2 = _block_meta(rng, n, k, A), _block_meta(rng, n, k, A)
        (W1, C1, z1), (W2, C2, z2) = X1, X2
        check_ball(np.array([W1, W2]))
        v, = delta_L_tilde(W1[None], C1[None], [z1], W2[None], C2[None], [z2], k)
        f1 = ball.phi_inv_raw(W1, C1)
        f2 = ball.phi_inv_raw(W2, C2)
        target = delta_L_stack(f1[0][None], f1[1][None], f2[0][None], f2[1][None], k)[0]
        assert abs(v * v - target) < 1e-9 * max(1.0, abs(target))
        via_wc = delta_L_from_wc((W1, C1), (W2, C2), k)
        assert abs(via_wc - target) < 1e-9 * max(1.0, abs(target))


def _pfaffian(M: np.ndarray) -> complex:
    """Pfaffian by recursive first-row expansion (exact sign handling)."""
    m = M.shape[0]
    if m == 0:
        return 1.0 + 0j
    if m % 2 == 1:
        return 0.0 + 0j
    if m == 2:
        return complex(M[0, 1])
    total = 0.0 + 0j
    rest = list(range(1, m))
    for idx, j in enumerate(rest):
        keep = [r for r in rest if r != j]
        minor = M[np.ix_(keep, keep)]
        total += (-1.0) ** idx * M[0, j] * _pfaffian(minor)
    return total


def test_liouville_volume_is_a_determinant(rng):
    # the Liouville volume of 2n vectors X, (-1)**(n(n-1)/2) Pf(X^t omega X),
    # is det X, which pairing_density takes it as
    for n in (1, 2, 3):
        sign = (-1.0) ** (n * (n - 1) // 2)
        omega = standard_omega(n)
        # the prefactor gives the standard symplectic basis volume +1
        assert abs(sign * _pfaffian(omega) - 1.0) < 1e-12
        for _ in range(20):
            X = normal_complex(rng, (2 * n, 2 * n))
            det = np.linalg.det(X)
            pf = sign * _pfaffian(X.T @ omega @ X)
            assert abs(pf - det) < 1e-12 * max(1.0, abs(det))


def test_pairing_density_anchor():
    S = _columns(*HOLO)
    lifts = np.eye(2)[None]
    one = np.ones(1)
    v, = pairing_density(one, one, one, S, S, 0, lifts)
    assert abs(v - 2 ** 0.5) < 1e-12
    v2, = pairing_density(one, one, one, S, S, 0, lifts, delta_tilde=[2 ** 0.5])
    assert abs(v2 - 2 ** 0.5) < 1e-12
    # a NaN root returned nan+nanj, and an overflowing square warned
    for root in (1.0, np.nan, 1e200):
        with pytest.raises(ValidationError):
            pairing_density(one, one, one, S, S, 0, lifts, delta_tilde=[root])
    # the frames must share their first k columns
    with pytest.raises(ValidationError):
        pairing_density(one, one, one, _columns(*VERT), _columns(*HORIZ), 1,
                        np.array([[[1.0], [0.0]]]))


def _density_stack(n, k, P=3):
    """P seeded pairs of frames' stacked columns (P, 2n, n) sharing their
    real first k columns, lifts (P, 2n, 2n - k), the values (P,) of the
    prequantum pairing and of nu1, nu2, and signed roots of delta."""
    rng = np.random.default_rng(1000 * n + k)
    shared = rng.standard_normal((P, 2 * n, k))
    S1 = np.concatenate([shared, normal_complex(rng, (P, 2 * n, n - k))], axis=-1)
    S2 = np.concatenate([shared, normal_complex(rng, (P, 2 * n, n - k))], axis=-1)
    lifts = rng.standard_normal((P, 2 * n, 2 * n - k))
    preq, nu1, nu2 = normal_complex(rng, (3, P))
    signs = rng.choice([-1.0, 1.0], P)
    dt = signs * np.array([principal_sqrt(d) for d in delta(S1, S2, k)])
    return preq, nu1, nu2, S1, S2, lifts, dt


# Row by row, the half-density and the half-form densities of
# _density_stack(n, k) by the scalar pairing_density this stacked one
# replaced, which took the Liouville volume as a Pfaffian.
_SCALAR_DENSITIES = {
    (1, 0): (
        [(0.12252779801330825-0.25162068171557567j),
         (-1.2029156954132634-4.993402884707145j),
         (1.2763687956444498-1.0924798883126747j)],
        [(0.06079193488465072+0.2731855951655971j),
         (-4.560115704953135+2.3635615703241153j),
         (-1.6344133979028599+0.38900186839932493j)],
    ),
    (1, 1): (
        [(-0.2781154128450466-0.23877195479408989j),
         (-0.21855888139687643-0.2496872000080196j),
         (-9.086085618704638-3.335049744210414j)],
        [(0.2781154128450466+0.23877195479408989j),
         (0.21855888139687643+0.2496872000080196j),
         (9.086085618704638+3.335049744210414j)],
    ),
    (2, 1): (
        [(0.7006353102399654+1.0167645214015564j),
         (1.3143557406831345+0.18080097992218305j),
         (-6.670355457523936-37.05241890473414j)],
        [(1.009113034261766-0.7116114206636935j),
         (1.2886721602490816-0.31550605510274693j),
         (24.193122068053203+28.845592960136848j)],
    ),
    (3, 0): (
        [(-14.268183094291576+78.67042467593578j),
         (-29.81827702757957-53.629280608722844j),
         (-27.505498127551085+10.928945443560156j)],
        [(72.38878028964196-33.948214322439085j),
         (54.12885840233811+28.901489089011417j),
         (-2.1110288376908635-29.521819608544934j)],
    ),
    (3, 2): (
        [(-23.80237178035479-41.38661512779466j),
         (34.44147716039736+32.42881614083583j),
         (-28.471657902667154+24.78586972575412j)],
        [(8.390440546997764-47.00005661202683j),
         (0.39821568791026557-47.304174123984126j),
         (-37.68883752707537+2.1274791764617516j)],
    ),
}


@pytest.mark.parametrize("n, k", sorted(_SCALAR_DENSITIES))
def test_stacked_density_matches_the_scalar_kernel(n, k):
    preq, nu1, nu2, S1, S2, lifts, dt = _density_stack(n, k)
    half_density, half_form = _SCALAR_DENSITIES[n, k]
    for got, want in ((pairing_density(preq, nu1, nu2, S1, S2, k, lifts), half_density),
                      (pairing_density(preq, nu1, nu2, S1, S2, k, lifts, dt), half_form)):
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
    # a root of the wrong size in one row fails the whole stack
    dt[1] *= 2
    with pytest.raises(ValidationError, match="does not square"):
        pairing_density(preq, nu1, nu2, S1, S2, k, lifts, dt)


def test_ball_point_validation():
    with pytest.raises(ValidationError):
        check_ball(np.array([[[0.0, 1.0], [0.0, 0.0]]]))  # not symmetric
    with pytest.raises(ValidationError):
        check_ball(np.array([[[1.5]]]))  # operator norm > 1


@pytest.mark.parametrize("W", [np.array([[1e160]]), 1e160 * np.eye(2),
                               np.array([[0.5, 1e300], [1e300, 0.5]])],
                         ids=["n=1", "n=2", "n=2-off-diagonal"])
def test_ball_point_whose_square_overflows_is_rejected(W):
    # W* W overflows, and the norm must still be finite and fail the test
    _, excess = ball.ball_point_residuals(W[None])
    assert np.isfinite(excess).all()
    with pytest.raises(ValidationError, match="operator norm > 1"):
        check_ball(W[None])


def test_ball_point_with_a_nan_residual_is_rejected(monkeypatch):
    # a NaN residual fails both Ball checks rather than passing them
    nan = np.array([np.nan])
    monkeypatch.setattr(ball, "ball_point_residuals", lambda W: (np.zeros(1), nan))
    with pytest.raises(ValidationError, match="operator norm > 1"):
        check_ball(np.zeros((1, 1, 1)))
    monkeypatch.setattr(ball, "ball_point_residuals", lambda W: (nan, np.zeros(1)))
    with pytest.raises(ValidationError, match="not symmetric"):
        check_ball(np.zeros((1, 1, 1)))
