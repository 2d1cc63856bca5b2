"""Lagrangian-frame linear algebra.

A Lagrangian frame is stored as a pair of n x n complex matrices (U, V)
whose stacked columns (U; V) are the coordinates of n frame vectors in a
symplectic frame; the per-point kernels take stacks of frames, (P, n, n)
or (P, 2n, n), and raise for the first point that fails.  This module
provides validation (isotropy, independence, positivity), the pairing
determinant delta_k and its D-adapted block versions, Ball membership,
the metalinear automorphy factor alpha-tilde with the Ball point g.W
that it checks, the continuous square root Gamma, and pointwise pairing
densities, whose Liouville volume is a determinant; the bijection phi
and the Ball action live in hfe.ball.
"""

from __future__ import annotations

import numpy as np

from . import ball
from .config import get_tolerances, identity_bound, zero_bound
from .errors import SingularityError, ValidationError, raise_first
from .groups import block_pattern, ml_root_check, off_root, shared_corner, translation_factor
from .smallmat import det, hermitian_extremes, mul
from .tracking import cmul, track_sqrt


def standard_omega(n: int) -> np.ndarray:
    """The standard symplectic form of C^2n, omega(a_i, b_j) = delta_ij
    for the basis ordering (a_1..a_n, b_1..b_n)."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def validate_lagrangian(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Check the frames (U[p], V[p]) of two (P, n, n) stacks for isotropy
    and independence, raising for the first frame that fails; return the
    (P,) positivity verdicts.

    Isotropy is U^t V = V^t U; independence is det(U*U + V*V) != 0;
    positivity is PSD-ness of i(V*U - U*V) (equivalently, the hermitian
    matrix -i omega(conj u_i, u_j) has no negative eigenvalue).  Nothing
    warns: a residual that overflows is inf or NaN, and fails its check.
    """
    tols = get_tolerances()
    if not U.shape[-1]:
        return np.ones(len(U), dtype=bool)
    axes = (-2, -1)
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(U), axis=axes),
                                       np.max(np.abs(V), axis=axes)))
    Ut, Vt = np.swapaxes(U, -1, -2), np.swapaxes(V, -1, -2)
    with np.errstate(all="ignore"):
        iso = np.max(np.abs(mul(Ut, V) - mul(Vt, U)), axis=axes)
        indep = det(mul(Ut.conj(), U) + mul(Vt.conj(), V))
        scale2 = scale * scale
    raise_first([
        (~(iso <= tols.rel * scale2), lambda p: ValidationError(
            f"frame not isotropic (residual {iso[p]:.3e})")),
        (~(np.abs(indep) > tols.singular),
         lambda p: ValidationError("frame vectors dependent")),
    ])
    with np.errstate(all="ignore"):
        H = 1j * (mul(Vt.conj(), U) - mul(Ut.conj(), V))
        mineig, _ = hermitian_extremes(0.5 * (H + np.swapaxes(H, -1, -2).conj()))
        return mineig >= -tols.abs * scale2


def check_frame_pairs(S1: np.ndarray, S2: np.ndarray, k: int) -> None:
    """The pair test of the frames with stacked columns S1[p] and S2[p],
    stacks (P, 2n, n), for 0 <= k <= n (which loading requires of a
    frame pair): their first k columns are real and shared.  Raises for
    the first pair that fails."""
    if not k:
        return
    tol = get_tolerances().abs
    axes = (-2, -1)
    raise_first([
        ((np.max(np.abs(S1[..., :k].imag), axis=axes) > tol)
         | (np.max(np.abs(S2[..., :k].imag), axis=axes) > tol),
         lambda p: ValidationError("shared columns must be real")),
        (np.max(np.abs(S1[..., :k] - S2[..., :k]), axis=axes) > tol,
         lambda p: ValidationError("first k columns differ across the pair")),
    ])


def delta(S1: np.ndarray, S2: np.ndarray, k: int) -> list[complex]:
    """Pairing determinants det(-i omega(conj u_i, v_j)) over i, j > k of
    the frame pairs with stacked columns S1[p] and S2[p], stacks (P, 2n,
    n), for the standard form; raises for the first pair whose
    determinant vanishes, a NaN included.  Nothing warns."""
    omega = standard_omega(S1.shape[-1])
    with np.errstate(all="ignore"):
        vals = det(
            -1j * mul(mul(np.swapaxes(S1[..., k:], -1, -2).conj(), omega), S2[..., k:]))
    raise_first([(~(np.abs(vals) > get_tolerances().singular),
                  lambda p: SingularityError(
                      "pairing determinant vanishes (invalid pair)"))])
    return vals.tolist()


def ball_checks(W: np.ndarray) -> list:
    """The Ball membership checks of a stack W (P, n, n), for
    raise_first: every W[p] is symmetric and of operator norm at most 1."""
    tols = get_tolerances()
    sym, excess = ball.ball_point_residuals(W)
    scale = np.maximum(1.0, np.max(np.abs(W), axis=(-2, -1))) if W.shape[-1] else 1.0
    return [
        (~(sym <= tols.abs * scale),
         lambda p: ValidationError("Ball point not symmetric")),
        (~(excess <= tols.abs),
         lambda p: ValidationError("Ball point has operator norm > 1")),
    ]


def check_ball(W: np.ndarray) -> None:
    """The Ball membership test of a stack W (see ball_checks): raises
    for the first point that fails."""
    raise_first(ball_checks(W))


def gamma_stack(W1: np.ndarray, W2: np.ndarray) -> np.ndarray:
    """Continuous square roots of det(1/2 (1 - W1[p]* W2[p])) on Ball x
    Ball, for two stacks (P, n, n) of Ball points, as one stack of paths.

    The argument order is fixed so that the square of the meta pairing
    value equals the pairing determinant of the projected frames; with
    the opposite order the squared identity fails by a conjugation.
    Anchored at W1 = W2 = 0 with 2**(-n/2), which is forced by the
    squared identity; continued along t -> 1/2 (1 - t^2 M), M = W1* W2,
    which is straight in s = t^2: 2**(-n/2) prod sqrt(1 - eig M).
    """
    P, n = len(W1), W1.shape[-1]
    M = mul(np.swapaxes(W1, -1, -2).conj(), W2)
    ends = 0.5 * (np.eye(n) - np.array([0.0, 1.0])[:, None, None] * M[:, None])
    # track_sqrt reads its path at s = 0 and 1 only: the ends made here
    return track_sqrt(lambda s: ends, np.full(P, 2.0 ** (-n / 2.0), dtype=complex),
                      det(ends[:, 0]))


def alpha_tilde(g: np.ndarray, zeta, W: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Metalinear automorphy factors (alpha(g[p], W[p]), z[p]) of the
    metaplectic elements (g[p], zeta[p]) at the Ball points W[p], for
    stacks g (P, 2n, 2n) and W (P, n, n), with the Ball action: the
    stacks (P, n, n) of g.W and of alpha and the (P,) roots, all of
    ball.automorphy (z[p] continued from zeta[p] along s -> s W[p]); the
    roots get ml_root_check on its determinants, and g.W check_ball.
    """
    gW, alpha, dets, z = ball.automorphy(g, W, zeta)
    raise_first([ml_root_check(z, dets)])
    check_ball(gW)
    return gW, alpha, z


# ---------------------------------------------------------------------------
# D-adapted block forms
# ---------------------------------------------------------------------------

def frame_pattern(U: np.ndarray, V: np.ndarray, k: int):
    """The block-pattern checks of frames (U[p], V[p]) in D-adapted form,
    U = (A B; 0 Ur), V = (0 0; 0 Vr) with A real invertible k x k, for
    stacks (P, n, n), and their blocks as stacks."""
    tols = get_tolerances()
    n = U.shape[-1]
    head, tail, rows = slice(0, k), slice(k, n), slice(0, n)
    checks, A, _ = block_pattern(
        [("V does not vanish on the D-block", V, [(rows, head), (head, tail)], tols.abs),
         ("U lower-left block nonzero", U, [(tail, head)], tols.abs)],
        U, k)
    return checks, {"A": A, "B": U[:, :k, k:], "Ur": U[:, k:, k:], "Vr": V[:, k:, k:]}


def delta_L_stack(U1, V1, U2, V2, k: int) -> list[complex]:
    """delta_L of the frame pairs ((U1[p], V1[p]), (U2[p], V2[p])) of four
    (P, n, n) stacks; raises for the first pair that fails.  Nothing
    warns."""
    checks1, b1 = frame_pattern(U1, V1, k)
    checks2, b2 = frame_pattern(U2, V2, k)
    with np.errstate(all="ignore"):
        M = 1j * (mul(np.swapaxes(b1["Vr"], -1, -2).conj(), b2["Ur"])
                  - mul(np.swapaxes(b1["Ur"], -1, -2).conj(), b2["Vr"]))
    vals = det(M)
    raise_first(checks1 + checks2 + shared_corner(b1["A"], b2["A"], k) + [
        (~(np.abs(vals) > get_tolerances().singular),
         lambda p: SingularityError("reduced pairing determinant vanishes"))])
    return vals.tolist()


def meta_pattern(W: np.ndarray, C: np.ndarray, k: int):
    """The block-pattern checks of meta frames (W[p], C[p]) in block form,
    W = diag(1_k, Wr) and C = (A B; 0 Cr) with A real invertible, for
    stacks (P, n, n), and their blocks as stacks with detA (P,)."""
    tols = get_tolerances()
    n = W.shape[-1]
    head, tail, rows = slice(0, k), slice(k, n), slice(0, n)
    unit = np.zeros((n, n))
    unit[:k, :k] = np.eye(k)
    checks, A, detA = block_pattern(
        [("W not of the form diag(1, Wr)", W - unit, [(head, rows), (tail, head)],
          zero_bound(tols)),
         ("C lower-left block nonzero", C, [(tail, head)], tols.abs)],
        C, k, "C's A-block not real")
    return checks, {"A": A, "detA": detA, "B": C[:, :k, k:], "Cr": C[:, k:, k:],
                    "Wr": W[:, k:, k:]}


def meta_pair_factor(W1, C1, z1, W2, C2, z2, k: int):
    """The factors conj(z1) z2 |det A|^{-1} (translation_factor) of the
    square-root pairing values of meta frame pairs in block form (see
    delta_L_tilde), after their block-pattern checks, and the reduced
    Ball points W1r, W2r whose Gamma completes them; raises for the
    first pair that fails."""
    checks1, b1 = meta_pattern(W1, C1, k)
    checks2, b2 = meta_pattern(W2, C2, k)
    raise_first(checks1 + checks2 + shared_corner(b1["A"], b2["A"], k))
    return translation_factor(z1, z2, b1["detA"]), b1["Wr"], b2["Wr"]


def delta_L_tilde(W1, C1, z1, W2, C2, z2, k: int) -> np.ndarray:
    """Square-root pairing values of the meta frame pairs ((W1[p], (C1[p],
    z1[p])), (W2[p], (C2[p], z2[p]))) in block form, for stacks W, C (P,
    n, n) and roots z (P,); raises for the first pair that fails.

    Value: conj(z1) z2 |det A|^{-1} Gamma(W1r, W2r) on the reduced Ball
    points, the Gamma factors taken as one stack of paths; its square
    is delta_L of the projected pair.
    """
    factor, W1r, W2r = meta_pair_factor(W1, C1, z1, W2, C2, z2, k)
    return cmul(factor, gamma_stack(W1r, W2r))


# ---------------------------------------------------------------------------
# pairing densities
# ---------------------------------------------------------------------------

def pairing_density(prequantum, nu1, nu2, S1: np.ndarray, S2: np.ndarray, k: int,
                    lifts: np.ndarray, delta_tilde=None) -> np.ndarray:
    """Pointwise pairing densities of pairs of polarized sections whose
    frames have the stacked columns S1[p] and S2[p], stacks (P, 2n, n)
    sharing their first k columns, for values prequantum, nu1, nu2 (P,)
    and a stack lifts (P, 2n, 2n - k) of vectors completing the shared
    columns; raises for the first pair that fails.

    Returns <s1, s2> conj(nu1) nu2 * factor * |Lambda(u_1..u_k, lifts)|,
    where the factor is sqrt|delta_k| (half-density), or in half-form
    the given square roots delta_tilde (P,), checked to square to
    delta_k.  The Liouville volume of 2n vectors X is det X: for the
    standard form Pf(X^t omega X) = det X Pf(omega), and the prefactor
    (-1)**(n(n-1)/2) of the volume form is Pf(omega).
    """
    check_frame_pairs(S1, S2, k)
    d = np.array(delta(S1, S2, k))
    if delta_tilde is None:
        factor = np.sqrt(np.abs(d))
    else:
        factor = np.asarray(delta_tilde, dtype=complex)
        raise_first([(off_root(factor, d, identity_bound(get_tolerances())),
                      lambda p: ValidationError("delta_tilde does not square to delta"))])
    vol = det(np.concatenate([S1[..., :k], lifts], axis=-1))
    return np.asarray(prequantum) * np.conj(nu1) * nu2 * factor * np.abs(vol)
