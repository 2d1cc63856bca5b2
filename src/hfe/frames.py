"""Lagrangian-frame linear algebra.

A Lagrangian frame is stored as a pair of n x n complex matrices (U, V)
whose stacked columns (U; V) are the coordinates of n frame vectors in a
symplectic frame; the per-point kernels take stacks of frames, (P, n, n)
or (P, 2n, n), and raise for the first point that fails.  This module
provides validation (isotropy,
independence, positivity), the pairing determinant delta_k and its
D-adapted block versions, Ball membership, the metalinear automorphy
factor alpha-tilde, the continuous square root Gamma, and pointwise
pairing densities, whose Liouville volume is a determinant; the
bijection phi and the Ball action live in hfe.ball.
"""

from __future__ import annotations

import numpy as np

from . import ball
from .config import get_tolerances, identity_bound, zero_bound
from .errors import SingularityError, ValidationError, raise_first
from .groups import block_pattern, check_ml, shared_corner, tracked_alpha_det
from .smallmat import det, hermitian_extremes, inv
from .tracking import cdiv, cmul, track_sqrt


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
    matrix -i omega(conj u_i, u_j) has no negative eigenvalue).
    """
    tols = get_tolerances()
    if not U.shape[-1]:
        return np.ones(len(U), dtype=bool)
    axes = (-2, -1)
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(U), axis=axes),
                                       np.max(np.abs(V), axis=axes)))
    Ut, Vt = np.swapaxes(U, -1, -2), np.swapaxes(V, -1, -2)
    iso = np.max(np.abs(Ut @ V - Vt @ U), axis=axes)
    indep = det(Ut.conj() @ U + Vt.conj() @ V)
    raise_first([
        (iso > tols.rel * scale * scale, lambda p: ValidationError(
            f"frame not isotropic (residual {iso[p]:.3e})")),
        (~(np.abs(indep) > tols.singular),
         lambda p: ValidationError("frame vectors dependent")),
    ])
    H = 1j * (Vt.conj() @ U - Ut.conj() @ V)
    mineig, _ = hermitian_extremes(0.5 * (H + np.swapaxes(H, -1, -2).conj()))
    return mineig >= -tols.abs * scale * scale


def check_frame_pairs(S1: np.ndarray, S2: np.ndarray, k: int) -> None:
    """The pair test of the frames with stacked columns S1[p] and S2[p],
    stacks (P, 2n, n): their first k columns are real and shared.  Raises
    for the first pair that fails."""
    n = S1.shape[-1]
    if S2.shape[-1] != n or not (0 <= k <= n):
        raise ValidationError("pair dimension/k mismatch")
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
    determinant vanishes."""
    omega = standard_omega(S1.shape[-1])
    vals = det(
        -1j * (np.swapaxes(S1[..., k:], -1, -2).conj() @ omega @ S2[..., k:]))
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
    Ball, for two stacks (P, n, n) of Ball points, tracked as one stack
    of paths.

    The argument order is fixed so that the square of the meta pairing
    value equals the pairing determinant of the projected frames; with
    the opposite order the squared identity fails by a conjugation.
    Anchored at W1 = W2 = 0 with 2**(-n/2), which is forced by the
    squared identity; tracked along t -> det(1/2 (1 - t^2 W1* W2)).
    """
    P, n = len(W1), W1.shape[-1]
    if n == 0:
        return np.ones(P, dtype=complex)
    M = np.swapaxes(W1, -1, -2).conj() @ W2
    eye = np.eye(n)

    def f(t: np.ndarray) -> np.ndarray:
        return det(0.5 * (eye - (t * t)[None, :, None, None] * M[:, None]))

    return track_sqrt(f, np.full(P, 2.0 ** (-n / 2.0), dtype=complex))


def alpha_tilde(g: np.ndarray, zeta, W: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Metalinear automorphy factors (alpha(g[p], W[p]), z[p]) of the
    metaplectic elements (g[p], zeta[p]) at the Ball points W[p], for
    stacks g (P, 2n, 2n) and W (P, n, n), with the Ball action: the
    stacks (P, n, n) of g.W and of alpha and the (P,) roots, checked in
    one pass of check_ml.

    z[p] is continued from the anchor zeta[p] at the Ball center along
    the straight segment s -> s W[p] by square-root tracking of det
    alpha, all points as one stack of paths; g.W = (R + S W) alpha^{-1}
    (ball.cayley_blocks) takes its alpha.
    """
    z, a1 = tracked_alpha_det(g, W, zeta)
    check_ml(a1, z)
    _, _, R, S = ball.cayley_blocks(g)
    return (R + S @ W) @ inv(a1), a1, z


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
    (P, n, n) stacks; raises for the first pair that fails."""
    checks1, b1 = frame_pattern(U1, V1, k)
    checks2, b2 = frame_pattern(U2, V2, k)
    M = 1j * (np.swapaxes(b1["Vr"], -1, -2).conj() @ b2["Ur"]
              - np.swapaxes(b1["Ur"], -1, -2).conj() @ b2["Vr"])
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


def delta_L_tilde(W1, C1, z1, W2, C2, z2, k: int) -> np.ndarray:
    """Square-root pairing values of the meta frame pairs ((W1[p], (C1[p],
    z1[p])), (W2[p], (C2[p], z2[p]))) in block form, for stacks W, C (P,
    n, n) and roots z (P,); raises for the first pair that fails.

    Value: conj(z1) z2 |det A|^{-1} Gamma(W1r, W2r) on the reduced Ball
    points, the Gamma factors tracked as one stack of paths; its square
    is delta_L of the projected pair.
    """
    checks1, b1 = meta_pattern(W1, C1, k)
    checks2, b2 = meta_pattern(W2, C2, k)
    raise_first(checks1 + checks2 + shared_corner(b1["A"], b2["A"], k))
    return cmul(cdiv(cmul(np.conj(z1), z2), np.abs(b1["detA"])),
                gamma_stack(b1["Wr"], b2["Wr"]))


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
        raise_first([(np.abs(factor * factor - d)
                      > identity_bound(get_tolerances()) * np.abs(d),
                      lambda p: ValidationError("delta_tilde does not square to delta"))])
    vol = det(np.concatenate([S1[..., :k], lifts], axis=-1))
    return np.asarray(prequantum) * np.conj(nu1) * nu2 * factor * np.abs(vol)
