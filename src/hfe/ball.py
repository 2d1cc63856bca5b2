"""Raw Siegel-Ball linear algebra on plain ndarrays.

The bijection between positive Lagrangian frame coordinates (U, V) and
Ball x Gl(n,C) is

    phi(U, V)   = ((U + iV)(U - iV)^{-1}, U - iV)
    phi_inv(W,C) = (1/2 (1 + W) C, i/2 (1 - W) C)

A real symplectic matrix g = (T1 T2; T3 T4) acts on frames by

    g . (U, V) = (T1 U + T2 V, T3 U + T4 V)

and through phi this induces the Ball action g.W together with the
automorphy factor alpha(g, W) defined by g.(W, C) = (g.W, alpha(g,W) C).
In closed form, alpha(g, W) = P + Q W and g.W = (R + S W) alpha(g, W)^{-1}
with the blocks P, Q, R, S of cayley_blocks, all taken by automorphy.

Everything here is a pure function of ndarrays.  The n x n arguments U,
V, W and C may carry leading stack axes, which broadcast like np.matmul;
so may g.
"""

from __future__ import annotations

import numpy as np

from .config import get_tolerances
from .errors import SingularityError
from .smallmat import cabs, det, inv, mul, opnorm
from .tracking import track_sqrt


def sp_blocks(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a 2n x 2n matrix, or a stack of them, into its four n x n
    blocks (T1, T2; T3, T4)."""
    g = np.asarray(g)
    n = g.shape[-1] // 2
    return g[..., :n, :n], g[..., :n, n:], g[..., n:, :n], g[..., n:, n:]


def sp_apply(g: np.ndarray, U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left action of a symplectic matrix on frame coordinates (U, V)."""
    T1, T2, T3, T4 = sp_blocks(g)
    return mul(T1, U) + mul(T2, V), mul(T3, U) + mul(T4, V)


def check_positive(dets: np.ndarray) -> None:
    """Raise SingularityError if a determinant of U - iV (equivalently of
    alpha(g, W)) is NaN or within the ``singular`` tolerance of zero."""
    if np.any(~(cabs(dets) > get_tolerances().singular)):
        raise SingularityError("U - iV is singular (frame not positive)")


def phi_raw(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi(U, V) = ((U+iV)(U-iV)^{-1}, U-iV) and det(U-iV), check_positive's."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    C = U - 1j * V
    dets = det(C)
    check_positive(dets)
    return mul(U + 1j * V, inv(C, dets)), C, dets


def phi_inv_raw(W: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi_inv(W, C) = (1/2 (1+W) C, i/2 (1-W) C)."""
    W = np.asarray(W, dtype=complex)
    C = np.asarray(C, dtype=complex)
    eye = np.eye(W.shape[-1])
    with np.errstate(all="ignore"):
        return mul(0.5 * (eye + W), C), mul(0.5j * (eye - W), C)


def cayley_blocks(g: np.ndarray) -> tuple[np.ndarray, ...]:
    """The n x n blocks (P, Q, R, S) of g in the Ball picture, with
    alpha(g, W) = P + Q W and g.W = (R + S W) alpha(g, W)^{-1}:
    P = 1/2 [(T1 + T4) + i(T2 - T3)], Q = 1/2 [(T1 - T4) - i(T2 + T3)],
    R = 1/2 [(T1 - T4) + i(T2 + T3)], S = 1/2 [(T1 + T4) - i(T2 - T3)];
    for a real g, R = conj Q and S = conj P."""
    T1, T2, T3, T4 = sp_blocks(g)
    with np.errstate(all="ignore"):
        plus, minus, skew, sym = T1 + T4, T1 - T4, 1j * (T2 - T3), 1j * (T2 + T3)
        return 0.5 * (plus + skew), 0.5 * (minus - sym), 0.5 * (minus + sym), 0.5 * (plus - skew)


def automorphy(g: np.ndarray, W: np.ndarray, zeta=None) -> tuple:
    """The one kernel of the automorphy factor: returns g.W, alpha(g, W),
    det alpha(g, W) and, given anchors zeta (P,) with zeta[p]**2 = det
    alpha(g[p], 0), their roots continued along the straight paths
    alpha(g, sW) = P + s QW, s in [0, 1], by track_sqrt (else None).  The
    blocks, both ends of the path and their determinants are each taken
    once; both determinants get check_positive, track_sqrt takes the one
    at s = 0, and g.W's inverse and the roots' callers the one at s = 1."""
    P, Q, R, S = cayley_blocks(g)
    QW = mul(Q, W)
    ends = P[..., None, :, :] + np.array([0.0, 1.0])[:, None, None] * QW[..., None, :, :]
    dets = det(ends)
    check_positive(dets)
    alpha, d = ends[..., 1, :, :], dets[..., 1]
    # track_sqrt reads its path at s = 0 and 1 only: the ends made here
    roots = None if zeta is None else track_sqrt(lambda s: ends, zeta, dets[..., 0])
    return mul(R + mul(S, W), inv(alpha, d)), alpha, d, roots


def alpha_raw(g: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ball action and automorphy factor: (g.W, alpha(g, W)) of
    automorphy, whose SingularityError it raises."""
    return automorphy(g, W)[:2]


def ball_point_residuals(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetry residuals and operator-norm excesses over 1 of a stack of
    Ball points W (P, n, n), as (P,) arrays."""
    W = np.asarray(W, dtype=complex)
    if not W.shape[-1]:
        return np.zeros(len(W)), np.zeros(len(W))
    sym = np.max(np.abs(W - np.swapaxes(W, -1, -2)), axis=(-2, -1))
    norm = opnorm(W)
    return sym, np.maximum(0.0, norm - 1.0)
