"""Raw Siegel-Ball linear algebra on plain ndarrays.

The bijection between positive Lagrangian frame coordinates (U, V) and
Ball x Gl(n,C) is

    phi(U, V)   = ((U + iV)(U - iV)^{-1}, U - iV)
    phi_inv(W,C) = (1/2 (1 + W) C, i/2 (1 - W) C)

A real symplectic matrix g = (T1 T2; T3 T4) acts on frames by

    g . (U, V) = (T1 U + T2 V, T3 U + T4 V)

and through phi this induces the Ball action g.W together with the
automorphy factor alpha(g, W) defined by g.(W, C) = (g.W, alpha(g,W) C).

Everything here is a pure function of ndarrays.  The n x n arguments U,
V, W and C may carry leading stack axes, which broadcast like np.matmul;
so may g.
"""

from __future__ import annotations

import numpy as np

from .config import get_tolerances
from .errors import SingularityError, ValidationError


def sp_blocks(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a 2n x 2n matrix, or a stack of them, into its four n x n
    blocks (T1, T2; T3, T4)."""
    g = np.asarray(g)
    m = g.shape[-1]
    if g.ndim < 2 or g.shape[-2] != m or m % 2 != 0:
        raise ValidationError("expected a square even-dimensional matrix")
    n = m // 2
    return g[..., :n, :n], g[..., :n, n:], g[..., n:, :n], g[..., n:, n:]


def sp_apply(g: np.ndarray, U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left action of a symplectic matrix on frame coordinates (U, V)."""
    T1, T2, T3, T4 = sp_blocks(g)
    return T1 @ U + T2 @ V, T3 @ U + T4 @ V


def phi_raw(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(U, V) = ((U+iV)(U-iV)^{-1}, U-iV); requires U-iV invertible."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    C = U - 1j * V
    tols = get_tolerances()
    if np.any(np.abs(np.linalg.det(C)) <= tols.singular):
        raise SingularityError("U - iV is singular (frame not positive)")
    W = (U + 1j * V) @ np.linalg.inv(C)
    return W, C


def phi_inv_raw(W: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi_inv(W, C) = (1/2 (1+W) C, i/2 (1-W) C)."""
    W = np.asarray(W, dtype=complex)
    C = np.asarray(C, dtype=complex)
    eye = np.eye(W.shape[-1])
    return 0.5 * (eye + W) @ C, 0.5j * (eye - W) @ C


def alpha_raw(g: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ball action and automorphy factor: returns (g.W, alpha(g, W)).

    Computed by pushing (W, I) through phi_inv, acting, and reading off
    phi of the result.
    """
    U, V = phi_inv_raw(W, np.eye(np.shape(W)[-1]))
    U2, V2 = sp_apply(g, U, V)
    return phi_raw(U2, V2)


def ball_point_residuals(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetry residuals and operator-norm excesses over 1 of a stack of
    Ball points W (P, n, n), as (P,) arrays."""
    W = np.asarray(W, dtype=complex)
    if not W.shape[-1]:
        return np.zeros(len(W)), np.zeros(len(W))
    sym = np.max(np.abs(W - np.swapaxes(W, -1, -2)), axis=(-2, -1))
    norm = np.linalg.norm(W, 2, axis=(-2, -1))
    return sym, np.maximum(0.0, norm - 1.0)
