"""Linear algebra over stacks (..., m, m): closed forms for m <= 2, so that
n <= 2 data runs no LAPACK code; np.linalg, looked up at call time, for
m > 2.  Nothing warns: an overflow leaves an inf or NaN for the caller."""

import numpy as np


def det(A) -> np.ndarray:
    """The determinants, of np.linalg.det's dtype (ones for m = 0)."""
    A = np.asarray(A)
    with np.errstate(all="ignore"):
        if A.shape[-1] > 2:
            return np.linalg.det(A)
        A = A.astype(np.result_type(A, 1.0), copy=False)
        if A.shape[-1] < 2:
            return np.prod(A, axis=(-2, -1))
        return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]


def inv(A) -> np.ndarray:
    """The inverses, given determinants above ``singular`` in size, as
    every caller checks (a singular m <= 2 matrix gives inf or NaN)."""
    A = np.asarray(A)
    if A.shape[-1] > 2:
        return np.linalg.inv(A)
    adj = (np.stack([A[..., 1, 1], -A[..., 0, 1], -A[..., 1, 0], A[..., 0, 0]],
                    axis=-1).reshape(A.shape) if A.shape[-1] == 2 else np.ones(A.shape))
    with np.errstate(all="ignore"):
        return adj / det(A)[..., None, None]


def hermitian_extremes(H) -> tuple[np.ndarray, np.ndarray]:
    """The least and largest eigenvalues of Hermitian stacks, m >= 1, read
    from the diagonal and lower triangle as by eigvalsh."""
    H = np.asarray(H)
    if H.shape[-1] > 2:
        vals = np.linalg.eigvalsh(H)
        return vals[..., 0], vals[..., -1]
    p, q = H[..., 0, 0].real, H[..., -1, -1].real
    with np.errstate(all="ignore"):
        rad = np.hypot(0.5 * (p - q), np.abs(H[..., -1, 0]) if H.shape[-1] == 2 else 0.0)
        return 0.5 * (p + q) - rad, 0.5 * (p + q) + rad


def _gram(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sA)* (sA), (sA)* and the powers of two s (..., 1, 1) that bring each
    max|A| into [0.5, 1), s kept normal: exact, and (sA)* (sA) in range."""
    e = np.frexp(np.max(np.abs(A), axis=(-2, -1), keepdims=True, initial=0.0))[1]
    s = np.ldexp(1.0, -np.clip(e, -1020, 1020))
    Ah = np.swapaxes(A * s, -1, -2).conj()
    return Ah @ (A * s), Ah, s


def opnorm(W) -> np.ndarray:
    """The spectral norms, m >= 1: roots of the largest eigenvalues of _gram's
    (sW)* (sW), over s; (f + (f^2 - 4|det W|^2)^(1/2))/2, f = |W|_F^2, cancels."""
    with np.errstate(all="ignore"):
        gram, _, s = _gram(np.asarray(W))
        return np.sqrt(hermitian_extremes(gram)[1]) / s[..., 0, 0]


def lstsq(A, B) -> np.ndarray:
    """The solutions X of A X = B for A (..., r, m) of full column rank:
    (A* A)^-1 A* B, scaled by _gram's s, inv's precondition on A* A."""
    with np.errstate(all="ignore"):
        gram, Ah, s = _gram(np.asarray(A))
        return inv(gram) @ (Ah @ (B * s))
