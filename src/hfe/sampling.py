"""Seeded random generators for group elements and frames.

Used by property checks inside the engine and by the test suite; all
functions take an explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from . import ball
from .frames import BallPoint, LagFrame, validate_lagrangian
from .groups import MlElement, SpElement, ml_elements
from .tracking import principal_sqrt


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_gl(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random invertible complex matrix (redraw while near-singular)."""
    while True:
        A = random_complex(rng, (n, n))
        if n == 0 or abs(np.linalg.det(A)) > 1e-3:
            return A


def random_gl_real(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        A = rng.standard_normal((n, n))
        if n == 0 or abs(np.linalg.det(A)) > 1e-3:
            return A


def random_glkd(rng: np.random.Generator, n: int, k: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Random pair of upper block-triangular matrices sharing a real A."""
    A = random_gl_real(rng, k)
    out = []
    for _ in range(2):
        B = random_complex(rng, (k, n - k))
        D = random_gl(rng, n - k)
        g = np.zeros((n, n), dtype=complex)
        g[:k, :k] = A
        g[:k, k:] = B
        g[k:, k:] = D
        out.append(g)
    return out[0], out[1]


def random_mlkd(rng: np.random.Generator, n: int, k: int
                ) -> tuple[MlElement, MlElement]:
    g = np.array(random_glkd(rng, n, k))
    dets = np.linalg.det(g) if n else [1.0, 1.0]
    z = []
    for d in dets:
        root = principal_sqrt(d)
        z.append(-root if rng.integers(2) else root)
    m1, m2 = ml_elements(g, z)
    return m1, m2


def random_sp(rng: np.random.Generator, n: int, factors: int = 3) -> SpElement:
    """Random symplectic matrix as a product of elementary generators.

    Uses shears (1 S; 0 1), (1 0; T 1) with S, T symmetric and block
    scalings (A 0; 0 A^{-t}); symplectic exactly by construction.
    """
    g = np.eye(2 * n)
    for _ in range(factors):
        S = rng.standard_normal((n, n))
        S = 0.5 * (S + S.T) * 0.5
        T = rng.standard_normal((n, n))
        T = 0.5 * (T + T.T) * 0.5
        A = random_gl_real(rng, n)
        up = np.block([[np.eye(n), S], [np.zeros((n, n)), np.eye(n)]])
        lo = np.block([[np.eye(n), np.zeros((n, n))], [T, np.eye(n)]])
        bl = np.block(
            [[A, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(A).T]]
        )
        g = g @ up @ lo @ bl
    return SpElement(g)


def random_ball_point(rng: np.random.Generator, n: int, radius: float = 0.9
                      ) -> BallPoint:
    """Symmetric matrix of operator norm < radius (rejection sampling)."""
    while True:
        W = random_complex(rng, (n, n))
        W = 0.5 * (W + W.T)
        nrm = np.linalg.norm(W, 2) if n else 0.0
        if nrm < 1e-12:
            return BallPoint(W)
        W = W * (radius * rng.uniform(0.05, 1.0) / nrm)
        return BallPoint(W)


def random_positive_frame(rng: np.random.Generator, n: int) -> LagFrame:
    """Positive Lagrangian frame via phi_inv of a random (W, C)."""
    W = random_ball_point(rng, n)
    C = random_gl(rng, n)
    U, V = ball.phi_inv_raw(W.W, C)
    return validate_lagrangian(U, V)
