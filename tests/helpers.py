"""Test-side helpers: the seeded draws the tests build their random
inputs from, and the adapter that turns a per-point test callable into a
generator on a stack of sample points."""

import numpy as np

from hfe import ball
from hfe.frames import check_ball, validate_lagrangian
from hfe.sampling import _invertible_stack, random_complex


def per_point(fn):
    """The generator (see hfe.generators) that evaluates fn at each
    sample point of its stack: fn returns an array or scalar, or a tuple
    of them, and the generator returns one stacked array per member."""
    def stacked(points):
        values = [fn(pt) for pt in points]
        if isinstance(values[0], tuple):
            return tuple(np.array(member) for member in zip(*values))
        return (np.array(values),)
    return stacked


def random_gl(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random invertible complex matrix (redraw while near-singular)."""
    return _invertible_stack(lambda c: random_complex(rng, (c, n, n)), 1)[0][0]


def random_gl_real(rng: np.random.Generator, n: int) -> np.ndarray:
    return _invertible_stack(lambda c: rng.standard_normal((c, n, n)), 1)[0][0]


def random_sp(rng: np.random.Generator, n: int, factors: int = 3) -> np.ndarray:
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
    return g


def random_ball_point(rng: np.random.Generator, n: int, radius: float = 0.9
                      ) -> np.ndarray:
    """Symmetric matrix of operator norm < radius: a random complex
    symmetric matrix scaled to a uniform fraction in [0.05, 1) of radius
    (left as drawn if its norm is below 1e-12), checked as a Ball
    point."""
    W = random_complex(rng, (n, n))
    W = 0.5 * (W + W.T)
    nrm = np.linalg.norm(W, 2) if n else 0.0
    if nrm >= 1e-12:
        W = W * (radius * rng.uniform(0.05, 1.0) / nrm)
    check_ball(W[None])
    return W


def random_positive_frame(rng: np.random.Generator, n: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Positive Lagrangian frame (U, V) via phi_inv of a random (W, C),
    checked by validate_lagrangian."""
    U, V = ball.phi_inv_raw(random_ball_point(rng, n), random_gl(rng, n))
    validate_lagrangian(U[None], V[None])
    return U, V
