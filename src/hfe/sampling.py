"""Seeded random draws for the engine's property checks.

Every function takes an explicit Draws stream so runs are reproducible.
The draws are stacks: random_mlkd_stack draws every pair of a draw site
as block stacks, in the stream order its docstring states.
"""

from __future__ import annotations

import math

import numpy as np

from .config import get_tolerances
from .groups import check_ml
from .smallmat import det

_MASK = 2 ** 64 - 1
_GAMMA = 0x9E3779B97F4A7C15


class Draws:
    """The engine's seeded draw stream: counter-based SplitMix64 (Steele,
    Lea and Flood, OOPSLA 2014).  Value i (i = 0, 1, ...) of seed s is
    mix(s + (i + 1) * 0x9E3779B97F4A7C15 mod 2**64), mix being
    SplitMix64's finalizer, and each draw takes the next ``size`` values,
    so the stream of a seed in [0, 2**64) is the same bits on every
    platform and numpy version.  The methods take numpy Generator
    signatures, so a Generator can stand in for a Draws.

    The seed is mixed with Python ints mod 2**64 (numpy scalar uint64
    arithmetic warns on overflow); the values are uint64 arrays, whose
    arithmetic wraps silently.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
        self.seed = seed
        self.count = 0

    def _next(self, size) -> tuple[np.ndarray, tuple]:
        """The next values of the stream, as a flat uint64 array, and the
        shape they are drawn in."""
        shape = () if size is None else tuple(np.atleast_1d(size).tolist())
        count = math.prod(shape)
        start = (self.seed + (self.count + 1) * _GAMMA) & _MASK
        self.count += count
        x = np.arange(count, dtype=np.uint64)
        x *= np.uint64(_GAMMA)
        x += np.uint64(start)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return x, shape

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        """Floats low + (high - low) * u with u = (x >> 11) * 2**-53 in
        [0, 1) for the next values x, in [low, high) where that is exact,
        as it is for [0, 1), [-1, 1) and [-2, 2)."""
        x, shape = self._next(size)
        u = (x >> np.uint64(11)).astype(float) * 2.0 ** -53
        return (low + (high - low) * u).reshape(shape)

    def integers(self, high, size=None) -> np.ndarray:
        """int64 values x mod high in [0, high) for the next values x
        (biased by at most high / 2**64), 1 <= high <= 2**63; high may be
        an array, which broadcasts against size (its shape by default)."""
        high = np.asarray(high)
        if not np.all((1 <= high) & (high <= 2 ** 63)):
            raise ValueError(f"high must be an integer in [1, 2**63], got {high}")
        x, shape = self._next(high.shape if size is None else size)
        return (x.reshape(shape) % high.astype(np.uint64)).astype(np.int64)


# Matrix entries are uniform on [-_SPREAD, _SPREAD): no transcendental
# function is involved, so every entry is the same bit everywhere.  A real
# 1 x 1 block then has |det| < _SPREAD, so the spread must exceed a
# `singular` tolerance a run may set above 1 (1.5, say), or its
# rejection floor is never reached.
_SPREAD = 2.0


def random_real(rng: Draws, shape) -> np.ndarray:
    return rng.uniform(-_SPREAD, _SPREAD, shape)


def random_complex(rng: Draws, shape) -> np.ndarray:
    """Real, then imaginary parts drawn by random_real, in one draw."""
    u = random_real(rng, (2, *shape))
    return u[0] + 1j * u[1]


# redraw rounds of a rejection; a row still rejected after them is left
# for the membership check to reject (a floor no draw reaches, say)
_REDRAWS = 100


def _invertible_stack(draw, m: int, floor=1e-3) -> tuple[np.ndarray, np.ndarray]:
    """m square matrices draw(m) with |det| > floor, a number or an (m,)
    array of one floor per row, redrawing only the rejected rows (draw(r)
    for r of them) until none is rejected or _REDRAWS rounds are done;
    returns the stack and its determinants."""
    X = draw(m)
    dets = det(X)
    floor = np.broadcast_to(floor, (m,))
    bad = np.flatnonzero(np.abs(dets) <= floor)
    for _ in range(_REDRAWS):
        if not bad.size:
            break
        X[bad] = draw(bad.size)
        dets[bad] = det(X[bad])
        bad = bad[np.abs(dets[bad]) <= floor[bad]]
    return X, dets


def random_mlkd_stack(rng: Draws, m: int, n: int, k: int,
                      diagonal: bool = False
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """m random Mlkd pairs ((M1[p], z1[p]), (M2[p], z2[p])) as stacks
    M1, M2 (m, n, n) and roots z1, z2 (m,), or (diagonal) m pairs of one
    element taken twice, M2 = M1 and z2 = z1.

    Both members of pair p are upper block-triangular with the shared
    real k x k block A[p]; z**2 = det A det D with a random sign.  Every
    entry is uniform on [-2, 2).  The draws, in stream order, with
    members 1 (diagonal) or 2: the real A stack (m, k, k), then its
    redraws; the complex B stack (members, m, k, n - k); the complex D
    stack (members * m, n - k, n - k), then its redraws; the signs
    integers(2, size=(members, m)).  A complex stack is drawn by
    random_complex (its real, then its imaginary parts).
    Rejected rows only are redrawn (see _invertible_stack): A while
    |det A| <= 1e-3 or <= the run's singular tolerance, D while
    |det D| <= 1e-3 or |det A det D| <= singular, so that no member
    fails the singularity tests of its A block and of itself.  At the
    default tolerances only the 1e-3 floor rejects.  Every element is
    checked as metalinear (check_ml) at the run's tolerances.
    """
    members = 1 if diagonal else 2
    r = n - k
    singular = get_tolerances().singular
    A, dA = _invertible_stack(lambda c: random_real(rng, (c, k, k)), m,
                              max(1e-3, singular))
    B = random_complex(rng, (members, m, k, r))
    D, dD = _invertible_stack(lambda c: random_complex(rng, (c, r, r)), members * m,
                              np.tile(np.maximum(1e-3, singular / np.abs(dA)), members))
    M = np.zeros((members, m, n, n), dtype=complex)
    M[:, :, :k, :k] = A
    M[:, :, :k, k:] = B
    M[:, :, k:, k:] = D.reshape(members, m, r, r)
    roots = np.sqrt((dA * dD.reshape(members, m)).astype(complex))
    z = np.where(rng.integers(2, size=(members, m)) == 1, -roots, roots)
    check_ml(M.reshape(members * m, n, n), z.ravel())
    return M[0], z[0], M[-1], z[-1]

