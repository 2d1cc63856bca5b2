"""Seeded random draws for the engine's property checks.

Every function takes an explicit numpy Generator so runs are
reproducible.  The draws are stacks: random_mlkd_stack draws every pair
of a draw site as block stacks, in the stream order its docstring
states.
"""

from __future__ import annotations

import numpy as np

from .config import get_tolerances
from .groups import check_ml


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# redraw rounds of a rejection; a row still rejected after them is left
# for the membership check to reject (a floor no draw reaches, say)
_REDRAWS = 100


def _invertible_stack(draw, m: int, floor=1e-3) -> tuple[np.ndarray, np.ndarray]:
    """m square matrices draw(m) with |det| > floor, a number or an (m,)
    array of one floor per row, redrawing only the rejected rows (draw(r)
    for r of them) until none is rejected or _REDRAWS rounds are done;
    returns the stack and its determinants."""
    X = draw(m)
    dets = np.linalg.det(X)
    floor = np.broadcast_to(floor, (m,))
    bad = np.flatnonzero(np.abs(dets) <= floor)
    for _ in range(_REDRAWS):
        if not bad.size:
            break
        X[bad] = draw(bad.size)
        dets[bad] = np.linalg.det(X[bad])
        bad = bad[np.abs(dets[bad]) <= floor[bad]]
    return X, dets


def random_mlkd_stack(rng: np.random.Generator, m: int, n: int, k: int,
                      diagonal: bool = False
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """m random Mlkd pairs ((M1[p], z1[p]), (M2[p], z2[p])) as stacks
    M1, M2 (m, n, n) and roots z1, z2 (m,), or (diagonal) m pairs of one
    element taken twice, M2 = M1 and z2 = z1.

    Both members of pair p are upper block-triangular with the shared
    real k x k block A[p]; z**2 = det A det D with a random sign.  The
    draws, in stream order, with members 1 (diagonal) or 2: the real A
    stack (m, k, k), then its redraws; the complex B stack (members, m,
    k, n - k); the complex D stack (members * m, n - k, n - k), then its
    redraws; the signs integers(2, size=(members, m)).  A complex stack
    is drawn by random_complex (its real, then its imaginary parts).
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
    A, dA = _invertible_stack(lambda c: rng.standard_normal((c, k, k)), m,
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

