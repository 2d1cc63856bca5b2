"""Test-side helpers: the seeded draws the tests build their random
inputs from, all from a numpy Generator (the engine itself draws
nothing), among them the stacked sampler of metalinear pairs in block
form; small nerve documents; the adapter that turns a per-point test
callable into a generator on a stack of rows; and independent formulas
the tests check the engine's kernels against."""

import math

import numpy as np

from hfe import ball
from hfe.config import get_tolerances
from hfe.frames import check_ball, validate_lagrangian
from hfe.groups import check_ml
from hfe.smallmat import det
from hfe.tracking import track_sqrt


# the trackers' argument-step margin, 0.999 pi/2; hfe.tracking tests it
# through its tangent
MAX_ARG = 0.5 * math.pi * 0.999


def rescaled(f, t0: float, t1: float):
    """The path f on [t0, t1] as a path on [0, 1], the interval of
    track_sqrt."""
    return lambda t: f(t0 + (t1 - t0) * t)


def component(points, edges=()) -> dict:
    """An overlap component of a nerve document: points are ids or pairs
    (id, params), edges pairs of point positions."""
    return {"points": [{"id": p} if isinstance(p, str) else {"id": p[0], "params": list(p[1])}
                       for p in points],
            "edges": [list(e) for e in edges]}


def nerve_doc(charts, overlaps=None, triples=None) -> dict:
    """The nerve section of a scenario document (see hfe.nerve.Nerve):
    overlaps maps each chart pair to its components (see component), and
    triples each key to its points, pairs (id, memberships) with
    memberships mapping each chart pair to (component, position)."""
    return {"charts": list(charts),
            "overlaps": [{"pair": list(pair), "components": comps}
                         for pair, comps in (overlaps or {}).items()],
            "triples": [{"key": list(key), "points": [
                {"id": pid, "memberships": {",".join(pair): list(at) for pair, at in ms.items()}}
                for pid, ms in pts]} for key, pts in (triples or {}).items()]}


def by_key(nerve, transitions: dict) -> list:
    """The generators transitions[pair][ci] in the order of nerve.keys,
    as scenario.evaluate_cocycle takes them."""
    return [transitions[pair][ci] for pair, ci in nerve.keys]


def per_point(fn):
    """The generator (see hfe.generators) that evaluates fn(id, params)
    at each row of its stack, the row's point id and its 1-D params: fn
    returns an array or scalar, or a tuple of them, and the generator
    returns one stacked array per member."""
    def stacked(params, ids):
        values = [fn(pid, row) for row, pid in zip(params, ids)]
        if isinstance(values[0], tuple):
            return tuple(np.array(member) for member in zip(*values))
        return (np.array(values),)
    return stacked


def normal_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex entries with standard normal real, then imaginary parts."""
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


# Entries of random_mlkd_stack are uniform on [-_SPREAD, _SPREAD): a real
# 1 x 1 block then has |det| < _SPREAD, so the spread must exceed a
# `singular` tolerance a test may set above 1 (1.5, say), or its
# rejection floor is never reached.
_SPREAD = 2.0


def _uniform_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Real, then imaginary parts uniform on [-_SPREAD, _SPREAD), in one
    draw."""
    u = rng.uniform(-_SPREAD, _SPREAD, (2, *shape))
    return u[0] + 1j * u[1]


def random_mlkd_stack(rng: np.random.Generator, m: int, n: int, k: int,
                      diagonal: bool = False
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """m random Mlkd pairs ((M1[p], z1[p]), (M2[p], z2[p])) as stacks
    M1, M2 (m, n, n) and roots z1, z2 (m,), or (diagonal) m pairs of one
    element taken twice, M2 = M1 and z2 = z1.

    Both members of pair p are upper block-triangular with the shared
    real k x k block A[p]; z**2 = det A det D with a random sign.  Every
    entry is uniform on [-2, 2).  The draws, in order, with members 1
    (diagonal) or 2: the real A stack (m, k, k), then its redraws; the
    complex B stack (members, m, k, n - k); the complex D stack
    (members * m, n - k, n - k), then its redraws; the signs
    integers(2, size=(members, m)).  A complex stack is one uniform call
    of its real, then its imaginary parts.
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
    A, dA = _invertible_stack(lambda c: rng.uniform(-_SPREAD, _SPREAD, (c, k, k)), m,
                              max(1e-3, singular))
    B = _uniform_complex(rng, (members, m, k, r))
    D, dD = _invertible_stack(lambda c: _uniform_complex(rng, (c, r, r)), members * m,
                              np.tile(np.maximum(1e-3, singular / np.abs(dA)), members))
    M = np.zeros((members, m, n, n), dtype=complex)
    M[:, :, :k, :k] = A
    M[:, :, :k, k:] = B
    M[:, :, k:, k:] = D.reshape(members, m, r, r)
    roots = np.sqrt((dA * dD.reshape(members, m)).astype(complex))
    z = np.where(rng.integers(2, size=(members, m)) == 1, -roots, roots)
    check_ml(M.reshape(members * m, n, n), z.ravel())
    return M[0], z[0], M[-1], z[-1]


def random_gl(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random invertible complex matrix (redraw while near-singular)."""
    return _invertible_stack(lambda c: normal_complex(rng, (c, n, n)), 1)[0][0]


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
    W = normal_complex(rng, (n, n))
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


def delta_L_from_wc(X1: tuple[np.ndarray, np.ndarray],
                    X2: tuple[np.ndarray, np.ndarray], k: int) -> complex:
    """delta_L through the (W, C) description:

    conj(det C1) det C2 det(A)^{-2} det(1/2 (1 - W1r* W2r)).
    """
    (W1, C1), (W2, C2) = X1, X2
    W1, C1, W2, C2 = (np.asarray(m, complex) for m in (W1, C1, W2, C2))
    A = C1[:k, :k].real
    detA = np.linalg.det(A) if k else 1.0
    W1r, W2r = W1[k:, k:], W2[k:, k:]
    n_r = W1r.shape[0]
    core = (
        complex(np.linalg.det(0.5 * (np.eye(n_r) - W1r.conj().T @ W2r)))
        if n_r
        else 1.0 + 0j
    )
    return (
        np.linalg.det(C1).conjugate() * np.linalg.det(C2) / (detA * detA) * core
    )


def gamma_two_legs(W1: np.ndarray, W2: np.ndarray, via: float) -> np.ndarray:
    """The roots of frames.gamma_stack, for two stacks (P, n, n) of Ball
    points with n > 0, tracked in two legs along the same path, re-anchored
    at t = via in (0, 1): equal to gamma_stack's if the roots do not
    depend on where the path is cut."""
    n = W1.shape[-1]
    M = np.swapaxes(W1, -1, -2).conj() @ W2

    def f(t: np.ndarray) -> np.ndarray:
        return np.linalg.det(0.5 * (np.eye(n) - (t * t)[None, :, None, None] * M[:, None]))

    mid = track_sqrt(rescaled(f, 0.0, via), np.full(len(W1), 2.0 ** (-n / 2.0), dtype=complex))
    return track_sqrt(rescaled(f, via, 1.0), mid)
