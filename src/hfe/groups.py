"""Matrix groups, their double covers, and block subgroups.

Gl(n,C) elements are plain invertible matrices.  The metalinear group
Ml(n,C) is realized as pairs (A, z) with z**2 = det A, multiplying
componentwise.  Sp(2n,R) is validated through its block identities.  The
metaplectic group Mp(2n,R) has no matrix realization; an element is
stored as (g, zeta) where zeta**2 = det alpha(g, 0) anchors the sheet at
the Ball center, and products are formed by continuous square-root
tracking of det alpha along a segment in the Ball.  Elements are held as
stacks: a (P, n, n) or (P, 2n, 2n) array with the (P,) array of its roots
or anchors; the membership tests raise for the first point that fails,
and off_root is the one test of a root z**2 = d.
"""

from __future__ import annotations

import numpy as np

from . import ball
from .config import check_bound, get_tolerances, identity_bound
from .errors import SingularityError, SubgroupRejection, ValidationError, raise_first
from .smallmat import det, inv, mul
from .tracking import cabs, cmul, track_sqrt


def rel_residual(x, target) -> np.ndarray:
    """The relative residuals |x - t| / max(1, |t|), elementwise: NaN,
    without a warning, where both are infinite."""
    with np.errstate(invalid="ignore"):
        return np.abs(np.subtract(x, target)) / np.maximum(1.0, np.abs(target))


def worst(*residuals, floor: float = 0.0) -> float:
    """The largest of floor and every entry of the residuals (arrays or
    numbers): NaN if any entry is NaN, which Python's max would drop
    unless it came first."""
    return float(np.max(np.concatenate([[floor], *map(np.ravel, residuals)])))


def off_root(z, d, bound: float) -> np.ndarray:
    """The one root test: the flags of the z[p] whose square misses d[p]
    by more than bound * |d[p]|, by the exact kernel and without a
    warning.  A NaN is flagged, as the flag is a negated comparison."""
    with np.errstate(all="ignore"):
        return ~(cabs(cmul(z, z) - d) <= bound * cabs(d))


def ml_checks(A: np.ndarray, z) -> list:
    """The Ml membership checks of a stack, for raise_first: every A[p]
    of the (P, n, n) stack A is nonsingular with z[p]**2 = det A[p].  A
    NaN fails them: the flags are negated comparisons."""
    tols = get_tolerances()
    dets = det(A)
    return [
        (~(cabs(dets) > tols.singular), lambda p: SingularityError("matrix is singular")),
        (off_root(z, dets, identity_bound(tols)),
         lambda p: ValidationError("z**2 != det(A): not a metalinear element")),
    ]


def check_ml(A: np.ndarray, z) -> None:
    """The Ml membership test of a stack (see ml_checks): raises for the
    first point that fails."""
    raise_first(ml_checks(A, z))


def ml_mul(A1: np.ndarray, z1, A2: np.ndarray, z2) -> tuple[np.ndarray, np.ndarray]:
    """The products (A1[p], z1[p]) (A2[p], z2[p]) in Ml(n,C) of two
    (P, n, n) stacks and their roots: componentwise, checked in one pass
    of check_ml."""
    A = mul(A1, A2)
    z = cmul(z1, z2)
    check_ml(A, z)
    return A, z


def sp_residuals(g: np.ndarray) -> np.ndarray:
    """The residuals of T4'T1 - T2'T3 = 1, T1'T3 = T3'T1 and T2'T4 = T4'T2
    of a stack g (P, 2n, 2n) of matrices (T1 T2; T3 T4), as a (P, 3)
    array: inf or NaN, without a warning, where the products overflow."""
    T1, T2, T3, T4 = ball.sp_blocks(g)
    Tt = [np.swapaxes(T, -1, -2) for T in (T1, T2, T3, T4)]
    axes = (-2, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        r1 = np.max(np.abs(mul(Tt[3], T1) - mul(Tt[1], T3) - np.eye(g.shape[-1] // 2)),
                    axis=axes, initial=0.0)
        r2 = np.max(np.abs(mul(Tt[0], T3) - mul(Tt[2], T1)), axis=axes, initial=0.0)
        r3 = np.max(np.abs(mul(Tt[1], T4) - mul(Tt[3], T2)), axis=axes, initial=0.0)
    return np.stack([r1, r2, r3], axis=-1)


def check_sp(g: np.ndarray) -> np.ndarray:
    """The symplectic test of a stack g (P, 2n, 2n), the three block
    identities of sp_residuals: raises for the first matrix that is not
    symplectic, a NaN residual included; returns the residuals."""
    res = sp_residuals(g)
    scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1), initial=0.0))
    raise_first([(~(np.max(res, axis=-1) <= get_tolerances().rel * scale),
                  lambda p: ValidationError(
                      f"matrix is not symplectic, residuals {tuple(res[p].tolist())}"))])
    return res


def alpha0_det(g: np.ndarray) -> np.ndarray:
    """det alpha(g, 0) of a 2n x 2n matrix g, or the (P,) determinants of
    a stack: alpha(g, 0) is the block P of ball.cayley_blocks.  Raises
    alpha_raw's SingularityError if one is within ``singular`` of 0."""
    dets = det(ball.cayley_blocks(g)[0])
    ball.check_positive(dets)
    return dets


def check_mp(g: np.ndarray, zeta) -> None:
    """The Mp anchor test of a stack: zeta[p]**2 = det alpha(g[p], 0) for
    every g[p] of the (P, 2n, 2n) stack g.  Raises for the first point
    that fails; a NaN fails, as the flag is a negated comparison."""
    dets = alpha0_det(g)
    raise_first([(off_root(zeta, dets, check_bound(get_tolerances())),
                  lambda p: ValidationError("zeta**2 != det alpha(g, 0)"))])


def tracked_alpha_det(g: np.ndarray, W: np.ndarray, zeta
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Continue each anchor zeta[p] (at W = 0) to the Ball point W[p].

    Tracks the square roots of det alpha(g[p], s*W[p]) along the straight
    segments s in [0, 1] as one stack of paths, for stacks g (P, 2n, 2n)
    and W (P, n, n).  In closed form alpha(g, sW) = P + s QW (see
    ball.cayley_blocks), so QW is one product per point and no parameter
    takes an inverse; every determinant gets alpha_raw's singular check.
    Returns the roots and alpha(g, W) = P + QW (P, n, n).
    """
    P, Q, _, _ = ball.cayley_blocks(np.asarray(g))
    QW = mul(Q, W)

    def f(s: np.ndarray) -> np.ndarray:
        dets = det(P[:, None] + s[None, :, None, None] * QW[:, None])
        ball.check_positive(dets)
        return dets

    return track_sqrt(f, zeta), P + QW


def mp_mul(g1: np.ndarray, zeta1, g2: np.ndarray, zeta2
           ) -> tuple[np.ndarray, np.ndarray]:
    """The products (g1[p], zeta1[p]) (g2[p], zeta2[p]) in Mp(2n,R) of two
    (P, 2n, 2n) stacks and their anchors.

    The matrix part is the matrix product; the anchor of the product is
    fixed by the automorphy-cocycle identity
    alphat(ab, 0) = alphat(a, b.0) * alphat(b, 0),
    where alphat(a, .) is continued from a's anchor by tracking, all
    products as one stack of paths.  The products are checked in one
    pass of check_mp.
    """
    n = g1.shape[-1] // 2
    W2, _ = ball.alpha_raw(g2, np.zeros((len(g2), n, n)))
    za, _ = tracked_alpha_det(g1, W2, zeta1)
    g = mul(g1, g2)
    zeta = cmul(za, zeta2)
    check_mp(g, zeta)
    return g, zeta


def _region_check(message: str, dev: np.ndarray, regions, tol: float):
    """The check that every entry of dev[p] in the regions (pairs of row
    and column slices) is within tol of zero."""
    bad = np.zeros(len(dev), dtype=bool)
    for r, c in regions:
        bad |= (np.abs(dev[:, r, c]) > tol).any(axis=(1, 2))
    return bad, lambda p: SubgroupRejection(message)


def block_pattern(rules, corner: np.ndarray, k: int,
                  real_message: str = "A-block not real"):
    """The stacked block-pattern check, and the real k x k corners.

    ``rules`` lists (message, dev, regions, tol): every entry of dev[p]
    (a stack (P, n, n)) in the regions, pairs of row and column slices,
    must be within tol of zero.  The k x k corner of corner[p] must then
    be real (real_message) and invertible.  Returns the checks, in the
    order one point is checked, for raise_first (a failing rule is a
    SubgroupRejection, a singular corner a SingularityError), the
    (P, k, k) real parts of the corners and their (P,) determinants (1
    for k = 0).
    """
    tols = get_tolerances()
    corners = corner[:, :k, :k]
    checks = [_region_check(*rule) for rule in rules]
    checks.append(_region_check(real_message, corners.imag,
                                [(slice(0, k), slice(0, k))], tols.abs))
    corners = corners.real
    dets = det(corners)
    if k:
        checks.append((~(np.abs(dets) > tols.singular),
                       lambda p: SingularityError("A-block singular")))
    return checks, corners, dets


def _glk_pattern(A: np.ndarray, k: int, label: str = ""):
    """Upper block-triangular with a real invertible k x k corner: the
    checks of a stack A (P, n, n), its real corners and their
    determinants."""
    n = A.shape[-1]
    return block_pattern(
        [(f"nonzero lower-left block{label}", A, [(slice(k, n), slice(0, k))],
          get_tolerances().abs)],
        A, k, f"A-block not real{label}")


def shared_corner(A1: np.ndarray, A2: np.ndarray, k: int) -> list:
    """The check, for raise_first, that the pairs of real k x k corners
    (A1[p], A2[p]) agree."""
    if not k:
        return []
    return [(np.max(np.abs(A1 - A2), axis=(-2, -1)) > get_tolerances().abs,
             lambda p: SubgroupRejection("A-blocks differ across the pair"))]


def subgroup_classify(A1: np.ndarray, A2: np.ndarray, k: int) -> dict:
    """Stacked Glkd membership of the pairs (A1[p], A2[p]): both members
    upper block-triangular with one real invertible k x k corner A.
    Raises for the first failing pair; returns the blocks as stacks with
    their (P,) determinants detA, detD1 and detD2.
    """
    checks1, A, detA = _glk_pattern(A1, k, " (first)")
    checks2, Ab, _ = _glk_pattern(A2, k, " (second)")
    raise_first(checks1 + checks2 + shared_corner(A, Ab, k))
    D1, D2 = A1[:, k:, k:], A2[:, k:, k:]
    return {"A": A, "B1": A1[:, :k, k:], "B2": A2[:, :k, k:], "D1": D1, "D2": D2,
            "detA": detA, "detD1": det(D1), "detD2": det(D2)}


def spk_blocks(g: np.ndarray, k: int) -> dict:
    """Stacked Spk membership: the block pattern of the symplectic
    subgroup preserving a rank-k real subspace, with index blocks (0:k,
    k:n, n:n+k, n+k:2n), for a stack g (P, 2n, 2n).  Raises for the first
    failing matrix; returns the blocks A_g and g_r as stacks."""
    tols = get_tolerances()
    n = g.shape[-1] // 2
    s = [slice(0, k), slice(k, n), slice(n, n + k), slice(n + k, 2 * n)]
    zero_blocks = [(1, 0), (2, 0), (2, 1), (2, 3), (3, 0)]
    checks = [_region_check("zero pattern violated", g,
                            [(s[i], s[j]) for i, j in zero_blocks], tols.abs)]
    A_g = np.swapaxes(g[:, s[0], s[0]], -1, -2)
    if k:
        checks.append((~(np.abs(det(A_g)) > tols.singular),
                       lambda p: SingularityError("A_g block singular")))
    raise_first(checks)
    if k:
        inv_res = np.max(np.abs(g[:, s[2], s[2]] - inv(A_g)), axis=(-2, -1))
        bound = check_bound(tols) * np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
        raise_first([(~(inv_res <= bound), lambda p: SubgroupRejection(
            "third diagonal block is not the inverse of the first"))])
    g_r = np.concatenate([
        np.concatenate([g[:, s[1], s[1]], g[:, s[1], s[3]]], axis=-1),
        np.concatenate([g[:, s[3], s[1]], g[:, s[3], s[3]]], axis=-1),
    ], axis=-2)
    check_sp(g_r)
    return {"A_g": A_g, "g_r": g_r}
