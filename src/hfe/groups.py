"""Matrix groups, their double covers, and block subgroups.

Gl(n,C) elements are plain invertible matrices.  The metalinear group
Ml(n,C) is realized as pairs (A, z) with z**2 = det A, multiplying
componentwise.  Sp(2n,R) is validated through its block identities.  The
metaplectic group Mp(2n,R) has no matrix realization; an element is
stored as (g, zeta) where zeta**2 = det alpha(g, 0) anchors the sheet at
the Ball center, and products are formed by continuous square-root
tracking of det alpha along a segment in the Ball.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import ball
from .config import get_tolerances
from .errors import SingularityError, SubgroupRejection, ValidationError
from .tracking import principal_sqrt, track_sqrt


def _as_square(A: Any, name: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {A.shape}")
    return A


@dataclass(frozen=True)
class GlElement:
    """An invertible complex n x n matrix."""

    A: np.ndarray

    def __post_init__(self):
        A = _as_square(self.A)
        object.__setattr__(self, "A", A)
        if A.size and abs(np.linalg.det(A)) <= get_tolerances().singular:
            raise SingularityError("matrix is singular")

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class MlElement:
    """A pair (A, z) with z**2 = det A."""

    A: np.ndarray
    z: complex

    def __post_init__(self):
        A = _as_square(self.A)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "z", complex(self.z))
        d = np.linalg.det(A) if A.size else 1.0 + 0j
        tols = get_tolerances()
        if abs(d) <= tols.singular:
            raise SingularityError("matrix is singular")
        if abs(self.z * self.z - d) > 10 * tols.rel * abs(d):
            raise ValidationError("z**2 != det(A): not a metalinear element")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def project(self) -> GlElement:
        return GlElement(self.A)


def ml_identity(n: int) -> MlElement:
    return MlElement(np.eye(n), 1.0)


def ml_mul(a: MlElement, b: MlElement) -> MlElement:
    """Componentwise product; the defining relation is preserved."""
    if a.n != b.n:
        raise ValidationError("dimension mismatch in ml_mul")
    return MlElement(a.A @ b.A, a.z * b.z)


def ml_inv(a: MlElement) -> MlElement:
    return MlElement(np.linalg.inv(a.A), 1.0 / a.z)


def ml_lift(A: GlElement | np.ndarray) -> tuple[MlElement, MlElement]:
    """Both preimages of A in Ml(n,C).

    The first returned element carries the principal square root of
    det(A), with Arg(z) in (-pi/2, pi/2]; the second carries its negative.
    """
    mat = A.A if isinstance(A, GlElement) else _as_square(A)
    d = np.linalg.det(mat) if mat.size else 1.0 + 0j
    if abs(d) <= get_tolerances().singular:
        raise SingularityError("cannot lift a singular matrix")
    z = principal_sqrt(d)
    return MlElement(mat, z), MlElement(mat, -z)


@dataclass(frozen=True)
class SpElement:
    """A real 2n x 2n symplectic matrix with block view (T1 T2; T3 T4)."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 != 0:
            raise ValidationError("expected a square even-dimensional real matrix")
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.g.shape[0] // 2

    @property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return ball.sp_blocks(self.g)

    def residuals(self) -> tuple[float, float, float]:
        """Residuals of T4'T1 - T2'T3 = 1, T1'T3 = T3'T1, T2'T4 = T4'T2."""
        T1, T2, T3, T4 = self.blocks
        r1 = np.max(np.abs(T4.T @ T1 - T2.T @ T3 - np.eye(self.n)))
        r2 = np.max(np.abs(T1.T @ T3 - T3.T @ T1))
        r3 = np.max(np.abs(T2.T @ T4 - T4.T @ T2))
        return float(r1), float(r2), float(r3)


def sp_validate(g: np.ndarray | SpElement) -> SpElement:
    """Validate the three block identities of a symplectic matrix."""
    el = g if isinstance(g, SpElement) else SpElement(np.asarray(g))
    res = el.residuals()
    tols = get_tolerances()
    if max(res) > tols.rel * max(1.0, float(np.max(np.abs(el.g)))):
        raise ValidationError(f"matrix is not symplectic, residuals {res}")
    return el


def sp_identity(n: int) -> SpElement:
    return SpElement(np.eye(2 * n))


@dataclass(frozen=True)
class MpElement:
    """A pair (g, zeta) with zeta**2 = det alpha(g, 0).

    The anchor zeta at the Ball center selects one of the two sheets over
    g; since the Ball is contractible the sheet is determined everywhere
    by continuous square-root tracking.
    """

    g: SpElement
    zeta: complex

    def __post_init__(self):
        if not isinstance(self.g, SpElement):
            object.__setattr__(self, "g", sp_validate(np.asarray(self.g)))
        object.__setattr__(self, "zeta", complex(self.zeta))
        _, a0 = ball.alpha_raw(self.g.g, np.zeros((self.g.n, self.g.n)))
        d = np.linalg.det(a0)
        if abs(self.zeta * self.zeta - d) > 1e3 * get_tolerances().rel * abs(d):
            raise ValidationError("zeta**2 != det alpha(g, 0)")

    @property
    def n(self) -> int:
        return self.g.n

    def project(self) -> SpElement:
        return self.g


def mp_lift(g: SpElement | np.ndarray) -> tuple[MpElement, MpElement]:
    """Both metaplectic elements over a symplectic matrix."""
    el = sp_validate(g)
    _, a0 = ball.alpha_raw(el.g, np.zeros((el.n, el.n)))
    zeta = principal_sqrt(np.linalg.det(a0))
    return MpElement(el, zeta), MpElement(el, -zeta)


def mp_identity(n: int) -> MpElement:
    return MpElement(sp_identity(n), 1.0)


def _tracked_alpha_det(g: np.ndarray, W: np.ndarray, zeta: complex
                       ) -> tuple[complex, np.ndarray]:
    """Continue zeta (anchored at W=0) to the Ball point W.

    Tracks the square root of det alpha(g, s*W) along the straight
    segment s in [0, 1], all parameters of a call in one stack.  Returns
    the root and alpha(g, W), read off the first call: track_sqrt's
    uniform grid, whose last point is s = 1.
    """
    grid: list[np.ndarray] = []

    def f(s: np.ndarray) -> np.ndarray:
        a = ball.alpha_raw(g, s[:, None, None] * W)[1]
        if not grid:
            grid.append(a[-1])
        return np.linalg.det(a)

    return track_sqrt(f, zeta), grid[0]


def mp_mul(a: MpElement, b: MpElement) -> MpElement:
    """Product in Mp(2n,R).

    The matrix part is the matrix product; the anchor of the product is
    fixed by the automorphy-cocycle identity
    alphat(ab, 0) = alphat(a, b.0) * alphat(b, 0),
    where alphat(a, .) is continued from a's anchor by tracking.
    """
    if a.n != b.n:
        raise ValidationError("dimension mismatch in mp_mul")
    Wb, _ = ball.alpha_raw(b.g.g, np.zeros((b.n, b.n)))
    za, _ = _tracked_alpha_det(a.g.g, Wb, a.zeta)
    return MpElement(SpElement(a.g.g @ b.g.g), za * b.zeta)


def mp_inv(a: MpElement) -> MpElement:
    """Inverse in Mp: the sheet over g^{-1} with a * a^{-1} = (e, +1)."""
    cand = mp_lift(SpElement(np.linalg.inv(a.g.g)))[0]
    prod = mp_mul(a, cand)
    if abs(prod.zeta - 1.0) > abs(prod.zeta + 1.0):
        cand = MpElement(cand.g, -cand.zeta)
    return cand


def mp_deck(a: MpElement) -> MpElement:
    """The other sheet over the same symplectic matrix."""
    return MpElement(a.g, -a.zeta)


@dataclass(frozen=True)
class SubgroupTag:
    """Result of a block-subgroup membership test."""

    kind: str  # one of Glk, Glkd, Mlk, Mlkd, Spk, Mpk
    k: int
    n: int
    blocks: dict = field(default_factory=dict)


def _check_glk_pattern(A: np.ndarray, k: int, label: str = "") -> dict:
    """Upper block-triangular with a real invertible k x k corner.

    Returns the extracted blocks; raises SubgroupRejection with the
    offending indices otherwise.
    """
    tols = get_tolerances()
    n = A.shape[0]
    if not (0 <= k <= n):
        raise ValidationError(f"k={k} out of range for n={n}")
    bad = [
        (i, j)
        for i in range(k, n)
        for j in range(k)
        if abs(A[i, j]) > tols.abs
    ]
    if bad:
        raise SubgroupRejection(f"nonzero lower-left block{label}", bad)
    Ak = A[:k, :k]
    bad = [
        (i, j) for i in range(k) for j in range(k) if abs(Ak[i, j].imag) > tols.abs
    ]
    if bad:
        raise SubgroupRejection(f"A-block not real{label}", bad)
    Ak = Ak.real
    if k and abs(np.linalg.det(Ak)) <= tols.singular:
        raise SingularityError("A-block singular")
    return {"A": Ak, "B": A[:k, k:], "D": A[k:, k:]}


def _check_spk_pattern(g: np.ndarray, k: int) -> dict:
    """Block pattern of the symplectic subgroup preserving a rank-k real
    subspace, with index blocks (0:k, k:n, n:n+k, n+k:2n)."""
    tols = get_tolerances()
    n = g.shape[0] // 2
    if not (0 <= k <= n):
        raise ValidationError(f"k={k} out of range for n={n}")
    s = [slice(0, k), slice(k, n), slice(n, n + k), slice(n + k, 2 * n)]
    zero_blocks = [(1, 0), (2, 0), (2, 1), (2, 3), (3, 0)]
    bad = []
    for bi, bj in zero_blocks:
        block = g[s[bi], s[bj]]
        for (i, j), v in np.ndenumerate(block):
            if abs(v) > tols.abs:
                bad.append((s[bi].start + i, s[bj].start + j))
    if bad:
        raise SubgroupRejection("zero pattern violated", bad)
    A_g = g[s[0], s[0]].T
    if k and abs(np.linalg.det(A_g)) <= tols.singular:
        raise SingularityError("A_g block singular")
    inv_res = (
        float(np.max(np.abs(g[s[2], s[2]] - np.linalg.inv(A_g)))) if k else 0.0
    )
    if inv_res > 1e3 * tols.rel * max(1.0, float(np.max(np.abs(g)))):
        raise SubgroupRejection(
            "third diagonal block is not the inverse of the first", []
        )
    g_r = np.block([[g[s[1], s[1]], g[s[1], s[3]]], [g[s[3], s[1]], g[s[3], s[3]]]])
    sp_validate(g_r)
    return {"A_g": A_g, "g_r": g_r}


def subgroup_classify(x: Any, k: int) -> SubgroupTag:
    """Classify x into the block subgroup of parameter k.

    Accepts a GlElement/matrix (-> Glk), an MlElement (-> Mlk), a pair of
    Gl or Ml elements sharing their A-block (-> Glkd / Mlkd), an
    SpElement (-> Spk) or an MpElement (-> Mpk).  Raises SubgroupRejection
    (with offending indices) if the pattern fails.
    """
    tols = get_tolerances()
    if isinstance(x, (tuple, list)) and len(x) == 2:
        a, b = x
        if isinstance(a, MlElement) and isinstance(b, MlElement):
            b1 = _check_glk_pattern(a.A, k, " (first)")
            b2 = _check_glk_pattern(b.A, k, " (second)")
            if k and np.max(np.abs(b1["A"] - b2["A"])) > tols.abs:
                raise SubgroupRejection("A-blocks differ across the pair", [])
            dA = np.linalg.det(b1["A"]) if k else 1.0
            for who, z, blocks in (("first", a.z, b1), ("second", b.z, b2)):
                dD = np.linalg.det(blocks["D"]) if k < a.n else 1.0
                if abs(z * z - dA * dD) > 10 * tols.rel * abs(dA * dD):
                    raise SubgroupRejection(f"z**2 != det(A) det(D) ({who})", [])
            return SubgroupTag(
                "Mlkd", k, a.n,
                {"A": b1["A"], "B1": b1["B"], "B2": b2["B"],
                 "D1": b1["D"], "D2": b2["D"], "z1": a.z, "z2": b.z},
            )
        ga = a.A if isinstance(a, GlElement) else _as_square(a)
        gb = b.A if isinstance(b, GlElement) else _as_square(b)
        b1 = _check_glk_pattern(ga, k, " (first)")
        b2 = _check_glk_pattern(gb, k, " (second)")
        if k and np.max(np.abs(b1["A"] - b2["A"])) > tols.abs:
            raise SubgroupRejection("A-blocks differ across the pair", [])
        return SubgroupTag(
            "Glkd", k, ga.shape[0],
            {"A": b1["A"], "B1": b1["B"], "B2": b2["B"],
             "D1": b1["D"], "D2": b2["D"]},
        )
    if isinstance(x, MpElement):
        blocks = _check_spk_pattern(x.g.g, k)
        return SubgroupTag("Mpk", k, x.n, {**blocks, "zeta": x.zeta})
    if isinstance(x, SpElement):
        return SubgroupTag("Spk", k, x.n, _check_spk_pattern(x.g, k))
    if isinstance(x, MlElement):
        blocks = _check_glk_pattern(x.A, k)
        return SubgroupTag("Mlk", k, x.n, {**blocks, "z": x.z})
    mat = x.A if isinstance(x, GlElement) else _as_square(x)
    return SubgroupTag("Glk", k, mat.shape[0], _check_glk_pattern(mat, k))
