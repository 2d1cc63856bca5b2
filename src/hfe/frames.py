"""Lagrangian-frame linear algebra.

A Lagrangian frame is stored as a pair of n x n complex matrices (U, V)
whose stacked columns (U; V) are the coordinates of n frame vectors in a
symplectic frame.  This module provides validation (isotropy,
independence, positivity), the pairing determinant delta_k and its
D-adapted block versions, the bijection phi between positive frames and
Ball x Gl(n,C), the Ball automorphy factors alpha / alpha-tilde, the
continuous square root Gamma, Liouville volume evaluation via Pfaffians,
and pointwise pairing densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import ball
from .config import get_tolerances
from .errors import SingularityError, SubgroupRejection, ValidationError
from .groups import GlElement, MlElement, MpElement, SpElement, _tracked_alpha_det
from .tracking import track_sqrt


@dataclass(frozen=True)
class SymplecticModel:
    """A complex symplectic vector space of dimension 2n.

    The default form is the standard one with omega(a_i, b_j) = delta_ij
    for the basis ordering (a_1..a_n, b_1..b_n).
    """

    n: int
    omega: np.ndarray = None

    def __post_init__(self):
        if self.omega is None:
            object.__setattr__(self, "omega", standard_omega(self.n))
        om = np.asarray(self.omega, dtype=complex)
        if om.shape != (2 * self.n, 2 * self.n):
            raise ValidationError("omega has wrong shape")
        tols = get_tolerances()
        if np.max(np.abs(om + om.T)) > tols.abs * max(1.0, np.max(np.abs(om))):
            raise ValidationError("omega not antisymmetric")
        if abs(np.linalg.det(om)) <= tols.singular:
            raise ValidationError("omega degenerate")
        object.__setattr__(self, "omega", om)

    def form(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.asarray(x) @ self.omega @ np.asarray(y))


def standard_omega(n: int) -> np.ndarray:
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


@dataclass(frozen=True)
class LagFrame:
    """A validated Lagrangian frame with its diagnostics."""

    U: np.ndarray
    V: np.ndarray
    isotropy_residual: float = 0.0
    independence: complex = 1.0
    min_eigenvalue: float = 0.0
    positive: bool = True

    @property
    def n(self) -> int:
        return self.U.shape[0]

    def stacked(self) -> np.ndarray:
        """2n x n column matrix of the frame vectors in model coordinates."""
        return np.vstack([self.U, self.V])


def validate_lagrangian(
    U: np.ndarray, V: np.ndarray, model: Optional[SymplecticModel] = None
) -> LagFrame:
    """Check isotropy and independence; report the positivity verdict.

    Isotropy is U^t V = V^t U; independence is det(U*U + V*V) != 0;
    positivity is PSD-ness of i(V*U - U*V) (equivalently, the hermitian
    matrix -i omega(conj u_i, u_j) has no negative eigenvalue).
    """
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if U.shape != V.shape or U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValidationError("U, V must be square matrices of equal size")
    tols = get_tolerances()
    scale = (
        max(1.0, float(np.max(np.abs(U))), float(np.max(np.abs(V))))
        if U.size
        else 1.0
    )
    iso = float(np.max(np.abs(U.T @ V - V.T @ U))) if U.size else 0.0
    if iso > tols.rel * scale * scale:
        raise ValidationError(f"frame not isotropic (residual {iso:.3e})")
    indep = complex(np.linalg.det(U.conj().T @ U + V.conj().T @ V)) if U.size else 1.0
    if abs(indep) <= tols.singular:
        raise ValidationError("frame vectors dependent")
    H = 1j * (V.conj().T @ U - U.conj().T @ V)
    mineig = float(np.min(np.linalg.eigvalsh(0.5 * (H + H.conj().T)))) if U.size else 0.0
    return LagFrame(
        U=U, V=V,
        isotropy_residual=iso,
        independence=indep,
        min_eigenvalue=mineig,
        positive=bool(mineig >= -tols.abs * scale * scale),
    )


@dataclass(frozen=True)
class LagFramePair:
    """Two Lagrangian frames sharing their first k real columns."""

    first: LagFrame
    second: LagFrame
    k: int

    def __post_init__(self):
        k, n = self.k, self.first.n
        if self.second.n != n or not (0 <= k <= n):
            raise ValidationError("pair dimension/k mismatch")
        tols = get_tolerances()
        s1, s2 = self.first.stacked(), self.second.stacked()
        if k:
            if np.max(np.abs(s1[:, :k].imag)) > tols.abs or np.max(
                np.abs(s2[:, :k].imag)
            ) > tols.abs:
                raise ValidationError("shared columns must be real")
            if np.max(np.abs(s1[:, :k] - s2[:, :k])) > tols.abs:
                raise ValidationError("first k columns differ across the pair")

    @property
    def n(self) -> int:
        return self.first.n


def frame_compose(frame: np.ndarray, X: tuple[np.ndarray, np.ndarray],
                  model: Optional[SymplecticModel] = None) -> np.ndarray:
    """Apply a symplectic frame (columns e_1..e_n, f_1..f_n) to (U, V).

    Returns the ambient 2n x n column matrix frame @ (U; V).  The frame
    must be symplectic for the model form: frame^t omega frame equals the
    standard form.
    """
    frame = np.asarray(frame, dtype=complex)
    n = frame.shape[0] // 2
    model = model or SymplecticModel(n)
    tols = get_tolerances()
    res = np.max(np.abs(frame.T @ model.omega @ frame - standard_omega(n)))
    if res > tols.rel * max(1.0, float(np.max(np.abs(frame))) ** 2):
        raise ValidationError(f"frame not symplectic (residual {res:.3e})")
    U, V = X
    return frame @ np.vstack([np.asarray(U, complex), np.asarray(V, complex)])


def delta(pair: LagFramePair, model: Optional[SymplecticModel] = None) -> complex:
    """Pairing determinant det(-i omega(conj u_i, v_j)) over i,j > k."""
    model = model or SymplecticModel(pair.n)
    s1, s2 = pair.first.stacked(), pair.second.stacked()
    k = pair.k
    M = -1j * (s1[:, k:].conj().T @ model.omega @ s2[:, k:])
    val = complex(np.linalg.det(M)) if M.size else 1.0 + 0j
    if abs(val) < get_tolerances().singular:
        raise SingularityError("pairing determinant vanishes (invalid pair)")
    return val


@dataclass(frozen=True)
class BallPoint:
    """A symmetric complex matrix of operator norm at most 1."""

    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=complex)
        object.__setattr__(self, "W", W)
        tols = get_tolerances()
        sym, excess = ball.ball_point_residuals(W)
        if sym > tols.abs * max(1.0, float(np.max(np.abs(W))) if W.size else 1.0):
            raise ValidationError("Ball point not symmetric")
        if excess > tols.abs:
            raise ValidationError("Ball point has operator norm > 1")

    @property
    def n(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class MetaLagFrame:
    """A point of Ball x Ml(n,C): a positive meta Lagrangian frame."""

    W: BallPoint
    C: MlElement

    @property
    def n(self) -> int:
        return self.W.n


def phi(frame: LagFrame | tuple[np.ndarray, np.ndarray]) -> tuple[BallPoint, GlElement]:
    """Map a positive frame to its (W, C) coordinates."""
    if isinstance(frame, LagFrame):
        U, V = frame.U, frame.V
    else:
        U, V = frame
    W, C = ball.phi_raw(U, V)
    return BallPoint(W), GlElement(C)


def phi_inv(W: BallPoint | np.ndarray, C: np.ndarray | GlElement) -> LagFrame:
    """Inverse of phi; always yields a positive Lagrangian frame."""
    Wm = W.W if isinstance(W, BallPoint) else np.asarray(W, complex)
    Cm = C.A if isinstance(C, GlElement) else np.asarray(C, complex)
    BallPoint(Wm)  # validate
    U, V = ball.phi_inv_raw(Wm, Cm)
    return validate_lagrangian(U, V)


def alpha(g: SpElement, W: BallPoint | np.ndarray) -> tuple[BallPoint, GlElement]:
    """Ball action with automorphy factor: g.(W, C) = (g.W, alpha(g,W) C)."""
    Wm = W.W if isinstance(W, BallPoint) else np.asarray(W, complex)
    gW, a = ball.alpha_raw(g.g, Wm)
    return BallPoint(gW), GlElement(a)


def gamma(W1, W2, via: Optional[float] = None) -> complex:
    """Continuous square root of det(1/2 (1 - W1* W2)) on Ball x Ball.

    The argument order is fixed so that the square of the meta pairing
    value equals the pairing determinant of the projected frames; with
    the opposite order the squared identity fails by a conjugation.
    Anchored at gamma(0, 0) = 2**(-n/2), which is forced by the squared
    identity; tracked along t -> det(1/2 (1 - t^2 W1* W2)).  If ``via``
    is given in (0, 1), the value is computed in two tracking legs with a
    re-anchoring at t = via (used to test path independence).
    """
    W1 = W1.W if isinstance(W1, BallPoint) else np.asarray(W1, complex)
    W2 = W2.W if isinstance(W2, BallPoint) else np.asarray(W2, complex)
    n = W1.shape[0]
    if n == 0:
        return 1.0 + 0j
    M = W1.conj().T @ W2
    eye = np.eye(n)

    def f(t: np.ndarray) -> np.ndarray:
        return np.linalg.det(0.5 * (eye - (t * t)[:, None, None] * M))

    anchor = 2.0 ** (-n / 2.0)
    if via is None:
        return track_sqrt(f, anchor)
    if not (0.0 < via < 1.0):
        raise ValidationError("via must lie in (0, 1)")
    z_mid = track_sqrt(f, anchor, 0.0, via)
    return track_sqrt(f, z_mid, via, 1.0)


def alpha_tilde(gt: MpElement, W: BallPoint | np.ndarray) -> MlElement:
    """Metalinear automorphy factor: (alpha(g, W), z) on the sheet of gt.

    z is continued from the anchor zeta at the Ball center along the
    straight segment s -> s W by square-root tracking of det alpha.
    """
    Wm = W.W if isinstance(W, BallPoint) else np.asarray(W, complex)
    z, a1 = _tracked_alpha_det(gt.g.g, Wm, gt.zeta)
    return MlElement(a1, z)


# ---------------------------------------------------------------------------
# D-adapted block forms
# ---------------------------------------------------------------------------

def _frame_blocks(U: np.ndarray, V: np.ndarray, k: int) -> dict:
    """Extract blocks of a frame in D-adapted form.

    U = (A B; 0 Ur), V = (0 0; 0 Vr) with A real invertible k x k.
    """
    tols = get_tolerances()
    n = U.shape[0]
    bad = [(i, j) for i in range(n) for j in range(k) if abs(V[i, j]) > tols.abs]
    bad += [(i, j) for i in range(k) for j in range(k, n) if abs(V[i, j]) > tols.abs]
    if bad:
        raise SubgroupRejection("V does not vanish on the D-block", bad)
    bad = [(i, j) for i in range(k, n) for j in range(k) if abs(U[i, j]) > tols.abs]
    if bad:
        raise SubgroupRejection("U lower-left block nonzero", bad)
    A = U[:k, :k]
    bad = [(i, j) for i in range(k) for j in range(k) if abs(A[i, j].imag) > tols.abs]
    if bad:
        raise SubgroupRejection("A-block not real", bad)
    A = A.real
    if k and abs(np.linalg.det(A)) <= tols.singular:
        raise SingularityError("A-block singular")
    return {"A": A, "B": U[:k, k:], "Ur": U[k:, k:], "Vr": V[k:, k:]}


def _shared_A(b1: dict, b2: dict, k: int) -> np.ndarray:
    if k and np.max(np.abs(b1["A"] - b2["A"])) > get_tolerances().abs:
        raise SubgroupRejection("A-blocks differ across the pair", [])
    return b1["A"]


def delta_L(pairX, k: int) -> complex:
    """Pairing determinant on frames in D-adapted block form.

    pairX is ((U1, V1), (U2, V2)); the value is
    det(i (V1r* U2r - U1r* V2r)) on the reduced blocks.
    """
    (U1, V1), (U2, V2) = pairX
    U1, V1, U2, V2 = (np.asarray(m, complex) for m in (U1, V1, U2, V2))
    b1 = _frame_blocks(U1, V1, k)
    b2 = _frame_blocks(U2, V2, k)
    _shared_A(b1, b2, k)
    M = 1j * (b1["Vr"].conj().T @ b2["Ur"] - b1["Ur"].conj().T @ b2["Vr"])
    val = complex(np.linalg.det(M)) if M.size else 1.0 + 0j
    if abs(val) < get_tolerances().singular:
        raise SingularityError("reduced pairing determinant vanishes")
    return val


def _meta_blocks(X: MetaLagFrame, k: int) -> dict:
    """Extract blocks of a meta frame in block form.

    W = diag(1_k, Wr) and C = (A B; 0 Cr) with A real invertible.
    """
    tols = get_tolerances()
    W, C = X.W.W, X.C.A
    n = W.shape[0]
    bad = [
        (i, j)
        for i in range(k)
        for j in range(n)
        if abs(W[i, j] - (1.0 if i == j else 0.0)) > 1e3 * tols.abs
    ]
    bad += [(i, j) for i in range(k, n) for j in range(k) if abs(W[i, j]) > 1e3 * tols.abs]
    if bad:
        raise SubgroupRejection("W not of the form diag(1, Wr)", bad)
    cb = {"A": None, "B": C[:k, k:], "Cr": C[k:, k:]}
    bad = [(i, j) for i in range(k, n) for j in range(k) if abs(C[i, j]) > tols.abs]
    if bad:
        raise SubgroupRejection("C lower-left block nonzero", bad)
    A = C[:k, :k]
    bad = [(i, j) for i in range(k) for j in range(k) if abs(A[i, j].imag) > tols.abs]
    if bad:
        raise SubgroupRejection("C's A-block not real", bad)
    cb["A"] = A.real
    if k and abs(np.linalg.det(cb["A"])) <= tols.singular:
        raise SingularityError("A-block singular")
    cb["Wr"] = W[k:, k:]
    cb["z"] = X.C.z
    return cb


def delta_L_tilde(pairXt: tuple[MetaLagFrame, MetaLagFrame], k: int) -> complex:
    """Square-root pairing value on meta frames in block form.

    Value: conj(z1) z2 |det A|^{-1} Gamma(W1r, W2r) on the reduced Ball
    points; its square is delta_L of the projected pair.
    """
    X1, X2 = pairXt
    b1 = _meta_blocks(X1, k)
    b2 = _meta_blocks(X2, k)
    A = _shared_A(b1, b2, k)
    absdetA = abs(np.linalg.det(A)) if k else 1.0
    return b1["z"].conjugate() * b2["z"] / absdetA * gamma(b1["Wr"], b2["Wr"])


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


# ---------------------------------------------------------------------------
# Liouville volume and pairing densities
# ---------------------------------------------------------------------------

def _pfaffian(M: np.ndarray) -> complex:
    """Pfaffian by recursive first-row expansion (exact sign handling)."""
    m = M.shape[0]
    if m == 0:
        return 1.0 + 0j
    if m % 2 == 1:
        return 0.0 + 0j
    if m == 2:
        return complex(M[0, 1])
    total = 0.0 + 0j
    rest = list(range(1, m))
    for idx, j in enumerate(rest):
        keep = [r for r in rest if r != j]
        minor = M[np.ix_(keep, keep)]
        total += (-1.0) ** idx * M[0, j] * _pfaffian(minor)
    return total


def liouville(X: Sequence[np.ndarray], model: Optional[SymplecticModel] = None) -> complex:
    """Liouville volume evaluated on 2n tangent vectors.

    Equals (-1)**(n(n-1)/2) Pf(Omega) with Omega_ij = omega(X_i, X_j);
    scales by det(M) under a basis change by M.
    """
    vecs = [np.asarray(x, dtype=complex) for x in X]
    if not vecs or len(vecs) % 2 != 0:
        raise ValidationError("need an even, positive number of vectors")
    dim = vecs[0].shape[0]
    if any(v.shape != (dim,) for v in vecs) or dim != len(vecs):
        raise ValidationError("need exactly 2n vectors of dimension 2n")
    n = dim // 2
    model = model or SymplecticModel(n)
    stacked = np.column_stack(vecs)
    Om = stacked.T @ model.omega @ stacked
    return (-1.0) ** (n * (n - 1) // 2) * _pfaffian(Om)


def pairing_density(
    prequantum_value: complex,
    nu1: complex,
    nu2: complex,
    pair: LagFramePair,
    lifts: Sequence[np.ndarray],
    mode: str = "half-density",
    delta_tilde_value: Optional[complex] = None,
    model: Optional[SymplecticModel] = None,
) -> complex:
    """Pointwise pairing density of two polarized sections.

    Returns <s1, s2> conj(nu1) nu2 * factor * |Lambda(u_1..u_k, lifts)|,
    where the factor is sqrt|delta_k| in half-density mode and the
    supplied square root delta_tilde_value in half-form mode (checked to
    square to delta_k).
    """
    model = model or SymplecticModel(pair.n)
    d = delta(pair, model)
    if mode == "half-density":
        factor = math.sqrt(abs(d))
    elif mode == "half-form":
        if delta_tilde_value is None:
            raise ValidationError("half-form mode requires delta_tilde_value")
        factor = complex(delta_tilde_value)
        if abs(factor * factor - d) > get_tolerances().rel * abs(d) * 10:
            raise ValidationError("delta_tilde_value does not square to delta")
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    k = pair.k
    shared = [pair.first.stacked()[:, i] for i in range(k)]
    vol = liouville(list(shared) + [np.asarray(v, complex) for v in lifts], model)
    return complex(prequantum_value) * nu1.conjugate() * nu2 * factor * abs(vol)
