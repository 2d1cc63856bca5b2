"""Finite-nerve Cech machinery over a :class:`hfe.nerve.Nerve`.

A sign cochain is the GF(2) bits of its signs over the components
(degree 1) or the triple points (degree 2).  Cocycle identities are
checked at triple sample points only; continuous choices of square
roots become breadth-first tracking over component graphs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import groups as G
from .ball import check_positive
from .config import check_bound, get_tolerances, identity_bound
from .errors import SingularityError, ValidationError, raise_first
from .nerve import Nerve
from .smallmat import cabs, det, mul
from .tracking import cdiv, cmul, track_graph


class Cocycle:
    """Group-valued transition data over a nerve.

    Row r of each stack holds the transition t_ab, a < b, at overlap row
    r of the nerve, in the layout of the group:

        Gl    mats (P, n, n) complex
        Glkd  mats (P, 2, n, n) complex, the two members of each pair
        Ml    mats (P, n, n) complex, roots z (P,) with z**2 = det A
        Mp    mats (P, 2n, 2n) real, roots the anchors zeta (P,) with
              zeta**2 = det alpha(g, 0)

    dets holds the values' determinants, (P, 2) for Glkd and det alpha(g,
    0) for Mp (alpha0_det): passed by a maker that holds them for these
    matrices, else taken here; every membership test and lift reads them.
    """

    def __init__(self, group: str, n: int, k: int, mats: np.ndarray,
                 roots: Optional[np.ndarray] = None, dets: Optional[np.ndarray] = None):
        self.group = group
        self.n = n
        self.k = k
        self.mats = mats
        self.roots = roots
        if dets is None:
            dets = G.alpha0_det(mats) if group == "Mp" else det(mats)
        self.dets = dets

    @classmethod
    def ml(cls, n: int, k: int, A: np.ndarray, z, dets=None) -> "Cocycle":
        """The Ml cocycle of the (P, n, n) stack A, its roots z and det(A)
        if held, checked in one pass of check_ml."""
        c = cls("Ml", n, k, np.asarray(A, dtype=complex), np.array(z, dtype=complex), dets)
        G.check_ml(c.dets, c.roots)
        return c


def _membership_residuals(c: Cocycle) -> np.ndarray:
    """Residuals of the group-membership invariant of every row, of c.dets:
    of z**2 = det A (Ml) and zeta**2 = det alpha(g, 0) (Mp), relative to
    max(1, |det|); a det of Gl or Glkd not finite or within ``singular``
    of 0 raises (a Glkd pattern is classified where its
    compatibility.PolarizationPairData is made), and so do an Mp value
    not symplectic and a det alpha(g, 0) within ``singular`` of 0."""
    if c.group in ("Gl", "Glkd"):
        what = "pair cocycle member" if c.group == "Glkd" else "Gl transition"
        size = np.abs(c.dets)
        if not np.isfinite(size).all():
            raise ValidationError(f"{what} has a non-finite determinant")
        if np.any(size <= get_tolerances().singular):
            raise SingularityError(f"{what} is singular")
    if c.roots is None:
        return np.zeros(len(c.mats))
    if c.group == "Mp":
        G.check_sp(c.mats)
        check_positive(c.dets)
    with np.errstate(invalid="ignore"):
        return cabs(cmul(c.roots, c.roots) - c.dets) / np.fmax(1.0, cabs(c.dets))


def validate_cocycle(nerve: Nerve, c: Cocycle) -> dict:
    """Check group membership of every value and the cocycle identity at
    every triple sample point.  c has one row per overlap row of the
    nerve, as every cocycle that loading or a kernel makes over it does.
    Returns a result dict with residuals."""
    tols = get_tolerances()
    res = _membership_residuals(c)
    residuals = res.tolist()
    failures = [("membership", *nerve.keys[nerve.comp[r]], nerve.ids[r], residuals[r])
                for r in np.flatnonzero(~(res <= tols.rel)).tolist()]
    # triple keys are sorted, so every factor is a forward transition
    ab, bc, ac = nerve.triple_rows.T
    if c.roots is None or not len(ab):
        prod, gap = mul(c.mats[ab], c.mats[bc]), np.zeros(len(ab))
    else:
        # products checked as group elements, skipped without triple
        # points since an empty stack still takes det and the closed-form
        # roots of track_sqrt
        group_mul = G.ml_mul if c.group == "Ml" else G.mp_mul
        prod, roots = group_mul(c.mats[ab], c.roots[ab], c.mats[bc], c.roots[bc])
        gap = cabs(roots - c.roots[ac])
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.max(np.abs(prod - c.mats[ac]), axis=tuple(range(1, prod.ndim)),
                      initial=0.0)
    dist = np.maximum(dist, gap)
    failures += [("cocycle", key, pid, r)
                 for (key, pid), r in zip(nerve.triples, dist.tolist())
                 if not r <= identity_bound(tols)]
    return {"ok": not failures, "max_residual": G.worst(res, dist), "failures": failures}


# ---------------------------------------------------------------------------
# associated-bundle pushforward
# ---------------------------------------------------------------------------

def push_cocycle(c: Cocycle) -> Cocycle:
    """The transition functions of the first polarization's frame bundle:
    the Gl cocycle of the first member of every pair of the Glkd cocycle
    c, with their determinants."""
    return Cocycle("Gl", c.n, c.k, c.mats[:, 0], dets=c.dets[:, 0])


# ---------------------------------------------------------------------------
# GF(2) linear algebra
# ---------------------------------------------------------------------------

def _gf2_reduce(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of M over GF(2) by Gaussian elimination.

    Returns the reduced uint8 matrix, whose first len(pivots) rows are
    nonzero, and the pivot columns in increasing order.  Each pivot row
    is the first remaining row with a one in that column.
    """
    R = (np.asarray(M) & 1).astype(np.uint8, order="C")  # contiguous row XORs
    pivots: list[int] = []
    for col in range(R.shape[1]):
        r = len(pivots)
        if r == R.shape[0]:
            break
        rows = np.flatnonzero(R[r:, col])
        if rows.size == 0:
            continue
        p = r + int(rows[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        ones = np.flatnonzero(R[:, col])
        R[ones[ones != r]] ^= R[r]
        pivots.append(col)
    return R, pivots


def _gf2_nullspace(M: np.ndarray) -> np.ndarray:
    """Basis of {x : M x = 0} over GF(2), one uint8 row per free column,
    the free columns in increasing order.  Each row's highest one is at
    its own free column, where no other row has a one."""
    R, pivots = _gf2_reduce(M)
    free = sorted(set(range(R.shape[1])) - set(pivots))
    N = np.zeros((len(free), R.shape[1]), dtype=np.uint8)
    N[np.arange(len(free)), free] = 1
    N[:, pivots] = R[:len(pivots), free].T
    return N


def gf2_solve(A: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Solve A x = b over GF(2) by Gaussian elimination.

    Returns one particular solution as a uint8 vector (pivot variables
    from the reduced system, free variables 0), or None if the system is
    infeasible.
    """
    n = np.shape(A)[1]
    R, pivots = _gf2_reduce(np.column_stack([A, np.reshape(b, -1)]))
    if pivots and pivots[-1] == n:
        return None
    x = np.zeros(n, dtype=np.uint8)
    x[pivots] = R[:len(pivots), n]
    return x


def chart_signs(nerve: Nerve, bits: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve delta0 x = bits over GF(2) down nerve.forest, bits over
    nerve.keys: x is 0 at each root, and x[nxt] = x[cur] ^ bits[edge] at
    each tree visit.  Returns x and whether x[a] ^ x[b] == bits on every
    join (a, b).  A feasible x is gf2_solve's particular solution on
    delta0, whose elimination frees each piece's last chart, its root."""
    x = np.zeros(len(nerve.charts), dtype=np.uint8)
    walk = nerve.forest
    cur, nxt = walk.visits.T
    for at in walk.levels[1:]:
        x[nxt[at]] = x[cur[at]] ^ bits[walk.edges[at]]
    a, b = nerve.joins.T
    return x, bool(np.array_equal(x[a] ^ x[b], bits))


class LiftClasses:
    """The sign patterns on overlap components (entry j flips component
    j): valid ones keep the cocycle identity (ker delta1), coboundaries
    come from chart signs (im delta0), and classes = valid / coboundaries
    is the order of H^1.  representatives is a (rows, C) uint8 array,
    one row per generator of H^1, each zero on the tree components of
    nerve.forest, so no nonzero sum of rows is a coboundary."""

    def __init__(self, valid: int, coboundaries: int, classes: int,
                 representatives: np.ndarray):
        self.valid = valid
        self.coboundaries = coboundaries
        self.classes = classes
        self.representatives = representatives


def lift_classes(nerve: Nerve) -> LiftClasses:
    """The lift classes of a nerve from its chart forest.  A sign pattern
    is cohomologous to exactly one pattern that is zero on the forest's
    tree components, and valid iff that one is, since delta1 delta0 = 0;
    so H^1 is the nullspace of delta1 on the other components, by one
    elimination, and there are 2^(tree components) coboundaries."""
    tree = nerve.forest.edges[nerve.forest.depth > 0]
    free = np.ones(len(nerve.keys), dtype=bool)
    free[tree] = False
    null = _gf2_nullspace(nerve.delta1[:, free])
    representatives = np.zeros((len(null), len(free)), dtype=np.uint8)
    representatives[:, free] = null
    classes, coboundaries = 2 ** len(null), 2 ** len(tree)
    return LiftClasses(classes * coboundaries, coboundaries, classes, representatives)


# ---------------------------------------------------------------------------
# double-cover lifting
# ---------------------------------------------------------------------------

def flip_sheets(nerve: Nerve, c: Cocycle, pattern: np.ndarray) -> Cocycle:
    """The Ml cocycle c with its z-sheet flipped on the components whose
    bit of pattern (over nerve.keys) is set; negating a root is exact,
    so the flipped rows are in Ml as c's are."""
    z = np.where(pattern.astype(bool)[nerve.comp], -c.roots, c.roots)
    return Cocycle("Ml", c.n, c.k, c.mats, z, c.dets)


def _sign_bits(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The GF(2) bits of ratios that should be signs, 0 for +1 and 1 for
    -1, and the flags of the ratios within check_bound of neither."""
    bound = check_bound(get_tolerances())
    up, down = cabs(r - 1.0), cabs(r + 1.0)
    return (down < up).astype(np.uint8), (up > bound) & (down > bound)


def lift_double_cover(nerve: Nerve, c: Cocycle):
    """Lift a Gl cocycle (push_cocycle's) through the metalinear double
    cover.

    Chooses a continuous square root of det t_ab (c.dets) per overlap
    component, each tracked from its first point with the principal root,
    solves the triple-point sign defects for per-component flips over
    GF(2), and returns the Ml cocycle; if the GF(2) system is infeasible
    the defect bits over nerve.triples (a degree-2 sign cochain) are
    returned instead — the witness of a nontrivial obstruction class.
    """
    z = track_graph(c.dets, nerve.overlap_walk,
                    nerve.ids, 1, jump=lambda r: "(edge too long)",
                    cycle=lambda r: "around a cycle in component")

    ab, bc, ac = nerve.triple_rows.T
    s = cdiv(cmul(z[ab], z[bc]), z[ac])
    rhs, off = _sign_bits(s)
    raise_first([(off, lambda t: ValidationError(
        f"triple defect at {nerve.triples[t][1]} is not a sign: {complex(s[t])} "
        "(input not a cocycle?)"))])
    sol = gf2_solve(nerve.delta1, rhs)
    if sol is None:
        return rhs
    z = np.where(sol.astype(bool)[nerve.comp], -z, z)
    return Cocycle.ml(c.n, c.k, c.mats, z, c.dets)


def z2_coboundary_solve(nerve: Nerve, c2: np.ndarray) -> Optional[np.ndarray]:
    """The bits over nerve.keys of a degree-1 sign cochain whose
    coboundary is the degree-2 sign cochain c2 (bits over nerve.triples),
    or None if GF(2) elimination proves there is none."""
    return gf2_solve(nerve.delta1, c2)


def lifts_equivalent(nerve: Nerve, l1: Cocycle, l2: Cocycle
                     ) -> Optional[dict[str, int]]:
    """Decide whether two Ml lifts of the same Gl cocycle differ by a
    coboundary of chart signs.

    Returns the witness {chart: epsilon} with z2 = eps_a eps_b z1 on
    every overlap component, by chart_signs, or None if the lifts are
    inequivalent.  Only the roots are compared: both engine callers
    pass lifts whose matrices are equal bit for bit.
    """
    r = cdiv(l2.roots, l1.roots)
    bits, off = _sign_bits(r)
    # each row against the first row of its component
    starts = [rows.start for rows in nerve.components.values()]
    raise_first([
        (off, lambda p: ValidationError(
            f"z-ratio at {nerve.ids[p]} is not a sign: {complex(r[p])}")),
        (bits != bits[starts][nerve.comp], lambda p: ValidationError(
            "z-ratio not constant on an overlap component")),
    ])
    sol, exact = chart_signs(nerve, bits[starts])
    return {ch: -1 if bit else 1 for ch, bit in zip(nerve.charts, sol)} if exact else None
