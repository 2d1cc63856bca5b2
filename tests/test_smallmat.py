"""The small-matrix kernel against LAPACK and BLAS, and the kernel as the
one home of numpy.linalg and of matrix products in the package.

The closed forms (m <= 2) must agree with np.linalg within a few ulps
times a condition number, over stacks of 0, 1 and 5 matrices, real and
complex, with entries scaled by 10**-150, 1 or 10**150 and near-singular
rows; m = 3 takes the np.linalg fallback.  np.linalg.det is sign times
exp(log|det|), which loses about |ln|det|| ulps, so its bound carries
that term.  Products, sums of K outer products for every K, must
agree with np.matmul within a few ulps times sum_k |a_ik| |b_kj|.  Every
kernel call runs with RuntimeWarnings as errors.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfe import ball
from hfe.config import get_tolerances
from hfe.errors import SingularityError
from hfe.smallmat import det, eigvals, hermitian_extremes, inv, lstsq, mul, opnorm

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hfe"
EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal


@st.composite
def _stacks(draw, rows=None):
    """A stack (P, rows or m, m) with its m: normal entries times a scale,
    the last row near a multiple of the first, or not."""
    m = draw(st.sampled_from([0, 1, 2, 3]))
    size = draw(st.sampled_from([0, 1, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (size, m if rows is None else rows(m), m)
    A = rng.standard_normal(shape)
    if draw(st.booleans()):
        A = A + 1j * rng.standard_normal(shape)
    near = draw(st.sampled_from([None, 1e-6, 1e-12]))
    if near is not None and m > 1:
        A[:, -1] = 0.7 * A[:, 0] + near * A[:, -1]
    return A * draw(st.sampled_from([1e-150, 1.0, 1e150])), m


def _rows_product(A):
    """The Hadamard bound prod_i |row i| on |det A|, per matrix."""
    return np.prod(np.linalg.norm(A, axis=-1), axis=-1)


@settings(max_examples=300, deadline=None)
@given(_stacks())
def test_det_and_inv_agree_with_lapack(case):
    A, m = case
    got = det(A)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = np.linalg.det(A)
        bound = _rows_product(A)
        slack = np.abs(np.log(np.where(bound > 0, bound, 1.0)))
        # an overflow is inf on both sides (m = 3 only)
        close = (got == want) | (np.abs(got - want) <= 8 * EPS * (m + slack) * bound)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.all(close)
    # inv's precondition: every determinant exceeds ``singular`` in size
    A = A[np.abs(want) > get_tolerances().singular]
    if not m or not len(A):
        assert inv(A, det(A)).shape == A.shape
        return
    want = np.linalg.inv(A)
    err = np.linalg.norm(inv(A, det(A)) - want, 2, axis=(-2, -1))
    size = np.linalg.norm(want, 2, axis=(-2, -1))
    assert np.all(err <= 16 * m * EPS * np.linalg.cond(A) * size)


@settings(max_examples=200, deadline=None)
@given(_stacks(rows=lambda m: 2 * m), st.integers(1, 3))
def test_lstsq_agrees_with_the_pseudo_inverse(case, cols):
    # the normal equations square the condition number
    A, m = case
    if m == 0 or not len(A):
        return
    B = A @ np.ones((m, cols)) + A[:, :, :1]
    want = np.linalg.pinv(A) @ B
    cond = np.linalg.cond(A)
    err = np.linalg.norm(lstsq(A, B) - want, 2, axis=(-2, -1))
    assert np.all(err <= 64 * EPS * cond * cond * np.linalg.norm(want, 2, axis=(-2, -1)))


@settings(max_examples=200, deadline=None)
@given(_stacks())
def test_norm_and_hermitian_extremes_agree_with_lapack(case):
    A, m = case
    if m == 0:
        return
    norm = np.linalg.norm(A, 2, axis=(-2, -1))
    assert np.all(np.abs(opnorm(A) - norm) <= 8 * m * EPS * norm)
    # a Hermitian stack at a scale that keeps A A* in range
    A = A / np.maximum(np.max(np.abs(A), axis=(-2, -1), initial=0.0), 1e-300)[:, None, None]
    H = A @ np.swapaxes(A, -1, -2).conj() - np.eye(m)
    vals = np.linalg.eigvalsh(H)
    lo, hi = hermitian_extremes(H)
    size = np.max(np.abs(vals), axis=-1, initial=1.0)
    assert np.all(np.abs(lo - vals[:, 0]) <= 16 * m * EPS * size)
    assert np.all(np.abs(hi - vals[:, -1]) <= 16 * m * EPS * size)


@st.composite
def _products(draw):
    """Operands (P, m, K) and (P, K, p) of a product, m, p <= 4 and
    K <= 5, one of them maybe 2-D (m, K) or
    (K, p): normal entries times a scale each, real or complex, and
    maybe a NaN or an infinity in matrix 2 of a stack of 5 (the bad
    value, or None)."""
    m, K, p = (draw(st.integers(0, 5 if i == 1 else 4)) for i in range(3))
    size = draw(st.sampled_from([0, 1, 5]))
    flat = draw(st.sampled_from([None, 0, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = []
    for i, shape in enumerate([(m, K), (K, p)]):
        shape = shape if flat == i else (size, *shape)
        X = rng.standard_normal(shape)
        if draw(st.booleans()):
            X = X + 1j * rng.standard_normal(shape)
        ops.append(X * draw(st.sampled_from([1e-150, 1.0, 1e150])))
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is None or size != 5 or not m * K * p:
        return *ops, None
    X = ops[draw(st.sampled_from([i for i in (0, 1) if i != flat]))]
    X[2, draw(st.integers(0, X.shape[1] - 1)), draw(st.integers(0, X.shape[2] - 1))] = bad
    return *ops, bad


@settings(max_examples=400, deadline=None)
@given(_products())
def test_products_agree_with_matmul(case):
    A, B, bad = case
    got = mul(A, B)
    with np.errstate(all="ignore"):
        want = np.matmul(A, B)
        size = np.matmul(np.abs(A), np.abs(B))
    assert got.shape == want.shape and got.dtype == want.dtype
    keep = np.arange(len(got)) != 2 if bad is not None else slice(None)
    K = A.shape[-1]
    assert np.all(np.abs(got[keep] - want[keep])
                  <= 8 * (K + 2) * EPS * size[keep] + 4 * K * TINY)
    if bad is not None:
        assert not np.all(np.isfinite(got[2]))


def test_products_check_their_shapes():
    for A, B in [(np.ones((2, 3)), np.ones((2, 3))), (np.ones(3), np.ones((3, 1))),
                 (np.float64(2.0), np.ones((1, 1))),
                 (np.ones((2, 6)), np.ones((5, 1)))]:
        with pytest.raises(ValueError):
            mul(A, B)


@pytest.mark.parametrize("scale", [1e-310, 1e-200, 1e160, 1e300])
@pytest.mark.parametrize("m", [1, 2])
def test_spectral_norm_beyond_the_range_of_the_square(scale, m):
    # W* W would overflow or underflow; the power-of-two scaling is exact
    rng = np.random.default_rng(3)
    W = (rng.uniform(-1, 1, (5, m, m)) + 1j * rng.uniform(-1, 1, (5, m, m))) * scale
    want = np.linalg.norm(W, 2, axis=(-2, -1))
    assert np.all(np.abs(opnorm(W) - want) <= 8 * m * EPS * want)
    assert np.all(opnorm(scale * np.eye(m)[None]) == scale)


def _near_unitary(count: int, spread: float) -> np.ndarray:
    """2 x 2 unitary matrices with singular values 1 and 1 + spread."""
    rng = np.random.default_rng(5)
    out = []
    for _ in range(count):
        U, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        V, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        out.append(U @ np.diag([1.0, 1.0 + spread]) @ V)
    return np.array(out)


@pytest.mark.parametrize("spread", [0.0, 1e-12, 1e-8])
def test_spectral_norm_of_near_unitary_matrices(spread):
    # when the singular values meet, the sum form cancels and the
    # Hermitian form does not
    W = _near_unitary(500, spread)
    want = np.linalg.norm(W, 2, axis=(-2, -1))
    assert np.max(np.abs(opnorm(W) - want) / want) <= 1e-14
    s = np.sum(np.abs(W) ** 2, axis=(-2, -1))
    root = np.sqrt(np.maximum(0.0, s * s - 4 * np.abs(det(W)) ** 2))
    assert np.max(np.abs(np.sqrt((s + root) / 2) - want) / want) > 1e-14


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_non_finite_input_gives_non_finite_output(m, bad, dtype):
    # of matrix 1 of 3; the inverse of (+-inf) is +-0, as LAPACK's is
    A = np.ones((3, m, m), dtype=dtype) + np.eye(m)
    A[1, -1, 0] = bad
    B = np.concatenate([A, A], axis=-2)
    outs = [det(A), opnorm(A), lstsq(B, B),
            *hermitian_extremes(A + np.swapaxes(A, -1, -2).conj())]
    if m == 2 or np.isnan(bad):
        outs.append(inv(A, det(A)))
    for out in outs:
        assert np.all(np.isfinite(out[[0, 2]]))
        assert not np.all(np.isfinite(out[1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pencil_eigenvalues_are_lapacks_and_nan_where_not_finite(bad):
    # m > 2 only: the tracker's pencils take m <= 2 in closed form
    rng = np.random.default_rng(5)
    A, X = (rng.standard_normal((3, 4, 4)) + 0j for _ in range(2))
    X[1, 2, 0] = bad
    got = eigvals(A, X)
    assert np.array_equal(got[[0, 2]], np.linalg.eigvals(np.linalg.solve(A[[0, 2]], X[[0, 2]])))
    assert np.isnan(got[1]).all()


def test_overflowing_determinant_is_nan_without_a_warning():
    A = np.array([[1e200, 1e200], [1e200, 2e200]])
    assert np.isnan(det(A))
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.det(A))
    with pytest.raises(SingularityError):
        ball.check_positive(det(A)[None])


def test_check_positive_rejects_nan():
    with pytest.raises(SingularityError):
        ball.check_positive(np.array([np.nan + 0j]))
    ball.check_positive(np.array([1.0 + 0j, np.inf]))


# numpy's matrix products, by the names of their functions and methods
PRODUCTS = {"matmul", "dot", "einsum", "tensordot", "inner", "vdot"}


def _uses(tree: ast.Module, names: set) -> list[int]:
    """The sorted lines of a module that name one of names: as an
    attribute, a bare name or a part of an import; with "@" in names,
    also the lines of the operators @ and @=."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in names:
            lines.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            if "@" in names:
                lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any(names & set(name.split(".")) for name in imported):
                lines.append(node.lineno)
    return sorted(lines)


def _package_uses(names: set) -> dict[str, list[int]]:
    return {path.stem: _uses(ast.parse(path.read_text()), names)
            for path in sorted(PACKAGE.glob("*.py"))}


def test_numpy_linalg_is_used_only_by_the_kernel():
    uses = _package_uses({"linalg"})
    assert uses.pop("smallmat")
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_matrix_products_are_taken_only_by_the_kernel():
    probe = ("a @ b\nx @= y\nnp.dot(a, b)\na.dot(b)\nnp.einsum('ij', a)\n"
             "from numpy import vdot\nnp.tensordot(a, b)\nnp.inner(a, b)\n"
             "np.matmul(a, b)\na * b\nnp.multiply(a, b)\n")
    assert _uses(ast.parse(probe), {"@", *PRODUCTS}) == list(range(1, 10))
    # the kernel's own mul is elementwise: no module calls a BLAS product
    uses = _package_uses({"@", *PRODUCTS})
    assert {name: lines for name, lines in uses.items() if lines} == {}
