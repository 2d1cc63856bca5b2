"""The stacked sampler of seeded metalinear pairs that the tests draw
from (helpers.random_mlkd_stack)."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hfe.config import tolerance_overrides
from hfe.errors import SingularityError
from hfe.groups import check_ml, subgroup_classify

from helpers import random_mlkd_stack

_SEEDS = st.integers(0, 2 ** 64 - 1)


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
def test_the_stream_warns_nowhere(seed):
    # the command line's tests turn warnings into errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        random_mlkd_stack(np.random.default_rng(seed), 40, 3, 1)


def _mlkd_blocks(M1, z1, M2, z2, k: int) -> dict:
    """The Glkd blocks of the pairs (M1[p], M2[p]), after the Ml test of
    every member: z**2 = det M = det(A) det(D) of a block-triangular M."""
    check_ml(np.concatenate([M1, M2]), np.concatenate([z1, z2]))
    return subgroup_classify(M1, M2, k)


@st.composite
def _draws(draw):
    n = draw(st.integers(0, 4))
    return (draw(st.integers(0, 30)), n, draw(st.integers(0, n)),
            draw(st.booleans()), draw(_SEEDS))


@settings(max_examples=80, deadline=None)
@given(_draws())
def test_stack_holds_m_seeded_mlkd_pairs(params):
    m, n, k, diagonal, seed = params
    got = random_mlkd_stack(np.random.default_rng(seed), m, n, k, diagonal)
    M1, z1, M2, z2 = got
    assert M1.shape == M2.shape == (m, n, n)
    assert z1.shape == z2.shape == (m,)
    blocks = _mlkd_blocks(M1, z1, M2, z2, k)
    assert np.all(np.abs(np.linalg.det(blocks["A"])) > 1e-3)
    assert np.all(np.abs(np.linalg.det(blocks["D1"])) > 1e-3)
    assert np.all(np.abs(np.linalg.det(blocks["D2"])) > 1e-3)
    for M, z in ((M1, z1), (M2, z2)):
        np.testing.assert_allclose(z * z, np.linalg.det(M), rtol=1e-9, atol=0)
    if diagonal:
        assert np.array_equal(M1, M2) and np.array_equal(z1, z2)
    again = random_mlkd_stack(np.random.default_rng(seed), m, n, k, diagonal)
    assert all(np.array_equal(a, b) for a, b in zip(again, got))


@settings(max_examples=60, deadline=None)
@given(_draws(), st.sampled_from([0.5, 0.9, 1.5]))
def test_draws_pass_the_singularity_tests_at_the_run_tolerance(params, singular):
    m, n, k, diagonal, seed = params
    assume(n or singular < 1)  # the empty matrix has det 1
    with tolerance_overrides(singular=singular):
        M1, z1, M2, z2 = random_mlkd_stack(np.random.default_rng(seed), m, n, k, diagonal)
        blocks = _mlkd_blocks(M1, z1, M2, z2, k)
    assert not k or np.all(np.abs(np.linalg.det(blocks["A"])) > singular)
    for M in (M1, M2):
        assert np.all(np.abs(np.linalg.det(M)) > singular)


def test_an_unreachable_singular_tolerance_ends_the_redraws():
    with tolerance_overrides(singular=1e300), pytest.raises(SingularityError):
        random_mlkd_stack(np.random.default_rng(0), 5, 2, 1)


class _SingularRows:
    """A Generator stand-in whose uniform calls numbered in `calls` return their
    draw with the first matrix of the stack set to zero; records the shape
    of every uniform call."""

    def __init__(self, calls):
        self.rng = np.random.default_rng(3)
        self.calls = calls
        self.shapes = []

    def uniform(self, low, high, size):
        out = self.rng.uniform(low, high, size)
        self.shapes.append(size)
        if len(self.shapes) in self.calls:
            out[..., 0, :, :] = 0.0
        return out

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


# m = 4 pairs, n = 2, k = 1: the draws of A, of B and of D (real and
# imaginary parts in one call), and the redraw of the one singular row of
# A or of D
@pytest.mark.parametrize("calls,shapes", [
    ({1}, [(4, 1, 1), (1, 1, 1), (2, 2, 4, 1, 1), (2, 8, 1, 1)]),
    ({3}, [(4, 1, 1), (2, 2, 4, 1, 1), (2, 8, 1, 1), (2, 1, 1, 1)]),
], ids=["A", "D"])
def test_singular_rows_alone_are_redrawn(calls, shapes):
    rng = _SingularRows(calls)
    M1, z1, M2, z2 = random_mlkd_stack(rng, 4, 2, 1)
    assert rng.shapes == shapes
    blocks = _mlkd_blocks(M1, z1, M2, z2, 1)
    assert np.all(np.abs(blocks["A"][:, 0, 0]) > 1e-3)
    assert np.all(np.abs(blocks["D1"][:, 0, 0]) > 1e-3)
