"""The engine's seeded draw stream and the stacked sampler of seeded
metalinear pairs."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hfe.config import tolerance_overrides
from hfe.errors import SingularityError
from hfe.groups import subgroup_classify
from hfe.sampling import Draws, random_mlkd_stack

_SEEDS = st.integers(0, 2 ** 64 - 1)


def _splitmix64(seed: int, i: int) -> int:
    """Value i of the stream of seed, by SplitMix64 on Python ints."""
    x = (seed + (i + 1) * 0x9E3779B97F4A7C15) % 2 ** 64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB % 2 ** 64
    return x ^ (x >> 31)


# the first uniforms on [0, 1), then (a fresh stream) integers below 1000,
# of the least and the largest seed; (0xe220a8397b1dcdaf >> 11) * 2**-53,
# from SplitMix64's first value at seed 0, is the first uniform of seed 0
@pytest.mark.parametrize("seed,uniform,integers", [
    (0, [0.8833108082136426, 0.43152799704850997, 0.026433771592597743],
     [535, 700, 679, 444]),
    (2 ** 64 - 1, [0.8939429202831845, 0.9125972035944532, 0.21948196289526756],
     [936, 969, 1, 842]),
])
def test_first_values_of_the_stream_are_pinned(seed, uniform, integers):
    assert Draws(seed).uniform(size=3).tolist() == uniform
    assert Draws(seed).integers(1000, size=4).tolist() == integers
    assert Draws(0).uniform(size=1)[0] == (0xE220A8397B1DCDAF >> 11) * 2.0 ** -53


@settings(max_examples=60, deadline=None)
@given(_SEEDS, st.integers(0, 5), st.integers(0, 5))
def test_each_draw_takes_the_next_values_of_the_stream(seed, before, size):
    draws = Draws(seed)
    draws.integers(7, size=before)
    got = draws.uniform(size=(size,))
    assert got.tolist() == [(_splitmix64(seed, before + i) >> 11) * 2.0 ** -53
                            for i in range(size)]
    assert draws.integers(2 ** 63, size=size).tolist() == [
        _splitmix64(seed, before + size + i) % 2 ** 63 for i in range(size)]


@settings(max_examples=60, deadline=None)
@given(_SEEDS, st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (-2.0, 2.0)]),
       st.integers(1, 2 ** 63))
def test_values_fall_in_their_ranges(seed, bounds, high):
    draws = Draws(seed)
    low, top = bounds
    u = draws.uniform(low, top, (3, 5))
    assert u.shape == (3, 5) and u.dtype == float
    assert np.all((low <= u) & (u < top))
    i = draws.integers(high, size=(2, 7))
    assert i.shape == (2, 7) and i.dtype == np.int64
    assert np.all((0 <= i) & (i < high))


@given(_SEEDS)
def test_equal_seeds_give_equal_stacks_and_calls_move_on(seed):
    first, again = Draws(seed), Draws(seed)
    a, b = first.uniform(-1.0, 1.0, (4, 3, 3)), first.uniform(-1.0, 1.0, (4, 3, 3))
    assert np.array_equal(a, again.uniform(-1.0, 1.0, (4, 3, 3)))
    assert np.array_equal(b, again.uniform(-1.0, 1.0, (4, 3, 3)))
    assert not np.array_equal(a, b)
    assert not np.array_equal(first.integers(2 ** 40, size=8),
                              first.integers(2 ** 40, size=8))


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
def test_the_stream_warns_nowhere(seed):
    # numpy scalar uint64 arithmetic warns on overflow, and the command
    # line's tests turn warnings into errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = Draws(seed)
        for size in (None, 0, 1, (64, 3, 3)):
            draws.uniform(-1.0, 1.0, size)
            draws.integers(2 ** 63, size=size)
        random_mlkd_stack(draws, 40, 3, 1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seeds_outside_the_counter_range_are_rejected(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        Draws(seed)


def test_the_largest_values_stay_below_their_bounds():
    # x >> 11 = 2**53 - 1 for x = 2**64 - 1
    class Top(Draws):
        def _next(self, size):
            return np.full(size, 2 ** 64 - 1, dtype=np.uint64), (size,)

    assert Top(0).uniform(-2.0, 2.0, 1)[0] == 2.0 - 2.0 ** -51
    assert Top(0).uniform(0.0, 1.0, 1)[0] == 1.0 - 2.0 ** -53
    assert Top(0).integers(2 ** 63, 1)[0] == 2 ** 63 - 1
    with pytest.raises(ValueError, match="high"):
        Draws(0).integers(0, 1)


@st.composite
def _draws(draw):
    n = draw(st.integers(0, 4))
    return (draw(st.integers(0, 30)), n, draw(st.integers(0, n)),
            draw(st.booleans()), draw(_SEEDS))


@settings(max_examples=80, deadline=None)
@given(_draws())
def test_stack_holds_m_seeded_mlkd_pairs(params):
    m, n, k, diagonal, seed = params
    got = random_mlkd_stack(Draws(seed), m, n, k, diagonal)
    M1, z1, M2, z2 = got
    assert M1.shape == M2.shape == (m, n, n)
    assert z1.shape == z2.shape == (m,)
    blocks = subgroup_classify(M1, M2, k, z1.tolist(), z2.tolist())
    assert np.all(np.abs(np.linalg.det(blocks["A"])) > 1e-3)
    assert np.all(np.abs(np.linalg.det(blocks["D1"])) > 1e-3)
    assert np.all(np.abs(np.linalg.det(blocks["D2"])) > 1e-3)
    for M, z in ((M1, z1), (M2, z2)):
        np.testing.assert_allclose(z * z, np.linalg.det(M), rtol=1e-9, atol=0)
    if diagonal:
        assert np.array_equal(M1, M2) and np.array_equal(z1, z2)
    again = random_mlkd_stack(Draws(seed), m, n, k, diagonal)
    assert all(np.array_equal(a, b) for a, b in zip(again, got))


@settings(max_examples=60, deadline=None)
@given(_draws(), st.sampled_from([0.5, 0.9, 1.5]))
def test_draws_pass_the_singularity_tests_at_the_run_tolerance(params, singular):
    m, n, k, diagonal, seed = params
    assume(n or singular < 1)  # the empty matrix has det 1
    with tolerance_overrides(singular=singular):
        M1, z1, M2, z2 = random_mlkd_stack(Draws(seed), m, n, k, diagonal)
        blocks = subgroup_classify(M1, M2, k, z1.tolist(), z2.tolist())
    assert not k or np.all(np.abs(np.linalg.det(blocks["A"])) > singular)
    for M in (M1, M2):
        assert np.all(np.abs(np.linalg.det(M)) > singular)


def test_an_unreachable_singular_tolerance_ends_the_redraws():
    with tolerance_overrides(singular=1e300), pytest.raises(SingularityError):
        random_mlkd_stack(Draws(0), 5, 2, 1)


class _SingularRows:
    """A draw stream whose uniform calls numbered in `calls` return their
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


# m = 4 pairs, n = 2, k = 1: the draws of A, of B and of D (real, then
# imaginary parts), and the redraw of the one singular row of A or of D
@pytest.mark.parametrize("calls,shapes", [
    ({1}, [(4, 1, 1), (1, 1, 1), (2, 4, 1, 1), (2, 4, 1, 1), (8, 1, 1), (8, 1, 1)]),
    ({4, 5}, [(4, 1, 1), (2, 4, 1, 1), (2, 4, 1, 1), (8, 1, 1), (8, 1, 1),
              (1, 1, 1), (1, 1, 1)]),
], ids=["A", "D"])
def test_singular_rows_alone_are_redrawn(calls, shapes):
    rng = _SingularRows(calls)
    M1, z1, M2, z2 = random_mlkd_stack(rng, 4, 2, 1)
    assert rng.shapes == shapes
    blocks = subgroup_classify(M1, M2, 1, z1.tolist(), z2.tolist())
    assert np.all(np.abs(blocks["A"][:, 0, 0]) > 1e-3)
    assert np.all(np.abs(blocks["D1"][:, 0, 0]) > 1e-3)
