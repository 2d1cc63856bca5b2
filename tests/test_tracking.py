import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hfe.errors import TrackingError
from hfe.tracking import _MAX_ARG, principal_sqrt, track_sqrt, track_sqrt_samples


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_principal_sqrt_branch(re, im):
    w = complex(re, im + 0.0)  # normalize -0.0: the cut maps to +i
    z = principal_sqrt(w)
    assert abs(z * z - w) <= 1e-9 * max(1.0, abs(w))
    if w != 0:
        # right half plane up to rounding at the branch cut
        assert -math.pi / 2 - 1e-12 <= cmath.phase(z) <= math.pi / 2 + 1e-12


def test_principal_sqrt_negative_axis():
    # the branch cut maps the negative real axis to +i
    assert principal_sqrt(-1.0) == 1j
    assert principal_sqrt(-4.0) == 2j


def test_track_sqrt_full_loop_changes_sheet():
    # following f(t) = e^{2 pi i t} once around the origin flips the root
    z = track_sqrt(lambda t: np.exp(2j * math.pi * t), 1.0)
    assert abs(z + 1.0) < 1e-9


def test_track_sqrt_bad_anchor():
    with pytest.raises(TrackingError):
        track_sqrt(lambda t: 1.0 + t, 2.0)


def test_track_sqrt_vanishing_path():
    with pytest.raises(TrackingError):
        track_sqrt(lambda t: np.where(t < 0.75, 1.0 - 2.0 * t, 1.0), 1.0)


def test_track_sqrt_partial_interval_composition():
    f = lambda t: np.exp(1.7j * math.pi * t)
    z_mid = track_sqrt(f, 1.0, 0.0, 0.4)
    z_full = track_sqrt(f, z_mid, 0.4, 1.0)
    assert abs(z_full - track_sqrt(f, 1.0)) < 1e-12


def test_track_sqrt_samples_continuity():
    vals = [cmath.exp(0.4j * k) for k in range(8)]
    out = track_sqrt_samples(vals, 1.0)
    for z, v in zip(out, vals):
        assert abs(z * z - v) < 1e-12
    # consecutive roots stay close (no sheet jumps)
    for a, b in zip(out, out[1:]):
        assert abs(b - a) < 1.0


def test_track_sqrt_samples_coarse_edge_rejected():
    with pytest.raises(TrackingError):
        track_sqrt_samples([1.0, -1.0], 1.0)


# ---------------------------------------------------------------------------
# the batched tracker against a scalar stepping oracle
# ---------------------------------------------------------------------------

def _scalar_track(f, z0, t0=0.0, t1=1.0, max_depth=48, initial_steps=16):
    """Reference stepping: one evaluation per parameter, in stack order.

    Returns the tracked value and every parameter it evaluated.
    """
    evaluated = []

    def value(t):
        evaluated.append(t)
        return complex(f(np.array([t]))[0])

    ft0 = value(t0)
    t, ft, z = t0, ft0, complex(z0)
    h = (t1 - t0) / initial_steps
    pending = [t0 + j * h for j in range(initial_steps, 0, -1)]
    depth = 0
    while pending:
        tn = pending[-1]
        fn = value(tn)
        ratio = fn / ft
        if abs(cmath.phase(ratio)) >= _MAX_ARG:
            depth += 1
            assert depth <= max_depth
            pending.append(0.5 * (t + tn))
            continue
        z = z * cmath.sqrt(ratio)
        t, ft = tn, fn
        pending.pop()
        depth = 0
    return z, evaluated


class _Recorder:
    """A path function that logs the parameter arrays it is called on."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, t):
        self.calls.append(np.array(t, copy=True))
        return self.f(t)


def _winding(w):
    return lambda t: np.exp(1j * w * t)


@given(st.floats(-90.0, 90.0), st.floats(0.05, 1.0))
def test_track_sqrt_matches_scalar_oracle(w, t1):
    # |w| * t1 / 16 beyond pi/2 forces bisection of the initial grid
    f = _Recorder(_winding(w))
    z = track_sqrt(f, 1.0, 0.0, t1)
    z_ref, evaluated = _scalar_track(_winding(w), 1.0, 0.0, t1)
    assert abs(z - z_ref) <= 1e-12
    assert abs(z * z - np.exp(1j * w * t1)) <= 1e-9
    # the same parameters, each evaluated once
    batched = np.concatenate(f.calls).tolist()
    assert len(batched) == len(set(batched))
    assert set(batched) == set(evaluated)


def test_track_sqrt_one_call_without_bisection():
    f = _Recorder(_winding(2.0 * math.pi))
    track_sqrt(f, 1.0)
    assert [c.shape for c in f.calls] == [(17,)]
    assert np.array_equal(f.calls[0], np.arange(17) / 16)


def test_track_sqrt_one_call_per_midpoint():
    # 3.75 rad per grid step: each step bisects to 1.875 (still too far)
    # and 0.9375, so it needs three midpoints
    f = _Recorder(_winding(60.0))
    z = track_sqrt(f, 1.0)
    assert abs(z * z - cmath.exp(60j)) < 1e-9
    assert f.calls[0].shape == (17,)
    assert [c.shape for c in f.calls[1:]] == [(1,)] * (16 * 3)
