import cmath
import math
import os
import subprocess
import sys
from cmath import sqrt as principal_sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import hfe
from hfe.cech import Cocycle, Nerve, OverlapComponent, SamplePoint, lift_double_cover
from hfe.config import check_bound, get_tolerances
from hfe.errors import TrackingError
from hfe.induction import chart_sqrt_values
from hfe.tracking import (
    _MAX_ARG,
    Walk,
    _sqrt,
    _turns,
    _turns_at,
    cabs,
    cdiv,
    cmul,
    track_graph,
    track_sqrt,
)

from helpers import per_point


def _alone(f, z0, *interval):
    """track_sqrt on the stack of the one path f, anchored at z0."""
    return track_sqrt(lambda t: f(t)[None], [z0], *interval)[0]


def _root(w: complex) -> complex:
    """_sqrt of the one value w."""
    return _sqrt(np.array([w], dtype=complex)).tolist()[0]


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_principal_sqrt_branch(re, im):
    w = complex(re, im + 0.0)  # normalize -0.0: the cut maps to +i
    z = _root(w)
    assert abs(z * z - w) <= 1e-9 * max(1.0, abs(w))
    if w != 0:
        # right half plane up to rounding at the branch cut
        assert -math.pi / 2 - 1e-12 <= cmath.phase(z) <= math.pi / 2 + 1e-12


def test_principal_sqrt_negative_axis():
    # the branch cut maps the negative real axis to +i
    assert _root(-1.0) == 1j
    assert _root(-4.0) == 2j


def test_track_sqrt_full_loop_changes_sheet():
    # following f(t) = e^{2 pi i t} once around the origin flips the root
    z = _alone(lambda t: np.exp(2j * math.pi * t), 1.0)
    assert abs(z + 1.0) < 1e-9


def test_track_sqrt_bad_anchor():
    with pytest.raises(TrackingError):
        _alone(lambda t: 1.0 + t, 2.0)


def test_track_sqrt_vanishing_path():
    with pytest.raises(TrackingError):
        _alone(lambda t: np.where(t < 0.75, 1.0 - 2.0 * t, 1.0), 1.0)


def test_track_sqrt_partial_interval_composition():
    f = lambda t: np.exp(1.7j * math.pi * t)
    z_mid = _alone(f, 1.0, 0.0, 0.4)
    z_full = _alone(f, z_mid, 0.4, 1.0)
    assert abs(z_full - _alone(f, 1.0)) < 1e-12


def test_track_sqrt_rejects_a_sign_jump_without_hanging():
    # the path changes sign without vanishing: bisection shrinks the step
    # toward the jump until no midpoint is left between its two ends
    code = ("import numpy as np\n"
            "from hfe.errors import TrackingError\n"
            "from hfe.tracking import track_sqrt\n"
            "try:\n"
            "    track_sqrt(lambda t: np.where(t < 0.3, 1.0, -1.0)[None], [1.0])\n"
            "except TrackingError as exc:\n"
            "    print(exc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hfe.__file__).parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("path jumps near t=0.3")
    assert "branch ambiguity" in proc.stdout


# a step argument past _MAX_ARG
_THETA = 0.5 * math.pi * 0.9995


def _subnormal_path(split):
    """1 at t = 0 and 2 + 5e-324j up to t = 1/32: the angle of the ratio
    of the two underflows to a subnormal.  Past 1/32 the argument turns
    by _THETA, in two halves at t = 3/64 if ``split``."""
    def f(t):
        turned = 2 * np.exp(1j * np.where(split & (t <= 3 / 64), 0.5, 1.0) * _THETA)
        return np.where(t == 0, 1.0, np.where(t <= 1 / 32, 2 + 5e-324j, turned))
    return f


def test_track_sqrt_steps_through_a_subnormal_step_angle():
    # the first grid step turns by _THETA, so _bisect takes it; the angle
    # of its first half underflows, where cmath.phase raised OverflowError
    z = _alone(_subnormal_path(True), 1.0)
    assert abs(z - cmath.sqrt(2 * cmath.exp(1j * _THETA))) < 1e-12
    # unsplit, the turn at 1/32 is a branch jump
    with pytest.raises(TrackingError, match="bisection depth exceeded"):
        _alone(_subnormal_path(False), 1.0)


@pytest.mark.parametrize("f", [
    lambda t: np.full(len(t), 1e308 + 1e308j),
    # every grid step turns by _THETA, so _bisect takes it
    lambda t: 1.5e308 * np.exp(1j * (np.pi / 4 + 16 * _THETA * t)),
], ids=["constant", "turning"])
def test_track_sqrt_near_the_float_maximum(f):
    # Python's quotient of two such values overflows (nan + 0j for equal
    # ones), which the trackers took for a step they must bisect, until
    # the bisection depth was exceeded
    start, end = f(np.array([0.0, 1.0])).tolist()
    z = _alone(f, cmath.sqrt(start))
    assert abs(z * z - end) <= 1e-14 * abs(end)


# Smith's denominator of a quotient by 1e308-1e308j overflows, and for
# -1e308j over it the numerator stays finite: Python's quotient is -0j,
# not 0.5-0.5j, a step of pi/4
_BIG, _TURNED = 1e308 - 1e308j, -1e308j


def test_track_graph_takes_a_step_whose_quotient_underflows_to_zero():
    z = _track_path_graph([_BIG, _TURNED])
    assert z[0] == cmath.sqrt(_BIG)
    assert abs(z[1] - cmath.sqrt(_BIG) * cmath.sqrt(0.5 - 0.5j)) <= 1e-15 * abs(z[1])


def test_track_sqrt_takes_a_step_whose_quotient_underflows_to_zero():
    # the spiral from _BIG, near _TURNED at t = 1/16, turning by pi/4
    # (ratio 0.5-0.5j) each grid step; its first step was bisected
    calls = []

    def f(t):
        calls.append(len(t))
        w = np.exp(16 * t * cmath.log(0.5 - 0.5j))
        return 1e308 * (w.real + w.imag) + 1e308j * (w.imag - w.real)

    z = _alone(f, cmath.sqrt(_BIG))
    assert calls == [17]
    assert abs(z - cmath.sqrt(_BIG) / 16) <= 1e-14 * abs(z)


def _track_path_graph(vals):
    """track_graph on the path 0 - 1 - ... - m-1, rooted at vertex 0."""
    edges = [(i, i + 1) for i in range(len(vals) - 1)]
    return track_graph(vals, Walk.of(len(vals), edges, [0]),
                       [f"s{i}" for i in range(len(vals))], 1,
                       jump=lambda v: "(edge too long)", cycle=lambda v: "around a cycle")


def test_track_graph_path_continuity():
    vals = [cmath.exp(0.4j * k) for k in range(8)]
    out = _track_path_graph(vals)
    for z, v in zip(out, vals):
        assert abs(z * z - v) < 1e-12
    # consecutive roots stay close (no sheet jumps)
    for a, b in zip(out, out[1:]):
        assert abs(b - a) < 1.0


def test_track_graph_path_coarse_edge_rejected():
    with pytest.raises(TrackingError):
        _track_path_graph([1.0, -1.0])


def _bits(z: complex) -> tuple:
    """The parts of z, each with the sign of a zero; every NaN alike."""
    return (repr(z.real), repr(z.imag))


# every float: signed zeros, subnormals, infinities and NaN
_FLOAT = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


@given(st.lists(st.tuples(_FLOAT, _FLOAT, _FLOAT, _FLOAT), min_size=1, max_size=8))
@example([(1.0, 2.0, 3.0, 0.0)])
@example([(float("inf"), float("nan"), -0.0, 5e-324)])
# numpy's complex *, / and abs round these differently
@example([(20.41, 0.3, -14.04, 8.2), (-25.56, -9.6, -7.73, -19.2), (-20.2, 1.94, 1.0, 1.0)])
def test_float_array_complex_ops_match_python(parts):
    # the kernel of every root computation: cmul, cdiv and cabs are
    # Python's *, / and abs bit for bit, a real (float) divisor included,
    # and _sqrt is cmath.sqrt on the finite nonzero values it is used on
    a, b = (np.array([complex(x, y) for x, y in pair]) for pair in
            (([p[0], p[1]] for p in parts), ([p[2], p[3]] for p in parts)))
    reals = np.array([p[2] for p in parts])
    with np.errstate(all="ignore"):
        prod, quot, by_real = cmul(a, b).tolist(), cdiv(a, b).tolist(), cdiv(a, reals)
        size, root = cabs(a).tolist(), _sqrt(a).tolist()
    for x, y, r, p, q, qr, m, s in zip(a.tolist(), b.tolist(), reals.tolist(), prod,
                                       quot, by_real.tolist(), size, root):
        assert _bits(p) == _bits(x * y)
        if y != 0:
            assert _bits(q) == _bits(x / y)
        if r != 0:
            assert _bits(qr) == _bits(x / r)
        try:
            assert repr(m) == repr(abs(x))
        except OverflowError:  # Python raises where hypot is inf
            assert m == math.inf
        if x != 0 and cmath.isfinite(x):
            assert _bits(s) == _bits(cmath.sqrt(x))


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
    z = _alone(f, 1.0, 0.0, t1)
    z_ref, evaluated = _scalar_track(_winding(w), 1.0, 0.0, t1)
    assert abs(z - z_ref) <= 1e-12
    assert abs(z * z - np.exp(1j * w * t1)) <= 1e-9
    # the same parameters, each evaluated once
    batched = np.concatenate(f.calls).tolist()
    assert len(batched) == len(set(batched))
    assert set(batched) == set(evaluated)


def test_track_sqrt_one_call_without_bisection():
    f = _Recorder(_winding(2.0 * math.pi))
    _alone(f, 1.0)
    assert [c.shape for c in f.calls] == [(17,)]
    assert np.array_equal(f.calls[0], np.arange(17) / 16)


def test_track_sqrt_one_call_per_midpoint():
    # 3.75 rad per grid step: each step bisects to 1.875 (still too far)
    # and 0.9375, so it needs three midpoints
    f = _Recorder(_winding(60.0))
    z = _alone(f, 1.0)
    assert abs(z * z - cmath.exp(60j)) < 1e-9
    assert f.calls[0].shape == (17,)
    assert [c.shape for c in f.calls[1:]] == [(1,)] * (16 * 3)


# ---------------------------------------------------------------------------
# the graph tracker against the two trackers it replaced
# ---------------------------------------------------------------------------

def _oracle_track_component(comp, fn):
    """The lift's former per-component tracker, verbatim."""
    tols = get_tolerances()
    dets = np.linalg.det(np.array([np.asarray(fn(p), dtype=complex)
                                   for p in comp.points])).tolist()
    z = {0: principal_sqrt(dets[0])}
    adj = {i: [] for i in range(len(comp.points))}
    for i, j in comp.edges:
        adj[i].append(j)
        adj[j].append(i)
    frontier = [0]
    while frontier:
        cur = frontier.pop(0)
        for nxt in adj[cur]:
            ratio = dets[nxt] / dets[cur]
            if abs(np.angle(ratio)) >= _MAX_ARG:
                raise TrackingError(
                    f"branch jump between {comp.points[cur].id} and "
                    f"{comp.points[nxt].id} (edge too long)"
                )
            val = z[cur] * principal_sqrt(ratio)
            if nxt in z:
                if abs(val - z[nxt]) > 1e3 * tols.rel * max(1.0, abs(val)):
                    raise TrackingError(
                        "inconsistent square root around a cycle in component"
                    )
            else:
                z[nxt] = val
                frontier.append(nxt)
    return {comp.points[i].id: z[i] for i in range(len(comp.points))}


def _oracle_chart_sqrt_values(nerve, chart, value_fn, flip=1):
    """The recipe's former chart tracker, verbatim, on the chart's sample
    graph read off the nerve's overlaps."""
    vals, edges = {}, set()
    for pair in sorted(nerve.overlaps):
        for comp in nerve.overlaps[pair] if chart in pair else ():
            for pt in comp.points:
                vals.setdefault(pt.id, complex(value_fn(pt)))
            edges.update(tuple(sorted((comp.points[i].id, comp.points[j].id)))
                         for i, j in comp.edges)
    adj = {pid: [] for pid in vals}
    for a, b in sorted(edges):
        adj[a].append(b)
        adj[b].append(a)
    z = {}
    tols = get_tolerances()
    for root in sorted(vals):
        if root in z:
            continue
        z[root] = flip * principal_sqrt(vals[root])
        frontier = [root]
        while frontier:
            cur = frontier.pop(0)
            for nxt in adj[cur]:
                ratio = vals[nxt] / vals[cur]
                if abs(np.angle(ratio)) >= _MAX_ARG:
                    raise TrackingError(
                        f"branch jump between {cur} and {nxt} on chart {chart}"
                    )
                val = z[cur] * principal_sqrt(ratio)
                if nxt in z:
                    if abs(val - z[nxt]) > check_bound(tols) * max(1.0, abs(val)):
                        raise TrackingError(
                            f"inconsistent square root on chart {chart}"
                        )
                else:
                    z[nxt] = val
                    frontier.append(nxt)
    return z


@st.composite
def _graph_nerves(draw):
    """A nerve whose chart "a" overlaps charts b0, b1, ... in one random
    connected component each, with shuffled point ids and edge order and
    nonzero values.  A component is a tree whose phase moves by up to 108
    degrees per edge (some edges jump) or a ring that winds around the
    origin at most once (some close inconsistently), plus random edges."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    labels = draw(st.permutations(range(sum(sizes))))
    base = draw(st.floats(-math.pi, math.pi))
    comps, vals = [], {}
    for m in sizes:
        ids, labels = [f"p{x:02d}" for x in labels[:m]], labels[m:]
        if m >= 3 and draw(st.booleans()):
            edges = [(i, i + 1) for i in range(m - 1)] + [(m - 1, 0)]
            w = draw(st.integers(0, 1))
            phase = [2 * math.pi * w * i / m for i in range(m)]
        else:
            edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, m)]
            phase = [0.0]
            for _, p in edges:
                phase.append(phase[p] + math.pi * draw(st.integers(-3, 3)) / 5)
        extra = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                              max_size=2))
        edges = draw(st.permutations(edges + [(i, j) for i, j in extra if i != j]))
        edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in edges]
        for pid, ph in zip(ids, phase):
            vals[pid] = draw(st.floats(0.5, 2.0)) * cmath.exp(1j * (base + ph))
        comps.append(OverlapComponent(tuple(SamplePoint(pid) for pid in ids),
                                      tuple(edges)))
    nerve = Nerve(("a",) + tuple(f"b{j}" for j in range(len(comps))),
                  {("a", f"b{j}"): (comp,) for j, comp in enumerate(comps)})
    return nerve, vals


def _outcome(fn):
    """The result of fn(), or the class and message of what it raised."""
    try:
        return fn()
    except TrackingError as exc:
        return type(exc), str(exc)


@given(_graph_nerves(), st.sampled_from([1, -1]))
def test_chart_tracking_matches_former_tracker(case, flip):
    # the roots go in sorted point-id order, a random order of the
    # vertices; == compares every root bit for bit up to the sign of zero
    nerve, vals = case
    ids = [pt.id for _, pt in nerve.sites]
    rows = nerve.charts["a"]
    got = _outcome(lambda: dict(zip(ids[rows.start:rows.stop], chart_sqrt_values(
        nerve, [vals[pid] for pid in ids], {"a": flip})[rows].tolist())))
    want = _outcome(lambda: _oracle_chart_sqrt_values(
        nerve, "a", lambda pt: vals[pt.id], flip))
    assert got == want


def _path_case(*values):
    """A case of _graph_nerves: one component, a path through the values."""
    ids = [f"p{i:02d}" for i in range(len(values))]
    comp = OverlapComponent(tuple(SamplePoint(pid) for pid in ids),
                            tuple((i, i + 1) for i in range(len(ids) - 1)))
    return Nerve(("a", "b0"), {("a", "b0"): (comp,)}), dict(zip(ids, values))


# the values of test_cli's subnormal mobius_ratio scenario: the angle of
# the step ratio underflows to a subnormal
@example(_path_case(0.75 + 1.668805393880405e-309j, 1.5 + 3.337610787760805e-309j))
@given(_graph_nerves())
def test_lift_tracking_matches_former_tracker(case):
    # without triple points every component keeps the sheet it was
    # tracked on, so the lifted z is the tracked root at every point
    nerve, vals = case
    fn = lambda pt: np.array([[vals[pt.id]]])  # noqa: E731
    gl = Cocycle.evaluate("Gl", 1, 0, nerve,
                          {pair: (per_point(fn),) for pair in nerve.overlaps})

    def lifted():
        ml = lift_double_cover(nerve, gl)
        return dict(zip([pt.id for pt in nerve.points], ml.roots.tolist()))

    def former():
        out = {}
        for pair in sorted(nerve.overlaps):
            out.update(_oracle_track_component(nerve.overlaps[pair][0], fn))
        return out

    assert _outcome(lifted) == _outcome(former)


@pytest.mark.parametrize("zero", [0, 1])
def test_track_graph_rejects_a_vanishing_value(zero):
    vals = [1.0, 1.0]
    vals[zero] = 0j
    with pytest.raises(TrackingError, match="value vanishes between s0 and s1"):
        _track_path_graph(vals)


@pytest.mark.parametrize("vals, name", [
    ([1.0, np.nan], "s1"),
    ([np.inf, 1.0], "s0"),
    ([complex(1.0, np.nan)], "s0"),  # a piece without a step
])
def test_track_graph_rejects_a_non_finite_value(vals, name):
    with pytest.raises(TrackingError, match=f"value at {name} is not finite"):
        _track_path_graph(vals)


@pytest.mark.parametrize("f, z0, message", [
    # this path used to step on to a NaN root
    (lambda t: np.where(t > 0.5, np.nan, 1.0), 1.0, "tracked value is not finite at t=0.5625"),
    (lambda t: np.full(t.shape, np.inf), 1.0, "tracked value is not finite at t=0"),
    (lambda t: np.ones(t.shape), np.nan, "anchor does not square"),
])
def test_track_sqrt_rejects_a_non_finite_value(f, z0, message):
    with pytest.raises(TrackingError, match=message):
        _alone(lambda t: f(t) + 0j, z0)


def test_lift_rejects_a_non_finite_determinant():
    # np.linalg.det of the finite 1.7e308+1e308j is nan+nanj
    nerve, vals = _path_case(1e308, 1.7e308 + 1e308j)
    gl = Cocycle.evaluate("Gl", 1, 0, nerve, {("a", "b0"): (per_point(
        lambda pt: np.array([[vals[pt.id]]])),)})
    with np.errstate(all="ignore"), pytest.raises(
            TrackingError, match="value at p01 is not finite"):
        lift_double_cover(nerve, gl)


@given(st.one_of(st.floats(-1e-9, 1e-9), st.integers(-8, 8).map(lambda k: k * 2.0 ** -52)),
       st.floats(0.5, 2.0), st.sampled_from([1, -1]))
@example(0.0, 1.0, 1)
def test_turns_is_the_exact_step_test(offset, size, side):
    # near the margin np.angle may be a few ulps off; _turns is exact
    ratios = np.array([size * cmath.exp(1j * side * (_MAX_ARG + offset)), 0j,
                       complex(np.inf, 0.0), complex(np.nan, 1.0), 1.0 + 0j])
    assert _turns(ratios).tolist() == [_turns_at(r) for r in ratios.tolist()]
    assert _turns(ratios)[1:].tolist() == [True, True, True, False]
