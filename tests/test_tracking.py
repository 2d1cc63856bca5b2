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
from hfe.cech import Cocycle, Nerve, lift_double_cover
from hfe.config import check_bound, get_tolerances
from hfe.errors import TrackingError
from hfe.induction import chart_sqrt_values
from hfe.smallmat import det
from hfe.tracking import (
    _TAN_MAX_ARG,
    Walk,
    _sqrt,
    _turns,
    cabs,
    cdiv,
    cmul,
    track_graph,
    track_sqrt,
)

from helpers import MAX_ARG, component, nerve_doc, per_point, rescaled


def _alone(f, z0):
    """track_sqrt on the stack of the one path f, anchored at z0."""
    return track_sqrt(lambda t: f(t)[None], [z0])[0]


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
    z_mid = _alone(rescaled(f, 0.0, 0.4), 1.0)
    z_full = _alone(rescaled(f, 0.4, 1.0), z_mid)
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


# a step argument past MAX_ARG
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
@example([(1e308, 1e308, 1e308, -1e308), (5e-324, 1e-310, 1e-200, 1e-300)])
# numpy's complex *, / and abs round these differently
@example([(20.41, 0.3, -14.04, 8.2), (-25.56, -9.6, -7.73, -19.2), (-20.2, 1.94, 1.0, 1.0)])
def test_float_array_complex_ops_match_python(parts):
    # the kernel of every root computation: cmul, cdiv and cabs are
    # Python's *, / and abs bit for bit, a real (float) divisor included,
    # and _sqrt is cmath.sqrt on the finite nonzero values it is used on;
    # none of them warns, whatever the parts
    a, b = (np.array([complex(x, y) for x, y in pair]) for pair in
            (([p[0], p[1]] for p in parts), ([p[2], p[3]] for p in parts)))
    reals = np.array([p[2] for p in parts])
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

def _scalar_track(f, z0, max_depth=48, initial_steps=16):
    """Reference stepping: one evaluation per parameter, in stack order.

    Returns the tracked value and every parameter it evaluated.
    """
    evaluated = []

    def value(t):
        evaluated.append(t)
        return complex(f(np.array([t]))[0])

    ft0 = value(0.0)
    t, ft, z = 0.0, ft0, complex(z0)
    pending = [j / initial_steps for j in range(initial_steps, 0, -1)]
    depth = 0
    while pending:
        tn = pending[-1]
        fn = value(tn)
        ratio = fn / ft
        if abs(cmath.phase(ratio)) >= MAX_ARG:
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
    f = _Recorder(rescaled(_winding(w), 0.0, t1))
    z = _alone(f, 1.0)
    z_ref, evaluated = _scalar_track(f.f, 1.0)
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
    """The lift's former per-component tracker, verbatim but for the
    determinants, which the engine's kernel now takes, and for the
    component, which is a nerve document's."""
    tols = get_tolerances()
    ids = [pt["id"] for pt in comp["points"]]
    dets = det(np.array([np.asarray(fn(pid), dtype=complex) for pid in ids])).tolist()
    z = {0: principal_sqrt(dets[0])}
    adj = {i: [] for i in range(len(ids))}
    for i, j in comp["edges"]:
        adj[i].append(j)
        adj[j].append(i)
    frontier = [0]
    while frontier:
        cur = frontier.pop(0)
        for nxt in adj[cur]:
            ratio = dets[nxt] / dets[cur]
            if abs(np.angle(ratio)) >= MAX_ARG:
                raise TrackingError(
                    f"branch jump between {ids[cur]} and {ids[nxt]} (edge too long)"
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
    return {ids[i]: z[i] for i in range(len(ids))}


def _oracle_chart_sqrt_values(doc, chart, value_fn, flip=1):
    """The recipe's former chart tracker, verbatim, on the chart's sample
    graph read off the overlaps of the nerve document."""
    vals, edges = {}, set()
    for ov in sorted(doc["overlaps"], key=lambda ov: ov["pair"]):
        for comp in ov["components"] if chart in ov["pair"] else ():
            ids = [pt["id"] for pt in comp["points"]]
            for pid in ids:
                vals.setdefault(pid, complex(value_fn(pid)))
            edges.update(tuple(sorted((ids[i], ids[j]))) for i, j in comp["edges"])
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
                if abs(np.angle(ratio)) >= MAX_ARG:
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
    """The document of a nerve whose chart "a" overlaps charts b0, b1, ...
    in one random connected component each, with shuffled point ids and
    edge order, and nonzero values.  A component is a tree whose phase
    moves by up to 108 degrees per edge (some edges jump) or a ring that
    winds around the origin at most once (some close inconsistently),
    plus random edges."""
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
        comps.append(component(ids, edges))
    doc = nerve_doc(["a"] + [f"b{j}" for j in range(len(comps))],
                    {("a", f"b{j}"): [comp] for j, comp in enumerate(comps)})
    return doc, vals


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
    doc, vals = case
    nerve = Nerve(doc)
    ids = [pid for _, pid in nerve.sites]
    rows = nerve.charts["a"]
    got = _outcome(lambda: dict(zip(ids[rows.start:rows.stop], chart_sqrt_values(
        nerve, [vals[pid] for pid in ids], {"a": flip})[rows].tolist())))
    want = _outcome(lambda: _oracle_chart_sqrt_values(doc, "a", vals.get, flip))
    assert got == want


def _path_case(*values):
    """A case of _graph_nerves: one component, a path through the values."""
    ids = [f"p{i:02d}" for i in range(len(values))]
    comp = component(ids, [(i, i + 1) for i in range(len(ids) - 1)])
    return nerve_doc(["a", "b0"], {("a", "b0"): [comp]}), dict(zip(ids, values))


# the values of test_cli's subnormal mobius_ratio scenario: the angle of
# the step ratio underflows to a subnormal
@example(_path_case(0.75 + 1.668805393880405e-309j, 1.5 + 3.337610787760805e-309j))
@given(_graph_nerves())
def test_lift_tracking_matches_former_tracker(case):
    # without triple points every component keeps the sheet it was
    # tracked on, so the lifted z is the tracked root at every point
    doc, vals = case
    nerve = Nerve(doc)
    fn = lambda pid: np.array([[vals[pid]]])  # noqa: E731
    gl = Cocycle.evaluate("Gl", 1, 0, nerve,
                          [per_point(lambda pid, _: fn(pid))] * len(nerve.keys))

    def lifted():
        ml = lift_double_cover(nerve, gl)
        return dict(zip(nerve.ids, ml.roots.tolist()))

    def former():
        out = {}
        for ov in sorted(doc["overlaps"], key=lambda ov: ov["pair"]):
            out.update(_oracle_track_component(ov["components"][0], fn))
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
    # a d - b c of the finite (1e200 1e200; 1e200 2e200) is inf - inf,
    # a NaN that the kernel returns without a warning
    doc, vals = _path_case(np.eye(2), np.array([[1e200, 1e200], [1e200, 2e200]]))
    nerve = Nerve(doc)
    gl = Cocycle.evaluate("Gl", 2, 0, nerve, [per_point(lambda pid, _: vals[pid] + 0j)])
    with pytest.raises(TrackingError, match="value at p01 is not finite"):
        lift_double_cover(nerve, gl)


def _turns_in_python(r: complex) -> bool:
    """The step test of hfe.tracking in Python's float arithmetic."""
    return not (0.0 < r.real < math.inf and abs(r.imag) < _TAN_MAX_ARG * r.real)


def test_the_step_margin_is_the_tangent_of_its_angle():
    assert _TAN_MAX_ARG == math.tan(MAX_ARG)
    assert _TAN_MAX_ARG.hex() == "0x1.3e4f438b2ce6cp+9"


@given(st.one_of(st.floats(-1e-9, 1e-9), st.integers(-8, 8).map(lambda k: k * 2.0 ** -52)),
       st.floats(0.5, 2.0), st.sampled_from([1, -1]))
@example(0.0, 1.0, 1)
def test_turns_is_the_exact_step_test(offset, size, side):
    # the same verdict for an array and for each of its entries, that of
    # the test in Python floats; a ratio whose argument is more than 8
    # ulps from the margin turns if and only if the argument reaches it
    ratios = np.array([size * cmath.exp(1j * side * (MAX_ARG + offset)), 0j, -1.0, 1j,
                       complex(np.inf, 0.0), complex(np.nan, 1.0), complex(1e308, -np.inf),
                       complex(1e308, 1e308), 1.0 + 0j])
    turns = _turns(ratios).tolist()
    assert turns == [bool(_turns(r)) for r in ratios] == list(map(_turns_in_python, ratios.tolist()))
    assert turns[1:] == [True] * 6 + [False, False]
    if abs(offset) >= 2.0 ** -49:
        assert turns[0] == (offset > 0)


# ---------------------------------------------------------------------------
# the trackers' bits do not depend on numpy's SIMD dispatch
# ---------------------------------------------------------------------------

def _parts(re, im) -> np.ndarray:
    """The complex array of two float arrays of parts, with no complex *."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def _power(s, m: int):
    """The parts of (1 + i s)^m, by real products only: its argument is
    m atan(s), a winding path for s linear in t."""
    x, y = np.ones_like(s), np.zeros_like(s)
    for _ in range(m):
        x, y = x - y * s, y + x * s
    return x, y


def dispatch_probe() -> str:
    """The bits of _turns, track_graph and track_sqrt on inputs built from
    parts with real arithmetic only, as hex digits."""
    # ratios whose arguments are within 4 ulps of the margin, in quarter
    # ulps, where np.angle's verdicts differ between dispatch levels, and
    # within 4 ulps of S in their slope Im / Re
    re = (1.0 + np.arange(2000)) / 7.0
    ulp = np.spacing(MAX_ARG) * (1.0 + _TAN_MAX_ARG * _TAN_MAX_ARG)
    edge = _TAN_MAX_ARG * re
    ratios = _parts(np.tile(re, 41), np.concatenate(
        [re * (_TAN_MAX_ARG + k * ulp) for k in np.arange(-16, 17) / 4]
        + [edge + k * np.spacing(edge) for k in (-4, -3, -2, -1, 1, 2, 3, 4)]))
    turns = _turns(np.concatenate([ratios, -ratios.conj()]))
    # a path around the circle through the rational points
    # ((1 - u^2), 2u) / (1 + u^2), scaled by radii, with a cycle
    u = np.arange(-40, 41) / 16.0
    radius = 1.0 + np.arange(len(u)) / 50.0
    vals = _parts(radius * (1.0 - u * u) / (1.0 + u * u), radius * 2.0 * u / (1.0 + u * u))
    edges = [(i, i + 1) for i in range(len(u) - 1)] + [(0, 2)]
    graph = track_graph(vals, Walk.of(len(u), edges, [0]), [str(i) for i in range(len(u))],
                        1, jump=lambda v: "", cycle=lambda v: "")
    slopes = np.arange(1, 7) / 2.0
    powers = np.array([3, 9, 20, 1, 14, 6])

    def f(t):
        return np.stack([_parts(*_power(s * t, m)) for s, m in zip(slopes, powers)])

    roots = track_sqrt(f, np.ones(len(slopes)))
    return "".join(a.tobytes().hex() for a in (turns, graph, roots))


def test_the_trackers_do_not_depend_on_simd_dispatch():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    above = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not above:
        pytest.skip("numpy dispatches nothing above its baseline on this CPU")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(above))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hfe.__file__).parents[1]), str(Path(__file__).parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = "from test_tracking import dispatch_probe\nprint(dispatch_probe())"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == dispatch_probe() + "\n"
