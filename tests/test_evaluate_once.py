"""Every generator runs once per overlap component or chart, on the stack
of its sample points, when the scenario is loaded, and never during a
run.  Each section family is transported, and its plain recipe run,
once per run, and each pair stack is classified once, where its pair
data is made.  Each automorphy-factor stack takes its Cayley blocks, and
the determinants of its path's ends, once.  Each cocycle holds the
determinants of its values, and each section transport its det C, and
later tests read them.  Rerunning a loaded scenario leaves its reports
unchanged."""

import cmath
import itertools
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hfe.frames as frames
import hfe.groups as groups
import hfe.induction as induction
import hfe.scenario as scenario_mod
from hfe import ball, cech
from hfe.cech import Cocycle
from hfe.compatibility import PolarizationPairData, normalize_sections
from hfe.pipelines import run_scenario
from hfe.nerve import Nerve
from hfe.report import report_to_dict
from hfe.scenario import builtin_scenario_names, builtin_scenario_path, load_scenario
from hfe.smallmat import det

from helpers import component, nerve_doc, random_ball_point, random_mlkd_stack, random_sp


def _ring_doc(n_charts=6, points=4):
    """A ring of charts with a path of samples on every overlap, n=2, k=1,
    running the seven pipelines of the D-adapted construction; two
    components carry the twist diag(-1, 1, -1, 1)."""
    charts = [f"c{i}" for i in range(n_charts)]
    overlaps, mp, pair = [], [], []
    for j in range(n_charts):
        key = sorted((charts[j], charts[(j + 1) % n_charts]))
        overlaps.append({"pair": key, "components": [{
            "points": [{"id": f"o{j}p{i}", "params": [i / (points - 1)]}
                       for i in range(points)],
            "edges": [[i, i + 1] for i in range(points - 1)],
        }]})
        s = -1 if j in (0, 3) else 1
        g = [[s, 0, 0, 0], [0, 1, 0, 0], [0, 0, s, 0], [0, 0, 0, 1]]
        mp.append({"pair": key, "component": 0, "generator": {
            "name": "mp_const",
            "params": {"g": g, "zeta": [0, 1] if s < 0 else 1}}})
        gl = [[s, 0], [0, 1]]
        pair.append({"pair": key, "component": 0, "generator": {
            "name": "pair_const", "params": {"first": gl, "second": gl}}})
    first = {"A": [[1]], "B": [[[0.2, -0.1]]], "Wr": [[[0.1, 0.05]]],
             "Wr_slope": [[[0.05, 0.02]]], "Cr": [[[1.1, 0.2]]]}
    second = {"A": [[1]], "Wr": [[[-0.15, 0.03]]],
              "Wr_slope": [[[0.1, -0.02]]], "Cr": [[[0.9, -0.3]]]}
    meta_second = {"A": [[1]], "Wr": [[[0.2, -0.05]]], "Cr": [[[1.3, 0.1]]]}
    return {
        "name": f"ring_{n_charts}x{points}",
        "n": 2,
        "k": 1,
        "nerve": {"charts": charts, "overlaps": overlaps},
        "pair_cocycle": {"group": "Glkd", "transitions": pair},
        "delta_samples": {ch: {"name": "linear_scalar",
                               "params": {"const": 2.0, "slope": 0.3}}
                          for ch in charts},
        "mp_cocycle": {"group": "Mp", "transitions": mp},
        "d_adapted": True,
        "sections": {
            "first": {ch: {"name": "frame_blocks", "params": first}
                      for ch in charts},
            "second": {ch: {"name": "frame_blocks", "params": second}
                       for ch in charts},
        },
        "pair_sections": {ch: {"name": "meta_pair_blocks",
                               "params": {"first": first,
                                          "second": meta_second}}
                          for ch in charts},
        "pipelines": ["validate", "lift", "induce", "delta_tilde", "recipe",
                      "delta_D", "cross_check"],
        "expectations": {"lift_classes": 2},
    }


def _report_json(sc, **kwargs):
    doc = report_to_dict(run_scenario(sc, **kwargs))
    doc.pop("wall_time")
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("source", [
    str(builtin_scenario_path("abstract_k1_nonorientable")), _ring_doc(),
], ids=["abstract_k1_nonorientable", "ring_6x4"])
def test_rerunning_a_loaded_scenario_gives_the_same_report(source):
    sc = load_scenario(source)
    first = _report_json(sc, seed=3)
    assert json.loads(first)["status"] == "pass"
    assert _report_json(sc, seed=3) == first
    # a run under other tolerances in between changes no value the
    # scenario holds
    _report_json(sc, seed=3, tolerances={"rel": 1e-8})
    assert _report_json(sc, seed=3) == first
    assert _report_json(load_scenario(source), seed=3) == first


def test_generators_run_once_per_component_or_chart(monkeypatch):
    # counts are keyed by a serial number per built generator: the ids
    # of freed generators are reused
    calls = Counter()
    serials = itertools.count()
    build = scenario_mod.build_generator

    def counting_build(spec, n, k):
        fn = build(spec, n, k)
        key = (spec["name"], next(serials))

        def counted(params, ids):
            calls[key + (tuple(ids),)] += 1
            return fn(params, ids)
        return counted

    def stacks(name):
        return Counter(ids for (other, _, ids), count in calls.items()
                       for _ in range(count) if other == name)

    monkeypatch.setattr(scenario_mod, "build_generator", counting_build)
    sc = load_scenario(_ring_doc())
    nerve = sc.nerve
    components = Counter(tuple(nerve.ids[rows.start:rows.stop])
                         for rows in nerve.components.values())
    charts = Counter(tuple(pid for _, pid in nerve.sites[rows.start:rows.stop])
                     for rows in nerve.charts.values())
    # at load, every cocycle generator runs once, on the stack of the
    # points of its component, and every delta, section and pair-section
    # generator once, on the stack of the rows of its chart
    loaded = {"pair_const": components, "mp_const": components,
              "linear_scalar": charts, "frame_blocks": charts + charts,
              "meta_pair_blocks": charts}
    assert set(calls.values()) == {1}
    assert {name: stacks(name) for name in loaded} == loaded
    assert sum(calls.values()) == 36
    # a run evaluates no generator again
    for tolerances in (None, None, {"rel": 1e-8}):
        report = run_scenario(sc, tolerances=tolerances)
        assert report.passed
        assert set(calls.values()) == {1}
        assert {name: stacks(name) for name in loaded} == loaded
        assert sum(calls.values()) == 36


DENSE_RING = Path(__file__).parent / "golden" / "scenarios" / "dense_ring_seed0.json"


def _count_calls(monkeypatch, module, names):
    """Count the calls of module's functions names, through the module
    attributes that the engine calls them by."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_each_section_family_is_transported_once_per_run(monkeypatch):
    # the recipe stage transports the first family and runs its plain and
    # sheet-flipped recipes; cross_check reuses the first family's pair
    # and transports the second
    calls = _count_calls(monkeypatch, induction, ("transport", "recipe"))
    sc = load_scenario(DENSE_RING)
    for run in (1, 2):
        assert run_scenario(sc).passed
        assert calls == {"transport": 2 * run, "recipe": 3 * run}


def test_cross_check_alone_transports_both_families(monkeypatch):
    calls = _count_calls(monkeypatch, induction, ("transport", "recipe"))
    report = run_scenario(DENSE_RING, pipelines=["cross_check"])
    assert [c.check_id for c in report.checks][-1] == "cross_check.agreement"
    assert report.passed
    assert calls == {"transport": 2, "recipe": 2}


@pytest.mark.parametrize("tight", [{"singular": 0.9}, {"rel": 1e-17}],
                         ids=["singular=0.9", "rel=1e-17"])
def test_a_loaded_scenario_keeps_no_transport_between_runs(tight):
    # tight tolerances make the transport fail (singular) or the recipe
    # records fail (rel); no run of a loaded scenario may see the
    # transports of the run before it
    sc = load_scenario(DENSE_RING)
    settings = [tight, None, tight]
    runs = [_report_json(sc, tolerances=t) for t in settings]
    fresh = [_report_json(load_scenario(DENSE_RING), tolerances=t) for t in settings]
    assert runs == fresh
    assert [json.loads(r)["status"] for r in runs] == ["fail", "pass", "fail"]



# The subgroup_classify calls of one run: one per pair stack, where its
# PolarizationPairData is made.
_SCENARIO_PAIR = ("the scenario's pair (validate)", "its normalized pair (induce)")
_RECIPE_PAIR = ("the pair of the two recipe cocycles (cross_check)",
                "its normalized pair (cross_check)")
_CLASSIFIED = {
    DENSE_RING: _SCENARIO_PAIR + _RECIPE_PAIR,
    "abstract_k1_nonorientable": _SCENARIO_PAIR + _RECIPE_PAIR,
    "circle_mobius": _SCENARIO_PAIR,
    "torus_grid": _SCENARIO_PAIR,
    "trivial_r2": _SCENARIO_PAIR + ("the pair of self_compat.eps0",
                                    "the pair of self_compat.eps1"),
}


@pytest.mark.parametrize("source", list(_CLASSIFIED), ids=lambda s: Path(s).stem)
def test_each_pair_stack_is_classified_once(monkeypatch, source):
    calls = []
    original = groups.subgroup_classify

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    assert {"hfe.groups", "hfe.compatibility"} <= _rebind(monkeypatch, original, counted)
    path = source if isinstance(source, Path) else builtin_scenario_path(source)
    assert run_scenario(path).passed
    assert len(calls) == len(_CLASSIFIED[source])


def _rebind(monkeypatch, original, replacement) -> set[str]:
    """Bind replacement in place of original in every module of hfe that
    binds it, so that no caller escapes a count; the names of those
    modules."""
    bound = {name for name, module in list(sys.modules.items())
             if name.split(".")[0] == "hfe"
             and getattr(module, original.__name__, None) is original}
    for name in bound:
        monkeypatch.setattr(sys.modules[name], original.__name__, replacement)
    return bound


def _count_dets(monkeypatch, taken=None) -> Counter:
    """Count the smallmat.det calls ("calls") and the matrices they take
    ("matrices"), through every name that binds it; append each stack
    taken to the list taken, if given."""
    counts = Counter()

    def counted(A):
        counts["calls"] += 1
        counts["matrices"] += math.prod(np.shape(A)[:-2])
        if taken is not None:
            taken.append(A)
        return det(A)
    _rebind(monkeypatch, det, counted)
    return counts


def test_each_alpha_stack_takes_its_blocks_and_path_ends_once(monkeypatch, rng):
    # alpha_tilde on P points: one cayley_blocks call, and the
    # determinants of the path's two ends, of which track_sqrt takes
    # the one at s = 0
    P, n = 5, 2
    g = np.stack([random_sp(rng, n) for _ in range(P)])
    W = np.stack([random_ball_point(rng, n) for _ in range(P)])
    zeta = [cmath.sqrt(a) for a in np.linalg.det(ball.cayley_blocks(g)[0])]
    blocks = []
    cayley = ball.cayley_blocks
    _rebind(monkeypatch, cayley, lambda g: blocks.append(g) or cayley(g))
    counts = _count_dets(monkeypatch)
    frames.alpha_tilde(g, zeta, W)
    assert len(blocks) == 1
    assert counts["matrices"] <= 2 * P


def test_a_dense_ring_run_takes_its_determinants(monkeypatch):
    # the run's smallmat.det calls, loading included
    counts = _count_dets(monkeypatch)
    assert run_scenario(DENSE_RING).passed
    assert counts["calls"] == 73


def test_a_lift_takes_its_matrices_determinants_once(monkeypatch):
    # the Gl cocycle of the dense ring's first members takes their
    # determinants where it is made; its lift tracks and checks them,
    # and validate_cocycle reads them
    sc = load_scenario(DENSE_RING)
    mats = sc.pair_cocycle.mats[:, 0]
    counts = _count_dets(monkeypatch)
    base = Cocycle("Gl", sc.n, sc.k, mats)
    lifted = cech.lift_double_cover(sc.nerve, base)
    assert cech.validate_cocycle(sc.nerve, lifted)["ok"]
    assert counts == {"calls": 1, "matrices": len(mats)}
    assert lifted.dets is base.dets


def test_an_ml_cocycle_and_its_validation_take_one_determinant(monkeypatch):
    sc = load_scenario(DENSE_RING)
    lifted = cech.lift_double_cover(sc.nerve, cech.push_cocycle(sc.pair_cocycle))
    counts = _count_dets(monkeypatch)
    c = Cocycle.ml(lifted.n, lifted.k, lifted.mats, lifted.roots)
    assert cech.validate_cocycle(sc.nerve, c)["ok"]
    assert counts == {"calls": 1, "matrices": len(lifted.mats)}


def test_a_recipe_takes_no_determinant_of_the_section_frames(monkeypatch):
    # recipe reads t.dets, which phi_raw took in transport; it takes the
    # determinants of the moved sections (ml_mul) and of its transitions
    # (Cocycle.ml) only
    sc = load_scenario(DENSE_RING)
    bundle = induction.MetaplecticBundleData(sc.nerve, sc.mp_cocycle, sc.d_adapted)
    t = induction.transport(bundle, sc.sections_first)
    taken = []
    counts = _count_dets(monkeypatch, taken)
    for flips in (None, {next(iter(sc.nerve.charts)): -1}):
        induction.recipe(t, flips)
    assert counts["calls"] == 4
    assert not any(np.shares_memory(A, t.C) or np.shape(A) == t.C.shape for A in taken)


def _assert_held_dets(c: Cocycle) -> None:
    """c's held determinants are smallmat.det's of its matrices, or for
    Mp of the P blocks of ball.cayley_blocks, bit for bit."""
    mats = ball.cayley_blocks(c.mats)[0] if c.group == "Mp" else c.mats
    assert np.asarray(c.dets).tobytes() == det(mats).tobytes(), c.group


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_held_determinants_are_the_determinants_of_the_values(rng, n):
    # each maker that passes determinants on, on random values
    P, k = 6, n // 2
    M1, z1, M2, _ = random_mlkd_stack(rng, P, n, k)
    pair = Cocycle("Glkd", n, k, np.stack([M1, M2], axis=1))
    gl = cech.push_cocycle(pair)
    ml = Cocycle.ml(n, k, gl.mats, z1, gl.dets)
    nerve = Nerve(nerve_doc("ab", {("a", "b"): [component(
        [f"p{i}" for i in range(P)], [(i, i + 1) for i in range(P - 1)])]}))
    data = PolarizationPairData(nerve, pair, np.full(len(nerve.sites), 2.0 - 1j))
    g = np.stack([random_sp(rng, n) for _ in range(P)])
    for c in (pair, gl, ml, cech.flip_sheets(nerve, ml, np.ones(1, dtype=np.uint8)),
              normalize_sections(data).pair_cocycle,
              Cocycle("Mp", n, k, g, np.ones(P, dtype=complex))):
        _assert_held_dets(c)


@pytest.mark.parametrize("path", [builtin_scenario_path(name) for name in builtin_scenario_names()]
                         + sorted(DENSE_RING.parent.glob("dense_ring_*.json")),
                         ids=lambda path: path.stem)
def test_each_cocycle_of_a_run_holds_its_values_determinants(monkeypatch, path):
    made = []
    init = Cocycle.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)
    monkeypatch.setattr(Cocycle, "__init__", recorded)
    run_scenario(path)
    assert made
    for c in made:
        _assert_held_dets(c)
