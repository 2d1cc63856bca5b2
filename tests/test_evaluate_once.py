"""Every generator runs once per overlap component or chart, on the stack
of its sample points, when the scenario is loaded, and never during a
run.  Each section family is transported, and its plain recipe run,
once per run, and each pair stack is classified once, where its pair
data is made.  Rerunning a loaded scenario leaves its reports
unchanged."""

import itertools
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import hfe.groups as groups
import hfe.induction as induction
import hfe.scenario as scenario_mod
from hfe.pipelines import run_scenario
from hfe.report import report_to_dict
from hfe.scenario import builtin_scenario_path, load_scenario


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

    # every name that binds the function, so that no caller escapes the count
    bound = [name for name, module in list(sys.modules.items())
             if name.split(".")[0] == "hfe"
             and getattr(module, "subgroup_classify", None) is original]
    assert {"hfe.groups", "hfe.compatibility"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "subgroup_classify", counted)
    path = source if isinstance(source, Path) else builtin_scenario_path(source)
    assert run_scenario(path).passed
    assert len(calls) == len(_CLASSIFIED[source])
