"""Per-sample-point data is evaluated once per point and tolerance set,
and sharing it across stages and runs leaves the reports unchanged."""

import json
from collections import Counter

import numpy as np
import pytest

import hfe.scenario as scenario_mod
from hfe.cech import Cocycle, SamplePoint
from hfe.config import get_tolerances, tolerance_overrides
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


def test_cocycle_transition_evaluated_once_per_point_and_tolerance_set():
    calls = Counter()

    def fn(pt):
        calls[(pt, get_tolerances())] += 1
        return np.eye(1) * (1.0 + pt.params[0])

    c = Cocycle("Gl", 1, 0, {("a", "b"): (fn,)})
    pts = [SamplePoint(f"p{i}", (0.1 * i,)) for i in range(3)]
    for _ in range(3):
        for pt in pts:
            c.value("a", "b", 0, pt)
            c.value("b", "a", 0, pt)
    assert list(calls.values()) == [1, 1, 1]
    with tolerance_overrides(rel=1e-6):
        for _ in range(2):
            for pt in pts:
                c.value("a", "b", 0, pt)
    assert sum(calls.values()) == 6
    assert set(calls.values()) == {1}
    # a derived cocycle keeps the memo it is given and adds none
    d = Cocycle("Gl", 1, 0, c.transitions)
    assert d.transitions[("a", "b")][0] is c.transitions[("a", "b")][0]


def test_failed_evaluation_is_not_cached():
    calls = []

    def fn(pt):
        calls.append(pt)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return np.eye(1)

    c = Cocycle("Gl", 1, 0, {("a", "b"): (fn,)})
    pt = SamplePoint("p", ())
    with pytest.raises(ValueError):
        c.value("a", "b", 0, pt)
    assert np.array_equal(c.value("a", "b", 0, pt), np.eye(1))
    assert len(calls) == 2


@pytest.mark.parametrize("source", [
    str(builtin_scenario_path("abstract_k1_nonorientable")), _ring_doc(),
], ids=["abstract_k1_nonorientable", "ring_6x4"])
def test_rerunning_a_loaded_scenario_gives_the_same_report(source):
    sc = load_scenario(source)
    first = _report_json(sc, seed=3)
    assert json.loads(first)["status"] == "pass"
    assert _report_json(sc, seed=3) == first
    # a run under other tolerances in between leaves the cached values
    # of the first set untouched
    _report_json(sc, seed=3, tolerances={"rel": 1e-8})
    assert _report_json(sc, seed=3) == first
    assert _report_json(load_scenario(source), seed=3) == first


def test_generators_evaluated_at_most_once_per_point_and_tolerance_set(
        monkeypatch):
    calls = Counter()
    build = scenario_mod.build_generator

    def counting_build(spec, n, k):
        fn = build(spec, n, k)

        def counted(pt):
            calls[(id(counted), pt, get_tolerances())] += 1
            return fn(pt)
        return counted

    monkeypatch.setattr(scenario_mod, "build_generator", counting_build)
    sc = load_scenario(_ring_doc())
    report = run_scenario(sc)
    assert report.passed
    assert calls and max(calls.values()) == 1
    evaluated = len(calls)
    run_scenario(sc)
    assert len(calls) == evaluated and max(calls.values()) == 1
    run_scenario(sc, tolerances={"rel": 1e-8})
    assert len(calls) == 2 * evaluated and max(calls.values()) == 1
