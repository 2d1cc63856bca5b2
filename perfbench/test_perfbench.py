"""Tests of the benchmark's own code.  Run with

    python -m pytest perfbench -q

from the root of the checkout.
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import spans
import trace_runner
import workloads

sys.path.insert(0, str(run.SRC))

from hfe.scenario import SCENARIO_SCHEMA  # noqa: E402
import jsonschema  # noqa: E402


def _item(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return run.Item(str(path), workloads.ring_reference(doc),
                    workloads.overlap_points(doc))


@pytest.mark.parametrize("doc, counts", [
    (workloads.ring_enum_doc(3, n_charts=5), (32, 16, 2)),
    (workloads.dense_samples_doc(3, n_charts=3, points=3), (8, 4, 2)),
])
def test_small_rings_verify_with_analytic_counts(tmp_path, doc, counts):
    jsonschema.validate(doc, SCENARIO_SCHEMA)
    item = _item(tmp_path, doc)
    valid, cob, classes = counts
    assert item.reference["details"]["lift.class-count"] == {
        "valid_lifts": valid, "coboundaries": cob, "classes": classes}
    sample = run.Bench("ring_enum", 3, tmp_path).verify(item)
    assert sample.problems == []
    assert sample.wall > 0 and sample.cpu > 0 and sample.rss_mb > 0


def test_generated_documents_depend_only_on_the_seed():
    assert workloads.ring_enum_doc(7) == workloads.ring_enum_doc(7)
    assert workloads.dense_samples_doc(7) == workloads.dense_samples_doc(7)
    assert workloads.ring_enum_doc(7) != workloads.ring_enum_doc(8)
    for seed in range(4):
        jsonschema.validate(workloads.ring_enum_doc(seed), SCENARIO_SCHEMA)
        jsonschema.validate(workloads.dense_samples_doc(seed), SCENARIO_SCHEMA)


def _corrupt(report: dict, check_id: str, **changes) -> str:
    report = json.loads(json.dumps(report))
    for c in report["checks"]:
        if c["id"] == check_id:
            for key, value in changes.items():
                if key == "pass":
                    c["pass"] = value
                else:
                    c["details"][key] = value
    return json.dumps(report)


def test_corrupted_report_counts_as_failed(tmp_path):
    doc = workloads.ring_enum_doc(5, n_charts=4)
    item = _item(tmp_path, doc)
    bench = run.Bench("ring_enum", 5, tmp_path)
    assert bench.verify(item).problems == []
    good = json.loads((tmp_path / "stdout.json").read_text())
    assert run.judge(0, json.dumps(good), item.reference) == ([], [])

    flipped = _corrupt(good, "delta_tilde.glue", **{"pass": False})
    problems, _ = run.judge(0, flipped, item.reference)
    assert problems == ["check delta_tilde.glue failed"]

    recount = _corrupt(good, "lift.class-count", valid_lifts=15)
    problems, _ = run.judge(0, recount, item.reference)
    assert problems == ["lift.class-count.valid_lifts = 15, expected 16"]

    both = json.loads(flipped)
    both["checks"] = json.loads(recount)["checks"]
    both["checks"][0]["pass"] = False
    both["status"] = "fail"
    problems, _ = run.judge(0, json.dumps(both), item.reference)
    assert len(problems) == 3

    assert run.judge(1, json.dumps(good), item.reference)[0] == ["exit code 1"]
    assert run.judge(0, "{not json", item.reference)[0][0].startswith("unparsable")


def test_extra_check_ids_are_reported_not_failed():
    reference = {"checks": ["a"], "details": {}}
    report = {"status": "pass", "checks": [
        {"id": "a", "pass": True, "details": {}},
        {"id": "b", "pass": True, "details": {}}]}
    assert workloads.check_report(report, reference) == ([], ["b"])


def _span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "vid": "v"}


def test_self_times_on_a_hand_built_tree():
    tree = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "a.child", 2.0, 3.0),
        _span(3, 0, "b", 3.0, 6.0),   # overlaps a: the union counts once
        _span(4, 0, "c", 8.0, 12.0),  # clipped to the parent's interval
    ]
    st = spans.self_times(tree)
    assert st == {0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0}


def test_layer_metrics_per_verification():
    trace = {"spans": [
        _span(0, None, "cli.main", 0.0, 1.0),
        _span(1, 0, "scenario.load", 0.1, 0.4),
        _span(2, 1, "scenario.validate", 0.1, 0.3),
        _span(3, 0, "pipelines.lift", 0.5, 0.9),
        _span(4, 3, "cech.gf2_solve", 0.6, 0.7),
        _span(5, 3, "cech.gf2_solve", 0.7, 0.75),
    ], "counts": {"linalg.det": 10, "tracking.path_evals": 0}}
    m = spans.layer_metrics([trace, trace], points=5)
    assert set(m) == set(spans.LAYER_METRICS) - {"trace.overhead_frac"}
    assert m["scenario.load_s"] == pytest.approx(0.3)
    assert m["scenario.validate_s"] == pytest.approx(0.2)
    assert m["scenario.build_s"] == pytest.approx(0.1)
    assert m["pipelines.lift_s"] == pytest.approx(0.25)
    assert m["cech.gf2_solve_calls"] == 2
    assert m["cech.gf2_solve_s"] == pytest.approx(0.15)
    assert m["linalg.det_calls"] == 10
    assert m["linalg.det_per_point"] == 4.0
    assert m["tracking.evals_per_track"] == 0.0
    assert spans.self_time_total(trace) == pytest.approx(1.0)


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 31)]
    assert run.tail(values) == (20.0, 100.0 * 20 / 30)
    assert run.tail(values[:10]) == (10.0, 100.0)


def test_traced_verification_reaches_rebound_functions(tmp_path):
    doc = workloads.dense_samples_doc(2, n_charts=3, points=3)
    sample = run.Bench("dense_samples", 2, tmp_path).verify(
        _item(tmp_path, doc), vid="t0")
    assert sample.problems == []
    names = {s["name"] for s in sample.trace["spans"]}
    # track_sqrt is only called through names frames and groups import
    assert {"cli.import", "cli.main", "tracking.track_sqrt",
            "pipelines.recipe", "cech.gf2_solve", "report.emit"} <= names
    assert sample.trace["counts"]["linalg.det"] > 0
    assert sample.trace["counts"]["tracking.path_evals"] > 0
    assert spans.self_time_total(sample.trace) <= sample.wall


def test_missing_trace_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(trace_runner, "TIMED",
                        [("hfe.cech", "no_such_function", "cech.none")])
    with pytest.raises(AttributeError):
        trace_runner.install(trace_runner.Tracer("v"))
