"""Golden reports: the JSON report of every corpus scenario at seed 0,
minus its wall time, must stay byte-identical to the file recorded in
``tests/golden/<scenario>.json``.  So must the reports of the scenario
documents in ``tests/golden/scenarios/``: seeded 6-chart rings with 8
sample points per overlap (n=2, k=1), the dense workload of the
benchmark, whose per-point stages dominate their run time.

A refactor that changes no verdict, residual or detail keeps these files
as they are.  A change that means to alter a report re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which check ids changed and why.
"""

import json
from pathlib import Path

import pytest

from hfe.pipelines import run_scenario
from hfe.report import emit_report
from hfe.scenario import builtin_scenario_names

GOLDEN_DIR = Path(__file__).parent / "golden"
DOCUMENTS = sorted(p.stem for p in (GOLDEN_DIR / "scenarios").glob("*.json"))


def golden_text(report) -> str:
    """The JSON report without its wall time, as stored in a golden file."""
    doc = json.loads(emit_report(report, "json"))
    del doc["wall_time"]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def document_report(name: str):
    return run_scenario(GOLDEN_DIR / "scenarios" / f"{name}.json")


def _differing_keys(got: dict, want: dict) -> list[str]:
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def _first_difference(got: dict, want: dict) -> str:
    for g, w in zip(got["checks"], want["checks"]):
        if g != w:
            return f"first differing check {w['id']!r}: {_differing_keys(g, w)}"
    gids = [c["id"] for c in got["checks"]]
    wids = [c["id"] for c in want["checks"]]
    if gids != wids:
        return f"check lists differ in length: {gids} vs {wids}"
    return f"top-level fields differ: {_differing_keys(got, want)}"


def _compare(name: str, report) -> None:
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    got = golden_text(report)
    if got != want:
        pytest.fail(f"{name}: {_first_difference(json.loads(got), json.loads(want))}")


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_corpus_report_matches_golden(name, corpus_reports):
    _compare(name, corpus_reports[name])


@pytest.mark.parametrize("name", DOCUMENTS)
def test_document_report_matches_golden(name):
    _compare(name, document_report(name))


if __name__ == "__main__":
    from hfe.scenario import builtin_scenario_path

    GOLDEN_DIR.mkdir(exist_ok=True)
    reports = {name: run_scenario(builtin_scenario_path(name))
               for name in builtin_scenario_names()}
    reports.update((name, document_report(name)) for name in DOCUMENTS)
    for name, report in reports.items():
        (GOLDEN_DIR / f"{name}.json").write_text(golden_text(report))
        print(f"recorded {name}")
