"""Golden reports: the JSON report of every corpus scenario at seed 0,
minus its wall time, must stay byte-identical to the file recorded in
``tests/golden/<scenario>.json``.

A refactor that changes no verdict, residual or detail keeps these files
as they are.  A change that means to alter a report re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which check ids changed and why.
"""

import json
from pathlib import Path

import pytest

from hfe.report import emit_report
from hfe.scenario import builtin_scenario_names

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_text(report) -> str:
    """The JSON report without its wall time, as stored in a golden file."""
    doc = json.loads(emit_report(report, "json"))
    del doc["wall_time"]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_corpus_report_matches_golden(name, corpus_reports):
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    got = golden_text(corpus_reports[name])
    if got != want:
        pytest.fail(f"{name}: {_first_difference(json.loads(got), json.loads(want))}")


if __name__ == "__main__":
    from hfe.pipelines import run_scenario
    from hfe.scenario import builtin_scenario_path

    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in builtin_scenario_names():
        text = golden_text(run_scenario(builtin_scenario_path(scenario)))
        (GOLDEN_DIR / f"{scenario}.json").write_text(text)
        print(f"recorded {scenario}")
