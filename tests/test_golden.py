"""Golden reports: the JSON report of every corpus scenario at seed 0,
minus its wall time, must stay byte-identical to the file recorded in
``tests/golden/<scenario>.json``.  So must the reports of the scenario
documents in ``tests/golden/scenarios/``: seeded 6-chart rings with 8
sample points per overlap (n=2, k=1), the dense workload of the
benchmark, whose per-point stages dominate their run time.

The report of every corpus scenario run with ``--pipeline <stage>``, for
each stage it lists, must hold the records of the full report that the
stages which ran made, in order, and its status: no stage's records
depend on which other stages ran.
``tests/golden/stress/<scenario>.<key>=<value>.json`` pins which stage
records each error and skip: it holds the report of
abstract_k1_nonorientable under one tolerance far from its default,
where stages fail with evaluation errors.
``tests/golden/mutants/abstract_k1_nonorientable.<mutant>.json`` holds
the report of that scenario with a fault patched into the pair sections
of every chart, which ``delta_D`` must report as its error, or with a
fault patched into the first section family on chart 1
(``sections.first.1.<fault>``), which the recipe stage and
``cross_check`` must report as the same error.

``REPORT_DIGEST`` pins the line that ``tests/report_digest.py`` prints
for its 185 reports.

A refactor that changes no verdict, residual or detail keeps these files
and the digest as they are.  A change that means to alter a report
updates the digest and re-records the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which check ids changed and why.  With one
or more ``--allow CHECK:FIELD`` (for example
``--allow cocycle.mp:max_residual``) the recorder writes the files only
if every difference from the recorded ones lies in an allowed field of
a check record with an allowed id; otherwise it writes nothing, prints
the first other difference and exits 1.  FIELD may be ``details.KEY``
(for example ``--allow delta_D.glue:details.square_identity``): one key
of the record's details may then move while the rest stays pinned.
"""

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import pytest
import report_digest

from hfe.pipelines import PIPELINE_ORDER, _with_producers, run_scenario
from hfe.report import emit_report
from hfe.scenario import builtin_scenario_names, builtin_scenario_path

GOLDEN_DIR = Path(__file__).parent / "golden"
REPORT_DIGEST = (185, "4dd31e06ffd8a7db80f4c8523f5f85c6cb262b89c0394db961af2159394b48e7")
DOCUMENTS = sorted(p.stem for p in (GOLDEN_DIR / "scenarios").glob("*.json"))
# every corpus scenario with each stage it declares
DECLARED = [(name, stage) for name in builtin_scenario_names()
            for stage in json.loads(builtin_scenario_path(name).read_text())["pipelines"]]
STRESS = [("abstract_k1_nonorientable", key, value) for key, value in (
    ("singular", 0.9), ("singular", 1.5), ("rel", 1e-17), ("abs", 1e-20),
    ("track", 0.99))]
# Pair-section faults: member -> the meta_pair_blocks parameters patched
# into the pair section of every chart of abstract_k1_nonorientable.
MUTANTS = {
    "first.Wr=1.5": {"first": {"Wr": [[1.5]]}},
    "second.Cr=0": {"second": {"Cr": [[0]]}},
    "first.Wr=1.5,Cr=0": {"first": {"Wr": [[1.5]], "Cr": [[0]]}},
}
# First-family faults: mutant -> the frame_blocks parameters patched into
# the first section family on chart 1 of abstract_k1_nonorientable.
FAMILY_MUTANTS = {
    "sections.first.1.Wr=0.5": {"Wr": [[0.5]]},  # inconsistent with the cocycle
    "sections.first.1.Wr=1.5": {"Wr": [[1.5]]},  # not positive
    "sections.first.1.Cr=0": {"Cr": [[0]]},  # U - iV singular
}


def golden_text(report) -> str:
    """The JSON report without its wall time, as stored in a golden file."""
    doc = json.loads(emit_report(report, "json"))
    del doc["wall_time"]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def document_report(name: str):
    return run_scenario(GOLDEN_DIR / "scenarios" / f"{name}.json")


def stress_report(name: str, key: str, value: float):
    return run_scenario(builtin_scenario_path(name), tolerances={key: value})


def mutant_report(mutant: str):
    path = builtin_scenario_path("abstract_k1_nonorientable")
    doc = json.loads(path.read_text())
    for spec in doc["pair_sections"].values():
        for member, params in MUTANTS[mutant].items():
            spec["params"][member].update(params)
    return run_scenario(doc)


def family_mutant_report(mutant: str):
    doc = json.loads(builtin_scenario_path("abstract_k1_nonorientable").read_text())
    doc["sections"]["first"]["1"]["params"].update(FAMILY_MUTANTS[mutant])
    return run_scenario(doc)


def _golden_files():
    """Every golden file's path below GOLDEN_DIR with a function making
    its report."""
    out = {f"{name}.json": lambda name=name: run_scenario(builtin_scenario_path(name))
           for name in builtin_scenario_names()}
    out.update((f"{name}.json", lambda name=name: document_report(name))
               for name in DOCUMENTS)
    out.update((f"stress/{name}.{key}={value}.json",
                lambda name=name, key=key, value=value: stress_report(name, key, value))
               for name, key, value in STRESS)
    out.update((f"mutants/abstract_k1_nonorientable.{mutant}.json",
                lambda mutant=mutant: mutant_report(mutant))
               for mutant in MUTANTS)
    out.update((f"mutants/abstract_k1_nonorientable.{mutant}.json",
                lambda mutant=mutant: family_mutant_report(mutant))
               for mutant in FAMILY_MUTANTS)
    return out


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


def _unallowed_difference(got: dict, want: dict, allowed: set) -> Optional[str]:
    """The first difference between two reports outside the allowed
    (check id, field) pairs of their check records, or None.  A field
    details.KEY allows one key of a check's details; details allows
    them all."""
    gids = [c["id"] for c in got["checks"]]
    wids = [c["id"] for c in want["checks"]]
    if gids != wids:
        return f"check lists differ: {gids} vs {wids}"
    for g, w in zip(got["checks"], want["checks"]):
        keys = _differing_keys(g, w)
        if "details" in keys and isinstance(g.get("details"), dict) \
                and isinstance(w.get("details"), dict):
            keys.remove("details")
            keys += [f"details.{k}" for k in _differing_keys(g["details"], w["details"])]
        keys = [k for k in keys if (w["id"], k) not in allowed
                and not (k.startswith("details.") and (w["id"], "details") in allowed)]
        if keys:
            return f"check {w['id']!r} differs in {keys}"
    keys = [k for k in _differing_keys(got, want) if k != "checks"]
    return f"top-level fields differ: {keys}" if keys else None


def _compare(name: str, report) -> None:
    want = (GOLDEN_DIR / name).read_text()
    got = golden_text(report)
    if got != want:
        pytest.fail(f"{name}: {_first_difference(json.loads(got), json.loads(want))}")


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_corpus_report_matches_golden(name, corpus_reports):
    _compare(f"{name}.json", corpus_reports[name])


@pytest.mark.parametrize("name", DOCUMENTS)
def test_document_report_matches_golden(name):
    _compare(f"{name}.json", document_report(name))


def _stage_of(check_id: str) -> str:
    """The stage that makes a record: the prefix of its id, or validate
    for the nerve, cocycle and pair-data records."""
    prefix = check_id.split(".")[0]
    return prefix if prefix in PIPELINE_ORDER else "validate"


@pytest.mark.parametrize("name,stage", DECLARED,
                         ids=[f"{n}.{s}" for n, s in DECLARED])
def test_selection_report_matches_golden(name, stage, corpus_reports):
    # against the full report, which the corpus golden pins, run in the
    # same process, so that the test holds at any SIMD dispatch level
    want = json.loads(golden_text(corpus_reports[name]))
    ran = _with_producers([stage])
    got = json.loads(golden_text(run_scenario(builtin_scenario_path(name),
                                              pipelines=[stage])))
    assert got["checks"], stage
    assert got["checks"] == [c for c in want["checks"] if _stage_of(c["id"]) in ran]
    assert got["status"] == want["status"]


@pytest.mark.parametrize("name,key,value", STRESS,
                         ids=[f"{n}.{k}={v}" for n, k, v in STRESS])
def test_stress_report_matches_golden(name, key, value):
    _compare(f"stress/{name}.{key}={value}.json", stress_report(name, key, value))


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_report_matches_golden(mutant):
    _compare(f"mutants/abstract_k1_nonorientable.{mutant}.json",
             mutant_report(mutant))


def test_report_digest_matches_the_pinned_one():
    assert report_digest.digest() == REPORT_DIGEST


@pytest.mark.parametrize("mutant", FAMILY_MUTANTS)
def test_family_mutant_report_matches_golden(mutant):
    report = family_mutant_report(mutant)
    _compare(f"mutants/abstract_k1_nonorientable.{mutant}.json", report)
    errors = {c.check_id: c.failures for c in report.checks
              if c.check_id.endswith(".error")}
    assert list(errors) == ["recipe.error", "cross_check.error"]
    assert errors["recipe.error"] == errors["cross_check.error"]


def test_guard_allows_only_the_listed_fields():
    want = {"checks": [{"id": "a", "pass": True, "max_residual": 0.0}], "seed": 0}
    got = {"checks": [{"id": "a", "pass": True, "max_residual": 1e-16}], "seed": 0}
    assert _unallowed_difference(got, want, {("a", "max_residual")}) is None
    assert _unallowed_difference(got, want, {("b", "max_residual")}) == (
        "check 'a' differs in ['max_residual']")
    got["checks"][0]["pass"] = False
    assert _unallowed_difference(got, want, {("a", "max_residual")}) == (
        "check 'a' differs in ['pass']")
    assert _unallowed_difference({**want, "seed": 1}, want, set()) == (
        "top-level fields differ: ['seed']")


def test_guard_allows_single_detail_keys():
    want = {"checks": [{"id": "a", "details": {"law": 0.0, "eps": 1}}]}
    got = {"checks": [{"id": "a", "details": {"law": 1e-16, "eps": 1}}]}
    assert _unallowed_difference(got, want, {("a", "details.law")}) is None
    assert _unallowed_difference(got, want, {("a", "details")}) is None
    assert _unallowed_difference(got, want, {("a", "details.eps")}) == (
        "check 'a' differs in ['details.law']")
    assert _unallowed_difference(got, want, {("b", "details.law")}) == (
        "check 'a' differs in ['details.law']")
    got["checks"][0]["details"]["eps"] = 0
    assert _unallowed_difference(got, want, {("a", "details.law")}) == (
        "check 'a' differs in ['details.eps']")
    del got["checks"][0]["details"]["eps"]
    assert _unallowed_difference(got, want, {("a", "details.law")}) == (
        "check 'a' differs in ['details.eps']")
    got["checks"][0]["details"] = None
    assert _unallowed_difference(got, want, {("a", "details.law")}) == (
        "check 'a' differs in ['details']")


def record(allowed: Optional[set]) -> int:
    """Write every golden file, or (with allowed pairs) none unless each
    differs from its recorded report only in allowed fields."""
    texts = {name: golden_text(make()) for name, make in _golden_files().items()}
    if allowed is not None:
        for name, text in texts.items():
            path = GOLDEN_DIR / name
            why = ("no recorded file" if not path.exists() else
                   _unallowed_difference(json.loads(text),
                                         json.loads(path.read_text()), allowed))
            if why:
                print(f"{name}: {why}; nothing recorded")
                return 1
    for name, text in texts.items():
        path = GOLDEN_DIR / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record the golden reports.")
    parser.add_argument("--allow", action="append", metavar="CHECK:FIELD",
                        help="record only if every difference lies in the field "
                             "FIELD (or details.KEY) of the check CHECK (repeatable)")
    args = parser.parse_args()
    if any(":" not in pair for pair in args.allow or ()):
        parser.error("--allow takes CHECK:FIELD")
    sys.exit(record(None if args.allow is None else
                    {tuple(pair.rsplit(":", 1)) for pair in args.allow}))
