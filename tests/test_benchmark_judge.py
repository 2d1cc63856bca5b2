"""The goldens pass the benchmark's judge.

``perfbench/workloads.py`` checks every report of a benchmark run
against a reference: the check ids it must contain, each passing, and
the verdict details of some of them.  A change that drops or renames a
referenced check would pass the golden tests after a re-record and
fail only the benchmark; here it fails tier-1.  The module is loaded
from its file without writing bytecode, so that the benchmark's
directory stays as checked out.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hfe.scenario import builtin_scenario_names

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
CORPUS = builtin_scenario_names()
RINGS = [0, 3]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _workloads()


def _golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def test_the_corpus_is_the_benchmark_corpus():
    assert sorted(workloads.CORPUS) == sorted(workloads.corpus_reference()) == CORPUS


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_golden_passes_the_judge(name):
    assert workloads.check_report(_golden(name), workloads.corpus_reference()[name])[0] == []


@pytest.mark.parametrize("seed", RINGS)
def test_dense_ring_golden_passes_the_judge(seed):
    doc = workloads.dense_samples_doc(seed)
    # the golden scenario is the benchmark's dense workload at this seed
    scenario = json.loads((GOLDEN_DIR / "scenarios" / f"dense_ring_seed{seed}.json").read_text())
    assert scenario == doc
    report = _golden(f"dense_ring_seed{seed}")
    assert workloads.check_report(report, workloads.ring_reference(doc))[0] == []
