"""One sha256 over 185 verification reports, to show that a refactor
leaves every report byte-identical.

    PYTHONPATH=src python tests/report_digest.py

runs ``hfe verify <target> --report json --seed <s>`` in process for,
in this order: each built-in scenario, sorted by name, at seeds 0-24;
then ``dense_samples_doc(0..39)`` and ``ring_enum_doc(0..19)`` of
``perfbench/workloads.py``, each at seed 0.  For each it feeds the
digest ``json.dumps([exit code, report minus wall_time],
sort_keys=True)``, the report None where nothing was printed, and it
prints the number of reports and the hex digest.  Run it at two commits
and compare the lines; ``tests/test_golden.py`` pins the line as
``REPORT_DIGEST``.  The file name has no ``test_`` prefix, so
pytest does not collect it.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from hfe.cli import main
from hfe.scenario import builtin_scenario_names

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    """perfbench/workloads.py, imported without writing its bytecode."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _verify(target: str, seed: int) -> list:
    """The exit code and the JSON report, minus its wall time, of one
    in-process ``hfe verify``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", target, "--report", "json", "--seed", str(seed)])
    text = out.getvalue()
    report = json.loads(text) if text.strip() else None
    if report is not None:
        report.pop("wall_time", None)
    return [code, report]


def digest() -> tuple[int, str]:
    """The number of reports and the hex sha256 over them."""
    workloads = _workloads()
    targets = [(name, seed) for name in builtin_scenario_names() for seed in range(25)]
    docs = ([workloads.dense_samples_doc(s) for s in range(40)]
            + [workloads.ring_enum_doc(s) for s in range(20)])
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, doc in enumerate(docs):
            path = Path(tmp) / f"doc{i:03d}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            targets.append((str(path), 0))
        for target, seed in targets:
            h.update(json.dumps(_verify(target, seed), sort_keys=True).encode())
    return len(targets), h.hexdigest()


if __name__ == "__main__":
    count, hexdigest = digest()
    print(count, hexdigest)
