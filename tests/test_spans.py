"""The trace targets of the benchmark must exist and run.

``perfbench/spans.py`` names the engine functions that a traced run
wraps, by module and attribute; a renamed or deleted function breaks
``perfbench/run.py --trace 1``, and a function the engine never calls
makes its per-layer metric read 0.  The file is parsed here, not
imported.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import hfe.cli as cli

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
DENSE_RING = ROOT / "tests" / "golden" / "scenarios" / "dense_ring_seed0.json"


def _targets() -> list[tuple[str, str]]:
    """The (module, attribute) of every hfe entry of TIMED and COUNTED."""
    out = []
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED")
                for t in node.targets):
            out += [(module, attr) for module, attr, _ in ast.literal_eval(node.value)
                    if module.split(".")[0] == "hfe"]
    return out


TARGETS = _targets()


def test_spans_list_hfe_targets():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("module,attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_trace_target_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def _counted(monkeypatch, module: str, attr: str, counts: dict) -> None:
    """Count the calls of module.attr wherever an hfe module refers to it,
    under the name module.attr without its package."""
    original = getattr(importlib.import_module(module), attr)
    key = f"{module.split('.', 1)[1]}.{attr}"
    counts[key] = 0

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    for name, home in list(sys.modules.items()):
        if name == "hfe" or name.startswith("hfe."):
            for local, value in list(vars(home).items()):
                if value is original:
                    monkeypatch.setattr(home, local, wrapper)


def test_per_point_kernels_are_counted_on_a_dense_ring(monkeypatch, capsys):
    # each of these targets once named a scalar wrapper that nothing
    # called, so its metric read 0; mp_mul still reads 0 (no dense ring
    # has an Mp cocycle with triple points) and tests/test_groups.py
    # covers it
    counts: dict[str, int] = {}
    for module, attr in TARGETS:
        _counted(monkeypatch, module, attr, counts)
    assert cli.main(["verify", str(DENSE_RING), "--report", "json"]) == 0
    capsys.readouterr()
    ran = ["groups.subgroup_classify", "frames.alpha_tilde",
           "frames.delta_L_tilde", "frames.validate_lagrangian"]
    assert {t: counts[t] > 0 for t in ran} == dict.fromkeys(ran, True)
