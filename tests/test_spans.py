"""The trace targets of the benchmark must exist.

``perfbench/spans.py`` names the engine functions that a traced run
wraps, by module and attribute; a renamed or deleted function breaks
``perfbench/run.py --trace 1``.  The file is parsed here, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
