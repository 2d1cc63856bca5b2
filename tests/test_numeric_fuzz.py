"""The numeric half of the command-line fuzz: one or two numeric generator
params of a corpus document are set to extreme values, and ``hfe
verify`` must end with one of its exit codes, print nothing to stderr
but its one ``error:`` line, and take under 3 s.  A numpy warning is an
error under the suite's warning filter, so a kernel that warns fails
here too."""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hfe.cli import main
from hfe.scenario import builtin_scenario_names, builtin_scenario_path

# huge, subnormal and signed-zero parts, a value past the float's
# integer range, and a complex scalar with a huge imaginary part
_EXTREMES = [1e308, -1e308, 1e-320, -0.0, 2 ** 70, [0, 1e308]]


def _numbers(node, path):
    """The paths of the numbers (not booleans) in a JSON value."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield path
    elif isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _numbers(value, path + (key,))


def _generator_params(node, path=()):
    """The paths of the numbers in the params of every generator spec,
    {"name": ..., "params": {...}}, of a document."""
    if isinstance(node, dict):
        if isinstance(node.get("name"), str) and isinstance(node.get("params"), dict):
            yield from _numbers(node["params"], path + ("params",))
        for key, value in node.items():
            if key != "params":
                yield from _generator_params(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _generator_params(value, path + (i,))


_CORPUS = {name: builtin_scenario_path(name).read_text() for name in builtin_scenario_names()}
_PARAMS = {name: list(_generator_params(json.loads(text))) for name, text in _CORPUS.items()}


@st.composite
def _extreme_docs(draw):
    """A corpus document with one or two of its numeric generator params
    set to extreme values."""
    name = draw(st.sampled_from(sorted(_PARAMS)))
    paths = draw(st.lists(st.sampled_from(_PARAMS[name]), min_size=1, max_size=2,
                          unique=True))
    doc = json.loads(_CORPUS[name])
    for path in paths:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.sampled_from(_EXTREMES))
    return doc


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_extreme_docs())
def test_extreme_generator_params_end_with_an_exit_code_and_no_stray_output(doc):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
        elapsed = time.perf_counter() - start
    assert code in {0, 1, 2, 3, 4}
    # exit 2 prints one error line, and every other code nothing
    lines = err.getvalue().splitlines(keepends=True)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert lines == []
    assert elapsed < 3.0
