"""The malformed half of the command-line fuzz: each parameter of each
distinct generator spec of the corpus scenarios and the golden dense
rings is set to one malformed value of each class, or deleted, and
``hfe verify`` must exit 2 with one ``error:`` line on stderr, no
traceback and no warning (the suite's warning filter makes a warning an
error).  The cases that are well formed (_LEGAL) are left out.  The
cases are fixed, so the test draws nothing."""

import contextlib
import io
import json
from pathlib import Path

from hfe.cli import main
from hfe.scenario import builtin_scenario_names, builtin_scenario_path

_TEXTS = {name: builtin_scenario_path(name).read_text() for name in builtin_scenario_names()}
_TEXTS.update((path.stem, path.read_text()) for path in sorted(
    (Path(__file__).parent / "golden" / "scenarios").glob("dense_ring_*.json")))

# 1e400 is not a float: Python's json reads it as inf, so it is written
# into the document text in place of this string
_HUGE = "1e400 in the text"
_DELETE = "deleted"
# one value per class: a string, null, a boolean, an empty list, a
# matrix of the wrong shape, a ragged row, a non-numeric entry, "inf"
# and a number beyond the float range; then the parameter deleted
_MALFORMED = ["x", None, True, [], [[1.0, 0.0, 0.0]], [[1.0, 0.0], [1.0]], [["x"]],
              "inf", _HUGE, _DELETE]

# the cases that are well formed: a parameter with a default, deleted,
# and the point at infinity of a Moebius factor, which "inf" names and
# which a number beyond the float range reads as
_LEGAL = {(name, key, _DELETE) for name, key in (
    ("linear_scalar", "slope"), ("mp_const", "zeta"), ("mp_rotation", "sheet"),
    ("frame_blocks", "B"), ("frame_blocks", "Wr_slope"))}
_LEGAL |= {("mobius_ratio", key, value) for key in ("w_a", "w_b") for value in ("inf", _HUGE)}


def _spec_paths(node, path=()):
    """The paths of the generator specs, {"name": ..., "params": {...}},
    of a document."""
    if isinstance(node, dict):
        if isinstance(node.get("name"), str) and isinstance(node.get("params"), dict):
            yield path
        for key, value in node.items():
            if key != "params":
                yield from _spec_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _spec_paths(value, path + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _distinct_specs() -> dict:
    """The first (scenario, path) of each distinct spec."""
    first = {}
    for name, text in _TEXTS.items():
        doc = json.loads(text)
        for path in _spec_paths(doc):
            first.setdefault(json.dumps(_at(doc, path), sort_keys=True), (name, path))
    return first


def _verify(text: str, tmp_path: Path) -> tuple[int, list[str]]:
    path = tmp_path / "doc.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    return code, err.getvalue().splitlines(keepends=True)


def test_malformed_generator_params_exit_2_with_one_error_line(tmp_path):
    specs = _distinct_specs()
    assert len(specs) == 44
    failures, cases = [], 0
    for spec, (name, path) in specs.items():
        generator = json.loads(spec)["name"]
        for key in json.loads(spec)["params"]:
            for value in _MALFORMED:
                if isinstance(value, str) and (generator, key, value) in _LEGAL:
                    continue
                doc = json.loads(_TEXTS[name])
                params = _at(doc, path)["params"]
                if value == _DELETE:
                    del params[key]
                else:
                    params[key] = value
                code, lines = _verify(json.dumps(doc).replace(f'"{_HUGE}"', "1e400"),
                                      tmp_path)
                cases += 1
                if not (code == 2 and len(lines) == 1 and lines[0].startswith("error: ")):
                    failures.append((name, path, key, value, code, lines[:2]))
    # 100 parameters, 10 cases each, less the 66 well-formed ones
    assert cases == 934
    assert failures == []
