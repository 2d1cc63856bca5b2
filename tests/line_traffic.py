"""The statements of ``src/hfe`` that no test and no digest input reaches.

    PYTHONPATH=src python tests/line_traffic.py

runs, under one line tracer limited to the files of ``src/hfe``, first
the tier-1 suite in process (``pytest -q`` over ``tests/``), then the
185 in-process ``hfe verify`` runs of ``tests/report_digest.py``, whose
count and digest line it prints.  It then prints, module by module,
each statement that neither run reaches, by its first line number and
first source line, and their total.  A compound statement counts by its
header (``def``, ``if``, ``for``, ``with``, ...), so an unreached branch
lists each statement of its body.  It takes about a minute on 2 vCPUs,
and exits with pytest's code when the suite fails.  The file name has no
``test_`` prefix, so pytest does not collect it.

Code that the two runs do not reach is either dead or a guard that only
a fault of the engine or of its environment can trip.  These kinds may
stay on the list:

- theorem and construction checks, which raise only if the mathematics
  or its implementation is wrong: the falsification, property and
  construction raises of ``induction`` (the recipe cocycle's
  validation, the invariance and property checks of the square-root
  pairing data, the recipe pair data's consistency and
  ``cross_check``'s falsifications), and the unexpected-glue branch of
  ``delta_tilde.inequivalent-fails``;
- ``VerificationReport.add``'s duplicate-id check and ``_producers``'
  declaration check, which guard the stage table of ``hfe.pipelines``;
- the tracker's vanishing-value guard;
- ``emit_report``'s path for Python before 3.10.7;
- ``_jsonable``'s fallbacks;
- ``Tolerances.__eq__``'s ``NotImplemented`` and ``Tolerances.__repr__``;
- ``cli`` lines that only the subprocess tests run (``console`` and the
  process-level paths), which this in-process tracer cannot see.

Anything else on the list is a check that repeats one made upstream, or
code that nothing uses.
"""

import ast
import importlib.util
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hfe"

# lines hit, by the co_filename of the code that ran them
_hits: dict[str, set[int]] = defaultdict(set)
# co_filename -> whether it is a module of the package
_in_package: dict[str, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    keep = _in_package.get(name)
    if keep is None:
        keep = _in_package[name] = Path(name).resolve().parent == PACKAGE
    return _local if keep else None


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that have bytecode in a code object or in one nested
    in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not lines of a nested
    statement: a compound statement's header, decorators included."""
    start = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if body and isinstance(body[0], ast.stmt):
        return range(start, body[0].lineno)
    return range(start, node.end_lineno + 1)


def unreached(path: Path, hit: set[int]) -> list[tuple[int, str]]:
    """The statements of a module with executable lines none of which
    is in hit: their first line numbers and first source lines."""
    source = path.read_text(encoding="utf-8")
    executable = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            own = set(_own_lines(node)) & executable
            if own and not own & hit:
                out.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(out)


def _run_digest() -> tuple[int, str]:
    """tests/report_digest.py's digest, imported by path."""
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "tests" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.digest()


def main() -> int:
    import pytest

    threading.settrace(_global)
    sys.settrace(_global)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors", str(ROOT / "tests")])
        count, hexdigest = _run_digest()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(count, hexdigest)
    hits: dict[Path, set[int]] = defaultdict(set)
    for name, lines in _hits.items():
        hits[Path(name).resolve()] |= lines
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unreached(path, hits[path])
        total += len(missed)
        if missed:
            print(f"\nhfe/{path.name}: {len(missed)}")
            for line, text in missed:
                print(f"  {line:4d}  {text}")
    print(f"\n{total} statements unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
