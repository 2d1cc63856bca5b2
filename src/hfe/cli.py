"""Command-line front end.

Subcommands: ``verify`` runs a scenario file's pipelines and prints a
report, ``list-scenarios`` lists the built-in corpus, ``schema`` prints
the scenario JSON schema.  Exit codes: 0 all checks pass, 1 check
failure, 2 parse/schema error, 3 a verified theorem was numerically
falsified, 141 (as for a process ended by SIGPIPE) standard output was
closed before the report was written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# The engine's largest matrix is 2n x 2n for small n, so BLAS threads do
# none of its work, yet their pool costs CPU time when numpy loads.  One
# thread per BLAS, set before any engine module imports numpy; a value
# set in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The objects the engine's imports make (modules, functions, numpy's
# tables) live as long as the process.  The collector pauses while they
# are made, and gc.freeze() then moves them to the permanent generation,
# which no later collection walks, the final one at exit included.  The
# collector's enabled state is then restored.
_gc_enabled = gc.isenabled()
gc.disable()

from .errors import EngineError, SchemaViolation, ValidationError  # noqa: E402
from .pipelines import run_scenario  # noqa: E402
from .report import emit_report  # noqa: E402
from .scenario import (  # noqa: E402
    SCENARIO_SCHEMA,
    builtin_scenario_names,
    builtin_scenario_path,
)

gc.freeze()
if _gc_enabled:
    gc.enable()

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_FALSIFICATION = 3
EXIT_BROKEN_PIPE = 141


def _parse_tolerances(items: list[str]) -> dict[str, float]:
    """The --tolerance overrides by key; the loader checks them as it
    checks a scenario's own tolerances."""
    out = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"tolerance override must be key=value, got {item!r}")
        key, _, text = item.partition("=")
        out[key] = float(text)
    return out


def _seed(text: str) -> int:
    """A --seed value: an integer in [0, 2**64), the seeds of the draw
    stream (hfe.sampling.Draws)."""
    try:
        seed = int(text)
        if 0 <= seed < 2 ** 64:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**64), got {text!r}")


def _resolve(target: str) -> str:
    """A scenario argument is a file path or a built-in scenario name."""
    if os.path.exists(target):
        return target
    if target in builtin_scenario_names():
        return str(builtin_scenario_path(target))
    return target  # let the loader produce the file error


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfe",
        description="Verification engine for metalinear frame-bundle "
        "constructions over finite nerves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a scenario's verification pipelines")
    v.add_argument("scenarios", nargs="+",
                   help="scenario file path or built-in scenario name")
    v.add_argument("--pipeline", default=None,
                   help="comma-separated pipeline filter; the stages "
                   "producing a selected stage's inputs are pulled in")
    v.add_argument("--tolerance", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="tolerance override (rel, abs, singular, track)")
    v.add_argument("--seed", type=_seed, default=0,
                   help="seed of the draw stream, an integer in [0, 2**64)")
    v.add_argument("--report", choices=("json", "text"), default="text")

    sub.add_parser("list-scenarios", help="list the built-in scenario corpus")
    sub.add_parser("schema", help="print the scenario JSON schema")
    return parser


def _verify(args) -> int:
    try:
        tolerances = _parse_tolerances(args.tolerance)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    pipelines = args.pipeline.split(",") if args.pipeline else None
    try:
        reports = [
            run_scenario(_resolve(t), pipelines=pipelines,
                         tolerances=tolerances, seed=args.seed)
            for t in args.scenarios
        ]
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except SchemaViolation as exc:  # a ValidationError, with its own line
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ValidationError, EngineError) as exc:
        print(f"error: invalid scenario data: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR

    for report in reports:
        print(emit_report(report, args.report))
    if any(r.falsified for r in reports):
        return EXIT_FALSIFICATION
    if not all(r.passed for r in reports):
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def _run(args) -> int:
    if args.command == "list-scenarios":
        for name in builtin_scenario_names():
            print(name)
        return EXIT_OK
    if args.command == "schema":
        print(json.dumps(SCENARIO_SCHEMA, indent=2, sort_keys=True))
        return EXIT_OK
    return _verify(args)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`hfe verify ... | head`); send the rest,
        # and the flush at exit, to devnull instead of a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
