"""Command-line front end.

Subcommands: ``verify`` runs the pipelines of each scenario, a file path
or a built-in scenario name, and prints a report per scenario,
``list-scenarios`` lists the built-in corpus, ``schema`` prints the
scenario JSON schema.  ``_read`` reads the command line by the fixed
grammar of ``_USAGE`` with no parser library, whose import, with the
gettext and locale it loads, would cost a verify about 2 ms of start-up:
``verify``'s options may come before, between or after the scenarios,
as ``--name value`` or ``--name=value``, and by a unique prefix of the
name; ``--`` ends them.  A malformed line prints the usage text and one
``error:`` line to stderr and raises ``SystemExit(2)``.

``console`` is the process's one exit path, the entry point of both the
``hfe`` console script and ``python -m hfe.cli``: it runs ``main``, which
returns its code for callers in process, flushes stdout then stderr,
and ends the process by ``os._exit``.  Interpreter finalization would
cost each verification a few milliseconds and raise its peak memory, by
touching pages the run never touched; it can be skipped because the
engine registers no atexit handler, starts no thread and writes to no
stream but stdout and stderr.  An exception that escapes ``main`` (an
engine fault) still ends the process the usual way, with its traceback.

Exit codes: 0 all checks pass, 1 check failure, 2 parse/schema error,
3 a verified theorem was numerically falsified, 4 no check ran (the
report holds no record, or only skipped ones), 141 (as for a process
ended by SIGPIPE) standard output was closed before the report was
written.  A batch reports every scenario it can read and exits with its
worst code, in the order 2, 3, 1, 4, 0.
"""

from __future__ import annotations

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
# which no later collection walks; console then ends the process with no
# collection at exit.  The collector's enabled state is then restored.
_gc_enabled = gc.isenabled()
gc.disable()

from .errors import EngineError, SchemaViolation, ValidationError  # noqa: E402
from .pipelines import PIPELINE_ORDER, run_scenario  # noqa: E402
from .report import emit_report  # noqa: E402
from .scenario import (  # noqa: E402
    builtin_scenario_names,
    builtin_scenario_path,
    run_tolerances,
)
from .schema import SCENARIO_SCHEMA  # noqa: E402

gc.freeze()
if _gc_enabled:
    gc.enable()

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_FALSIFICATION = 3
EXIT_UNCHECKED = 4
EXIT_BROKEN_PIPE = 141

# the exit code of each report status, and the codes of a batch from
# worst to best
_EXIT_OF = {"pass": EXIT_OK, "fail": EXIT_CHECK_FAILURE,
            "falsified": EXIT_FALSIFICATION, "unchecked": EXIT_UNCHECKED}
_WORST_FIRST = (EXIT_PARSE_ERROR, EXIT_FALSIFICATION, EXIT_CHECK_FAILURE,
                EXIT_UNCHECKED, EXIT_OK)


def _parse_tolerances(items: list[str]) -> dict[str, float]:
    """The --tolerance overrides by key, checked once, as a scenario's own
    tolerances are (scenario.run_tolerances)."""
    out = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"argument --tolerance: expected KEY=VALUE, got {item!r}")
        key, _, text = item.partition("=")
        try:
            out[key] = float(text)
        except ValueError:
            raise ValueError(f"argument --tolerance: {key} must be a number, "
                             f"got {text!r}") from None
    try:
        run_tolerances({}, out)
    except SchemaViolation as exc:  # at "tolerances", or at one of its keys
        raise ValueError(": ".join(["argument --tolerance", *exc.path[1:], exc.message])) from None
    except ValidationError as exc:
        raise ValueError(f"argument --tolerance: {exc}") from None
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
    _usage_error("hfe verify",
                 f"argument --seed: seed must be an integer in [0, 2**64), got {text!r}")


def _resolve(target: str) -> str:
    """A scenario argument is a file path or a built-in scenario name."""
    if os.path.exists(target):
        return target
    if target in builtin_scenario_names():
        return str(builtin_scenario_path(target))
    return target  # let the loader produce the file error


_USAGE = """\
usage: hfe verify SCENARIO... [--pipeline P[,P...]] [--tolerance KEY=VALUE]...
                  [--seed N] [--report json|jsonl|text]
       hfe list-scenarios
       hfe schema
       hfe -h | --help
"""

_HELP = _USAGE + """
Verification engine for metalinear frame-bundle constructions over finite
nerves.

commands:
  verify          run the verification pipelines of each SCENARIO, a
                  scenario file path or a built-in scenario name
  list-scenarios  list the built-in scenario corpus
  schema          print the scenario JSON schema

options of verify, before, between or after the scenarios, as --name value
or --name=value, or by a unique prefix of the name; -- ends them:
  --pipeline P[,P...]    run the named pipelines; the stages producing a
                         selected stage's inputs are pulled in
  --tolerance KEY=VALUE  tolerance override (rel, abs, singular, track);
                         may be given more than once
  --seed N               seed of the draw stream, an integer in [0, 2**64);
                         default 0
  --report FORMAT        json: one indented document per scenario;
                         jsonl: one compact document per line;
                         text (default): one line per check
"""

_VERIFY_OPTIONS = ("--pipeline", "--tolerance", "--seed", "--report", "--help")
_REPORTS = ("json", "jsonl", "text")


def _usage_error(prog: str, message: str):
    """Print the usage text and the message, and exit 2."""
    sys.stderr.write(f"{_USAGE}{prog}: error: {message}\n")
    raise SystemExit(EXIT_PARSE_ERROR)


def _names_option(arg: str) -> bool:
    """Whether arg names an option, rather than giving a scenario or a
    value: it starts with "-" and is neither "-" nor a negative number."""
    return arg[:1] == "-" and arg != "-" and not arg[1:2].isdigit()


def _option(prog: str, arg: str, names: tuple[str, ...]) -> str:
    """The option of names that arg names: "-h" for --help, or a unique
    prefix of a name."""
    if arg == "-h":
        arg = "--help"
    found = [n for n in names if len(arg) > 2 and n.startswith(arg)]
    if len(found) != 1:
        _usage_error(prog, f"unrecognized arguments: {arg}")
    return found[0]


def _read_verify(args: list[str]) -> dict | None:
    """verify's scenarios and settings; None for -h."""
    out = {"scenarios": [], "pipeline": None, "tolerance": [], "seed": 0,
           "report": "text"}
    rest = iter(args)
    for arg in rest:
        if arg == "--":
            out["scenarios"].extend(rest)
        elif not _names_option(arg):
            out["scenarios"].append(arg)
        else:
            name, eq, value = arg.partition("=")
            option = _option("hfe verify", name, _VERIFY_OPTIONS)
            if option == "--help":
                if eq:
                    _usage_error("hfe verify", f"argument --help: takes no value, got {value!r}")
                return None
            if not eq:
                value = next(rest, None)
                if value is None or _names_option(value):
                    _usage_error("hfe verify", f"argument {option}: expected one argument")
            if option == "--tolerance":
                out["tolerance"].append(value)
            elif option == "--seed":
                out["seed"] = _seed(value)
            elif option == "--report" and value not in _REPORTS:
                _usage_error("hfe verify", f"argument --report: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, _REPORTS))})")
            else:  # --pipeline, or a --report of _REPORTS
                out[option[2:]] = value
    if not out["scenarios"]:
        _usage_error("hfe verify", "the following arguments are required: SCENARIO")
    return out


def _read(argv: list[str]) -> tuple[str, dict | None]:
    """The command of argv, "help" for -h, and verify's settings."""
    if not argv:
        _usage_error("hfe", "the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command == "verify":
        settings = _read_verify(rest)
        return ("help", None) if settings is None else ("verify", settings)
    if command in ("list-scenarios", "schema"):
        if rest:
            _option(f"hfe {command}", rest[0], ("--help",))
            return "help", None
        return command, None
    if _names_option(command):
        _option("hfe", command, ("--help",))
        return "help", None
    _usage_error("hfe", f"invalid command: {command!r} "
                 "(choose from 'verify', 'list-scenarios', 'schema')")


def _verify(scenarios, pipeline, tolerance, seed, report) -> int:
    # "" selects the unknown pipeline "", not every pipeline; the tolerances
    # and the names are checked once, before any scenario of a batch runs
    pipelines = None if pipeline is None else pipeline.split(",")
    unknown = sorted(set(pipelines or ()) - set(PIPELINE_ORDER))
    try:
        tolerances = _parse_tolerances(tolerance)
        if unknown:
            raise ValueError(f"argument --pipeline: unknown pipelines {unknown}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    codes = []
    for target in scenarios:
        try:
            r = run_scenario(_resolve(target), pipelines=pipelines,
                             tolerances=tolerances, seed=seed)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            message = f"cannot read scenario: {exc}"
        except SchemaViolation as exc:  # a ValidationError, with its own line
            message = str(exc)
        except EngineError as exc:
            message = f"invalid scenario data: {exc}"
        else:
            print(emit_report(r, report))
            codes.append(_EXIT_OF[r.status])
            continue
        print(f"error: {message}", file=sys.stderr)
        if report == "jsonl" and len(scenarios) > 1:
            print(json.dumps({"scenario": target, "status": "error", "error": message},
                             sort_keys=True, separators=(",", ":")))
        codes.append(EXIT_PARSE_ERROR)
    return min(codes, key=_WORST_FIRST.index)


def _run(command: str, settings: dict | None) -> int:
    if command == "help":
        sys.stdout.write(_HELP)
        return EXIT_OK
    if command == "list-scenarios":
        for name in builtin_scenario_names():
            print(name)
        return EXIT_OK
    if command == "schema":
        print(json.dumps(SCENARIO_SCHEMA, indent=2, sort_keys=True))
        return EXIT_OK
    return _verify(**settings)


def main(argv=None) -> int:
    command, settings = _read(sys.argv[1:] if argv is None else list(argv))
    try:
        code = _run(command, settings)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`hfe verify ... | head`); send the rest,
        # and console's final flush, to devnull instead of a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def console() -> None:
    """Run main, or end at its usage error with code 2, flush stdout then
    stderr, and end the process with the code by os._exit (see the
    module docstring); a closed pipe at the flush exits 141, as main's
    own handler does."""
    try:
        code = main()
    except SystemExit as exc:  # _read's usage errors
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = EXIT_BROKEN_PIPE
    os._exit(code)


if __name__ == "__main__":
    console()
