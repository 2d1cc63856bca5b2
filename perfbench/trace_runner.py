"""Run one ``hfe`` command with spans recorded around calls into the
engine's modules.

Usage (with the engine's ``src`` directory on PYTHONPATH):

    python trace_runner.py SPANS.json VERIFICATION_ID -- verify ...

Times the fresh-process ``import hfe.cli``, wraps every target named in
``spans.py`` and then calls ``hfe.cli.main`` with the remaining
arguments, so the traced path is the command-line path.  Spans and
counts stay in memory and are written to SPANS.json at exit.  A target
that does not exist raises instead of reading as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

from spans import COUNTED, EVENT_COUNTERS, STAGES, TIMED


class Tracer:
    """Spans and counters of one verification."""

    def __init__(self, vid: str):
        self.vid = vid
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts = {name: 0 for name in
                       EVENT_COUNTERS + [c for _, _, c in COUNTED]}

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append({"id": len(self.spans), "parent": None,
                           "name": name, "start": start, "end": end,
                           "vid": self.vid})

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"id": len(self.spans),
                   "parent": self.stack[-1] if self.stack else None,
                   "name": name, "start": perf_counter(), "end": None,
                   "vid": self.vid}
            self.spans.append(rec)
            self.stack.append(rec["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                self.stack.pop()
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _swap(namespace: dict, original, wrapper, depth: int = 0) -> None:
    """Replace every value that is ``original`` in a namespace and in
    the dicts it holds (stage tables, group-operation tables)."""
    for key, value in list(namespace.items()):
        if value is original:
            namespace[key] = wrapper
        elif isinstance(value, dict) and depth < 2:
            _swap(value, original, wrapper, depth + 1)


def replace(original, wrapper, home=None, attr: str = "") -> None:
    """Install ``wrapper`` wherever an ``hfe`` module refers to
    ``original``: functions re-bound by ``from ... import`` are the same
    object under several names."""
    if home is not None:
        setattr(home, attr, wrapper)
    for name, module in list(sys.modules.items()):
        if name == "hfe" or name.startswith("hfe."):
            _swap(vars(module), original, wrapper)


def _target(module: str, attr: str):
    home = importlib.import_module(module)
    fn = getattr(home, attr)  # AttributeError: a renamed target fails loudly
    if not callable(fn):
        raise TypeError(f"trace target {module}.{attr} is not callable")
    return home, fn


def install(tracer: Tracer) -> None:
    from hfe import errors, generators, pipelines

    for module, attr, name in TIMED:
        home, fn = _target(module, attr)
        wrapper = tracer.timed(name, fn)
        if (module, attr) == ("hfe.tracking", "track_sqrt"):
            wrapper = _counting_path(tracer, wrapper)
        elif (module, attr) == ("hfe.compatibility", "build_delta_tilde"):
            wrapper = _counting_glue_failures(tracer, wrapper, errors.GluingError)
        replace(fn, wrapper, home, attr)
    for module, attr, name in COUNTED:
        home, fn = _target(module, attr)
        replace(fn, tracer.counted(name, fn), home, attr)

    if list(pipelines._RUNNERS) != STAGES or pipelines.PIPELINE_ORDER != STAGES:
        raise RuntimeError(f"pipeline stages changed: {pipelines.PIPELINE_ORDER}")
    for stage in STAGES:
        fn = pipelines._RUNNERS[stage]
        replace(fn, tracer.timed(f"pipelines.{stage}", fn))

    build = generators.build_generator

    @functools.wraps(build)
    def counting_build(spec, n, k):
        return tracer.counted("generators.evals", build(spec, n, k))
    replace(build, counting_build, generators, "build_generator")


def _counting_path(tracer: Tracer, track):
    """Count the evaluations of the path function passed to track_sqrt."""
    @functools.wraps(track)
    def wrapper(f, *args, **kwargs):
        return track(tracer.counted("tracking.path_evals", f), *args, **kwargs)
    return wrapper


def _counting_glue_failures(tracer: Tracer, build, gluing_error):
    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except gluing_error:
            tracer.counts["compatibility.glue_failures"] += 1
            raise
    return wrapper


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, vid, hfe_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(vid)
    start = perf_counter()
    cli = importlib.import_module("hfe.cli")
    tracer.record("cli.import", start, perf_counter())
    install(tracer)
    try:
        return tracer.timed("cli.main", cli.main)(hfe_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"vid": vid, "spans": tracer.spans,
                       "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
