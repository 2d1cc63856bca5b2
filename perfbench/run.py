"""End-to-end and per-layer benchmark of ``hfe verify``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each verification is a fresh
``python -m hfe.cli verify <scenario> --report json --seed N``
subprocess with ``src`` on PYTHONPATH, in a closed loop: one client, one
verification at a time.  Every report is checked against a reference.

With ``--trace 0`` the run prints the end-to-end metrics of
BENCHMARK.json, and failed_frac (verifications failed / attempted),
which the result line carries as ``failed`` and ``attempted``.  With
``--trace 1`` verifications alternate, round by round, between
``trace_runner.py`` (spans around the engine's module functions) and
plain untraced ones, and the run prints the per-layer metrics, per
verification, as medians over rounds.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# ring_enum (2^13 sign patterns through GF(2) solving) runs on request
# but is not in BENCHMARK.json: on a 2-vCPU guest its median moved by
# more than 25% between runs minutes apart.
WORKLOADS = ["corpus_cli", "ring_enum", "dense_samples"]
SETUP_REPS = 5          # set-ups per end-to-end run; setup_s is their median
MIN_SAMPLES = 11        # so that a percentile with ten samples beyond exists
RUN_CAP_S = 120.0       # no verification starts later than this into a run
VERIFY_TIMEOUT_S = 30.0

END_TO_END = {
    "setup_s": "s",
    "verify_p50_s": "s",
    "verify_tail_s": "s",
    "points_per_s": "points/s",
    "verify_cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Item:
    """One scenario a workload verifies."""

    target: str          # a scenario file or a built-in scenario name
    reference: dict
    points: int


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    extra: list[str] = field(default_factory=list)
    trace: dict | None = None


def judge(exit_code: int, stdout: str, reference: dict) -> tuple[list[str], list[str]]:
    """Problems with one verification's outcome, and its extra check ids.

    A non-zero exit, unparsable JSON or a mismatch with the reference is
    a problem; any problem makes the verification a failure.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], []
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"unparsable report: {exc}"], []
    if not isinstance(report, dict):
        return ["report is not a JSON object"], []
    return workloads.check_report(report, reference)


class Bench:
    """One workload's inputs and the subprocess that verifies them."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = perf_counter() + RUN_CAP_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def make_items(self) -> list[Item]:
        """Generate and write the workload's scenario files."""
        if self.workload == "corpus_cli":
            reference = workloads.corpus_reference()
            items = []
            for name in workloads.CORPUS:
                doc = json.loads((SRC / "hfe" / "scenarios" / f"{name}.json").read_text())
                items.append(Item(name, reference[name], workloads.overlap_points(doc)))
            return items
        if self.workload == "ring_enum":
            doc = workloads.ring_enum_doc(self.seed)
        else:
            doc = workloads.dense_samples_doc(self.seed)
        path = self.work / f"{self.workload}.json"
        path.write_text(json.dumps(doc, indent=1))
        return [Item(str(path), workloads.ring_reference(doc),
                     workloads.overlap_points(doc))]

    def setup(self) -> tuple[float, list[Item], Sample]:
        """Set-up time: writing the inputs plus one discarded warm-up
        verification (its outcome is still checked)."""
        start = perf_counter()
        items = self.make_items()
        warm = self.verify(items[0])
        return perf_counter() - start, items, warm

    def verify(self, item: Item, vid: str | None = None) -> Sample:
        args = ["verify", item.target, "--report", "json", "--seed", str(self.seed)]
        if vid is None:
            cmd = [sys.executable, "-m", "hfe.cli", *args]
        else:
            trace_path = self.work / "trace.json"
            trace_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "trace_runner.py"),
                   str(trace_path), vid, "--", *args]
        out_path, err_path = self.work / "stdout.json", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(VERIFY_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        if proc.returncode == -9 and wall >= VERIFY_TIMEOUT_S:
            sample.problems = [f"timeout after {VERIFY_TIMEOUT_S:.0f} s"]
            return sample
        sample.problems, sample.extra = judge(
            proc.returncode, out_path.read_text(errors="replace"), item.reference)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            sample.problems += tail
        if vid is not None and not sample.problems:
            sample.trace = json.loads(trace_path.read_text())
            top = spans.self_time_total(sample.trace)
            if top > wall:
                sample.problems.append(
                    f"summed self time {top:.4f} s exceeds wall {wall:.4f} s")
        return sample


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  With ten samples or fewer there is none, and
    the maximum is returned as the 100th percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def closed_loop(bench: Bench, items: list[Item], seconds: float,
                min_samples: int) -> list[tuple[Item, Sample]]:
    """Verify the items round-robin until ``seconds`` have passed and at
    least ``min_samples`` verifications are done, ending on a whole
    round so every run verifies the same mix.  At least one round runs."""
    done = []
    start = perf_counter()
    while True:
        now = perf_counter()
        whole_round = len(done) >= len(items) and len(done) % len(items) == 0
        if whole_round and (now >= bench.deadline
                            or (now - start >= seconds and len(done) >= min_samples)):
            return done
        item = items[len(done) % len(items)]
        done.append((item, bench.verify(item)))


def scenario_median(done: list[tuple[Item, Sample]], key) -> float:
    """Mean over the workload's scenarios of each one's median.

    The corpus mixes scenarios of about 0.45 s and 0.7 s; the median of
    the mixture jumps between the two groups, the mean of per-scenario
    medians does not.  With one scenario this is the plain median.
    """
    by_target: dict[str, list[float]] = {}
    for item, s in done:
        by_target.setdefault(item.target, []).append(key(s))
    return statistics.fmean(statistics.median(v) for v in by_target.values())


def run_end_to_end(bench: Bench, seconds: float) -> tuple[dict, int, int]:
    setups = [bench.setup() for _ in range(SETUP_REPS)]
    items = setups[-1][1]
    done = closed_loop(bench, items, seconds, MIN_SAMPLES)
    samples = [s for _, s in done]
    walls = [s.wall for s in samples]
    tail_value, tail_pct = tail(walls)
    points = sum(item.points for item, _ in done)
    metrics = {
        "setup_s": statistics.median(t for t, _, _ in setups),
        "verify_p50_s": scenario_median(done, lambda s: s.wall),
        "verify_tail_s": tail_value,
        "points_per_s": points / sum(walls),
        "verify_cpu_s": scenario_median(done, lambda s: s.cpu),
        "peak_rss_mb": max(s.rss_mb for s in samples + [w for _, _, w in setups]),
    }
    attempted = len(samples) + len(setups)
    failed = sum(1 for s in samples + [w for _, _, w in setups] if s.problems)
    print(f"workload {bench.workload}, seed {bench.seed}: closed loop, 1 client, "
          f"{len(samples)} verifications in {len(items)} scenario(s) with "
          f"{sum(i.points for i in items)} overlap sample points")
    notes = {
        "setup_s": f"median of {SETUP_REPS} set-ups",
        "verify_p50_s": f"mean over {len(items)} scenario(s) of the median "
                        f"of {len(samples) // len(items)}",
        "verify_tail_s": f"p{tail_pct:.1f} of {len(samples)} samples",
        "points_per_s": f"{points} points / {sum(walls):.2f} s of verification",
        "verify_cpu_s": "user+sys of the subprocess, as verify_p50_s",
        "peak_rss_mb": "largest of any verify subprocess",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:14s} {metrics[name]:12.6g} {unit:9s} {notes[name]}")
    print(f"  {'failed_frac':14s} {failed / attempted:12.6g} {'ratio':9s} "
          f"{failed} of {attempted} verifications")
    report_failures(done + [(items[0], w) for _, _, w in setups])
    return {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END.items()}, attempted, failed


def run_traced(bench: Bench, seconds: float) -> tuple[dict, int, int]:
    _, items, warm = bench.setup()
    points = sum(i.points for i in items)
    rounds, traced_walls, plain_walls, done = [], [], [], [(items[0], warm)]
    start = perf_counter()
    while not traced_walls or perf_counter() < min(start + seconds, bench.deadline):
        r = len(traced_walls)
        traced = [(i, bench.verify(i, vid=f"r{r}v{j}")) for j, i in enumerate(items)]
        plain = [(i, bench.verify(i)) for i in items]
        done += traced + plain
        traced_walls.append(sum(s.wall for _, s in traced))
        plain_walls.append(sum(s.wall for _, s in plain))
        if all(s.trace is not None for _, s in traced):
            rounds.append(spans.layer_metrics([s.trace for _, s in traced], points))
    metrics = {name: statistics.median(m[name] for m in rounds)
               for name in spans.LAYER_METRICS if rounds and name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(plain_walls) - 1.0)
    attempted = len(done)
    failed = sum(1 for _, s in done if s.problems)
    print(f"workload {bench.workload}, seed {bench.seed}: {len(traced_walls)} traced "
          f"round(s) of {len(items)} verification(s), {points} points per round; "
          "values are per verification, medians over rounds")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {spans.LAYER_METRICS[name]}")
    report_failures(done)
    out = {n: {"value": v, "unit": spans.LAYER_METRICS[n]} for n, v in metrics.items()}
    return out, attempted, failed


def report_failures(done: list[tuple[Item, Sample]]) -> None:
    extra = sorted({e for _, s in done for e in s.extra})
    if extra:
        print(f"  extra check ids (not failures): {', '.join(extra)}")
    for item, s in done:
        if s.problems:
            print(f"  FAILED {item.target}: {'; '.join(s.problems[:5])}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_info() -> dict:
    import numpy

    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), platform.processor())
    except OSError:
        model = platform.processor()
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hfe" / "cli.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        run = run_traced if args.trace else run_end_to_end
        metrics, attempted, failed = run(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
