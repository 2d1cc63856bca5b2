"""Span arithmetic and the per-layer metrics of a traced round.

A span is a dict with ``id``, ``parent`` (an id or None), ``name``,
``start``, ``end`` and ``vid`` (the verification it belongs to), as
written by ``trace_runner.py``.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

# The ten stages of hfe.pipelines.PIPELINE_ORDER; the trace runner fails
# if the engine's stage table differs.
STAGES = ["validate", "frame_pairs", "lift", "induce", "delta_tilde",
          "self_compat", "recipe", "delta_D", "cross_check", "obstruction"]

# Functions timed as spans: (module, attribute, span name).
TIMED = [
    ("hfe.pipelines", "run_scenario", "pipelines.run_scenario"),
    ("hfe.scenario", "load_scenario", "scenario.load"),
    ("jsonschema", "validate", "scenario.validate"),
    ("hfe.report", "emit_report", "report.emit"),
    ("hfe.cech", "gf2_solve", "cech.gf2_solve"),
    ("hfe.cech", "validate_cocycle", "cech.validate_cocycle"),
    ("hfe.cech", "lift_double_cover", "cech.lift_double_cover"),
    ("hfe.cech", "lifts_equivalent", "cech.lifts_equivalent"),
    ("hfe.cech", "z2_coboundary_solve", "cech.z2_coboundary_solve"),
    ("hfe.compatibility", "build_delta_tilde", "compatibility.build_delta_tilde"),
    ("hfe.compatibility", "induce_compatible", "compatibility.induce_compatible"),
    ("hfe.compatibility", "normalize_sections", "compatibility.normalize_sections"),
    ("hfe.compatibility", "validate_pair_data", "compatibility.validate_pair_data"),
    ("hfe.induction", "recipe", "induction.recipe"),
    ("hfe.induction", "build_delta_D_tilde", "induction.build_delta_D_tilde"),
    ("hfe.induction", "cross_check", "induction.cross_check"),
    ("hfe.induction", "chart_sqrt_values", "induction.chart_sqrt_values"),
    ("hfe.tracking", "track_sqrt", "tracking.track_sqrt"),
    ("hfe.groups", "subgroup_classify", "groups.subgroup_classify"),
    ("hfe.frames", "alpha_tilde", "frames.alpha_tilde"),
]

# Functions called too often for a span each; only their calls are
# counted: (module, attribute, counter name).
COUNTED = [
    ("hfe.groups", "mp_mul", "groups.mp_mul"),
    ("hfe.frames", "delta_L_tilde", "frames.delta_L_tilde"),
    ("hfe.frames", "validate_lagrangian", "frames.validate_lagrangian"),
    ("hfe.ball", "alpha_raw", "ball.alpha_raw"),
    ("hfe.ball", "phi_raw", "ball.phi_raw"),
    ("numpy.linalg", "det", "linalg.det"),
    ("numpy.linalg", "inv", "linalg.inv"),
]

# Counters kept by the special wrappers of the trace runner.
EVENT_COUNTERS = ["generators.evals", "tracking.path_evals",
                  "compatibility.glue_failures"]

# Every per-layer metric in output order, with where it comes from:
# "self" sums the self time of the spans with that name, "incl" their
# whole duration, "calls" counts them, "count" reads a counter, and
# "derived" metrics are computed from the others.
_SOURCES = [
    ("cli.import_s", "self", "cli.import"),
    ("scenario.validate_s", "self", "scenario.validate"),
    ("scenario.load_s", "incl", "scenario.load"),
    ("scenario.build_s", "derived", ""),
    ("generators.evals", "count", "generators.evals"),
    ("generators.evals_per_point", "derived", ""),
    *[(f"pipelines.{s}_s", "self", f"pipelines.{s}") for s in STAGES],
    ("cech.gf2_solve_calls", "calls", "cech.gf2_solve"),
    ("cech.gf2_solve_s", "self", "cech.gf2_solve"),
    ("cech.validate_cocycle_calls", "calls", "cech.validate_cocycle"),
    ("cech.validate_cocycle_s", "self", "cech.validate_cocycle"),
    ("cech.lift_double_cover_s", "self", "cech.lift_double_cover"),
    ("cech.lifts_equivalent_s", "self", "cech.lifts_equivalent"),
    ("cech.z2_coboundary_solve_s", "self", "cech.z2_coboundary_solve"),
    ("compatibility.build_delta_tilde_calls", "calls", "compatibility.build_delta_tilde"),
    ("compatibility.build_delta_tilde_s", "self", "compatibility.build_delta_tilde"),
    ("compatibility.glue_failures", "count", "compatibility.glue_failures"),
    ("compatibility.induce_compatible_s", "self", "compatibility.induce_compatible"),
    ("compatibility.normalize_sections_s", "self", "compatibility.normalize_sections"),
    ("compatibility.validate_pair_data_s", "self", "compatibility.validate_pair_data"),
    ("induction.recipe_calls", "calls", "induction.recipe"),
    ("induction.recipe_s", "self", "induction.recipe"),
    ("induction.build_delta_D_tilde_s", "self", "induction.build_delta_D_tilde"),
    ("induction.cross_check_s", "self", "induction.cross_check"),
    ("induction.chart_sqrt_values_s", "self", "induction.chart_sqrt_values"),
    ("tracking.track_sqrt_calls", "calls", "tracking.track_sqrt"),
    ("tracking.track_sqrt_s", "self", "tracking.track_sqrt"),
    ("tracking.path_evals", "count", "tracking.path_evals"),
    ("tracking.evals_per_track", "derived", ""),
    ("groups.subgroup_classify_calls", "calls", "groups.subgroup_classify"),
    ("groups.subgroup_classify_s", "self", "groups.subgroup_classify"),
    ("groups.mp_mul_calls", "count", "groups.mp_mul"),
    ("frames.alpha_tilde_calls", "calls", "frames.alpha_tilde"),
    ("frames.alpha_tilde_s", "self", "frames.alpha_tilde"),
    ("frames.delta_L_tilde_calls", "count", "frames.delta_L_tilde"),
    ("frames.validate_lagrangian_calls", "count", "frames.validate_lagrangian"),
    ("ball.alpha_raw_calls", "count", "ball.alpha_raw"),
    ("ball.phi_raw_calls", "count", "ball.phi_raw"),
    ("linalg.det_calls", "count", "linalg.det"),
    ("linalg.inv_calls", "count", "linalg.inv"),
    ("linalg.det_per_point", "derived", ""),
    ("report.emit_s", "self", "report.emit"),
    ("trace.overhead_frac", "derived", ""),  # filled in by the caller
]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_point"):
        return "count/point"
    if name.endswith("_per_track"):
        return "count/call"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


LAYER_METRICS = {name: _unit(name) for name, _, _ in _SOURCES}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, lo, hi = 0.0, None, None
        for c_lo, c_hi in sorted(children[s["id"]]):
            c_lo, c_hi = max(c_lo, s["start"]), min(c_hi, s["end"])
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(traces: list[dict], points: int) -> dict[str, float]:
    """Per-layer metrics of one round, per verification.

    ``traces`` holds one trace-runner output per verification of the
    round and ``points`` the overlap sample points the round verified.
    Every metric except ``trace.overhead_frac`` is filled in; a layer
    the round never entered reads 0.
    """
    self_s, incl_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    counters = defaultdict(int)
    for tr in traces:
        st = self_times(tr["spans"])
        for s in tr["spans"]:
            self_s[s["name"]] += st[s["id"]]
            incl_s[s["name"]] += s["end"] - s["start"]
            calls[s["name"]] += 1
        for name, value in tr["counts"].items():
            counters[name] += value
    n = len(traces)
    sums = {"self": self_s, "incl": incl_s, "calls": calls, "count": counters}
    m = {name: sums[kind][src] / n for name, kind, src in _SOURCES
         if kind != "derived"}
    # building = the inclusive load minus the schema validation in it
    m["scenario.build_s"] = (incl_s["scenario.load"] - incl_s["scenario.validate"]) / n
    m["generators.evals_per_point"] = counters["generators.evals"] / points
    m["linalg.det_per_point"] = counters["linalg.det"] / points
    tracks = calls["tracking.track_sqrt"]
    m["tracking.evals_per_track"] = (counters["tracking.path_evals"] / tracks
                                     if tracks else 0.0)
    return m


def self_time_total(trace: dict) -> float:
    """Summed self time of every span of one verification; with properly
    nested spans this is the summed duration of its top-level spans."""
    return sum(self_times(trace["spans"]).values())
