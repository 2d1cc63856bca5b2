"""Verification pipelines over loaded scenarios.

Each pipeline turns one construction of the engine into check records:
structural validation, pairing-determinant spot checks, double-cover
lifting and counting its lift classes, inducing the compatible
metalinear cocycle, gluing the square-root datum and its sheet flips,
self-compatibility, the metaplectic recipe, the D-adapted square-root
datum, the cross-check between the two constructions, and lift
obstructions.

A stage declares the named artefacts it consumes and produces:

    pair.cocycle      the pair cocycle, checked as cocycle.pair
    gl.cocycle        the Gl cocycle, checked as cocycle.gl
    pair.data         the pair cocycle with its delta samples
    mp.bundle         the metaplectic bundle, its cocycle checked as cocycle.mp
    sections.first    the first frame-section family, with mp.bundle an
                      induction.SectionFamily, which transports it and
                      runs its plain recipe once per run for the recipe
                      stage and cross_check
    sections.second   the second frame-section family, likewise
    sections.pair     the meta pair sections of the block-form datum
    pair_first.lift   the metalinear lift of the pair's first member
    lift_classes      the lift classes of the nerve
    pair.normalized   the pair data normalized to delta = 1
    induced           the compatible metalinear cocycle of the second member

An artefact may be None (``gl.cocycle`` when the scenario has none);
it is missing only when its producer left it out.  From these
declarations alone, run_scenario pulls in the stages that produce a
selected stage's inputs, and records a stage whose inputs are missing
as ``<stage>.skipped`` (anchor ``pipeline.skipped``) with the reason
and the missing artefacts.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

# hfe.compatibility, hfe.induction and hfe.frames are imported by the
# stage runners that call them: a verification then compiles and loads
# only the layers its scenario runs (sphere_octa none of them).
from . import cech
from .config import (
    check_bound,
    get_tolerances,
    projection_bound,
    tolerance_overrides,
)
from .errors import EngineError, GluingError, TheoremFalsification
from .groups import worst
from .nerve import Nerve
from .report import CheckRecord, VerificationReport
from .sampling import Draws
from .scenario import Scenario, load_scenario, run_tolerances

# ---------------------------------------------------------------------------
# stage declarations
# ---------------------------------------------------------------------------


class Stage:
    """The artefacts a stage consumes and produces.

    Its runner is called as run(scenario, report, rng, *inputs), with
    the consumed artefacts in declared order, and returns a dict of the
    artefacts it produced.  ``produces`` maps each to the reason a
    finished run of the stage leaves it out, or None if it never does.
    """

    def __init__(self, consumes: tuple[str, ...], produces: dict[str, Optional[str]]):
        self.consumes = consumes
        self.produces = produces


_STAGES: dict[str, Stage] = {}
_RUNNERS: dict[str, Callable] = {}


def _stage(name: str, consumes=(), produces=None):
    """Declare a stage; stages run in declaration order."""
    def register(run):
        _STAGES[name] = Stage(tuple(consumes), produces or {})
        _RUNNERS[name] = run
        return run
    return register


# ---------------------------------------------------------------------------
# sign patterns on overlap components
# ---------------------------------------------------------------------------

def _defects(nerve: Nerve, bits: np.ndarray) -> list:
    """The (triple key, point id) of the triple points where a degree-2
    sign cochain is -1, sorted."""
    return sorted(tp for tp, bit in zip(nerve.triples, bits.tolist()) if bit)


def _verdict(check_id: str, anchor: str, res: dict) -> CheckRecord:
    """The record of a validation result (ok, max_residual, failures)."""
    return CheckRecord(check_id, anchor, max_residual=float(res["max_residual"]),
                       passed=res["ok"], failures=res["failures"])


def _bounded(check_id: str, anchor: str, residual: float, bound: float,
             details: Optional[dict] = None, failures=()) -> CheckRecord:
    """The record of a residual against its bound: it passes iff
    residual <= bound, so a NaN fails."""
    return CheckRecord(check_id, anchor, max_residual=residual,
                       passed=residual <= bound, failures=list(failures),
                       details=details)


def _expected(check_id: str, anchor: str, key: str, value, expected,
              details: dict, residual: float = 0.0) -> CheckRecord:
    """The record of a value against its expectation: it fails only when
    an expectation is given and the value differs from it."""
    ok = expected is None or value == expected
    return CheckRecord(check_id, anchor, max_residual=residual, passed=ok,
                       failures=[] if ok else [(key, value, "expected", expected)],
                       details=details)


def _glue_record(check_id: str, anchor: str, dt) -> CheckRecord:
    """The record of a glued square-root datum: its worst gluing residual
    against the check bound, with its property-check residuals."""
    return _bounded(check_id, anchor, worst(dt.residuals),
                    check_bound(get_tolerances()),
                    {key: dt.checks[key] for key in
                     ("square_identity", "translation_law")})


# ---------------------------------------------------------------------------
# individual pipelines
# ---------------------------------------------------------------------------

@_stage("validate", produces={
    "pair.cocycle": "no pair cocycle",
    "gl.cocycle": None,
    "pair.data": "no pair cocycle with delta samples",
    "mp.bundle": "no metaplectic data",
    "sections.first": "no first section family",
    "sections.second": "no second section family",
    "sections.pair": "no pair sections",
})
def _run_validate(scenario: Scenario, report, rng):
    report.add(CheckRecord("nerve.structure", "nerve.validity",
                           details={"charts": len(scenario.nerve.charts)}))
    out = {"gl.cocycle": scenario.gl_cocycle}
    if scenario.pair_cocycle is not None:
        # classified where its data is made, before the cocycle records
        from . import compatibility
        data = compatibility.PolarizationPairData(
            scenario.nerve, scenario.pair_cocycle, scenario.delta_samples)
        out["pair.cocycle"] = scenario.pair_cocycle
    checked = {}
    for role, c in (
        ("pair", scenario.pair_cocycle),
        ("gl", scenario.gl_cocycle),
        ("mp", scenario.mp_cocycle),
    ):
        if c is None:
            continue
        checked[role] = cech.validate_cocycle(scenario.nerve, c)
        report.add(_verdict(f"cocycle.{role}", "cocycle.identity-at-triples",
                            checked[role]))
    if scenario.pair_cocycle is not None and scenario.delta_samples is not None:
        # the consistency of pair data includes its cocycle's check
        res, base = compatibility.validate_pair_data(data), checked["pair"]
        failures = res["failures"] + base["failures"]
        report.add(_verdict("pair_data.consistency", "delta.transformation-law", {
            "ok": not failures, "failures": failures,
            "max_residual": worst(res["max_residual"], base["max_residual"])}))
        out["pair.data"] = data
    bundle = None
    if scenario.mp_cocycle is not None:
        from . import induction
        bundle = out["mp.bundle"] = induction.MetaplecticBundleData(
            scenario.nerve, scenario.mp_cocycle, scenario.d_adapted)
    for key, sections in (("sections.first", scenario.sections_first),
                          ("sections.second", scenario.sections_second)):
        if sections is not None:
            # transported once per run, by the family's first consumer
            out[key] = (sections if bundle is None
                        else induction.SectionFamily(bundle, sections))
    if scenario.pair_sections is not None:
        out["sections.pair"] = scenario.pair_sections
    return out


@_stage("frame_pairs")
def _run_frame_pairs(scenario: Scenario, report, rng):
    from .frames import check_frame_pairs, delta, validate_lagrangian
    bound = check_bound(get_tolerances())
    residuals, failures = [], []
    for fp in scenario.frame_pairs:
        (U1, V1), (U2, V2) = fp["first"], fp["second"]
        validate_lagrangian(U1[None], V1[None])
        validate_lagrangian(U2[None], V2[None])
        S1, S2 = np.vstack([U1, V1])[None], np.vstack([U2, V2])[None]
        check_frame_pairs(S1, S2, fp["k"])
        val, = delta(S1, S2, fp["k"])
        r = abs(val - fp["expected_delta"]) / max(1.0, abs(fp["expected_delta"]))
        residuals.append(r)
        if not r <= bound:
            failures.append((fp["name"], val))
    report.add(_bounded("frame_pairs.delta-values", "delta.pairing-determinant",
                        worst(residuals), bound,
                        {"pairs": len(scenario.frame_pairs)}, failures))


@_stage("lift", consumes=("pair.cocycle",),
        produces=dict.fromkeys(("pair_first.lift", "lift_classes"),
                               "the first member does not lift "
                               "(see lift.double-cover)"))
def _run_lift(scenario: Scenario, report, rng, pair_cocycle):
    base = cech.push_cocycle(pair_cocycle)
    lifted = cech.lift_double_cover(scenario.nerve, base)
    if isinstance(lifted, np.ndarray):
        report.add(
            CheckRecord(
                "lift.double-cover",
                "cocycle.sqrt-lift",
                passed=False,
                failures=[("obstructed", _defects(scenario.nerve, lifted))],
            )
        )
        return {}
    res = cech.validate_cocycle(scenario.nerve, lifted)
    report.add(_verdict("lift.double-cover", "cocycle.sqrt-lift", res))
    lc = cech.lift_classes(scenario.nerve)
    report.add(_expected("lift.class-count", "cocycle.lift-enumeration", "classes",
                         lc.classes, scenario.expectations.get("lift_classes"),
                         {"valid_lifts": lc.valid, "coboundaries": lc.coboundaries,
                          "classes": lc.classes}))
    return {"pair_first.lift": lifted, "lift_classes": lc}


@_stage("induce", consumes=("pair.data", "pair_first.lift"),
        produces=dict.fromkeys(("pair.normalized", "induced")))
def _run_induce(scenario: Scenario, report, rng, data, z1):
    from . import compatibility
    norm = compatibility.normalize_sections(data)
    z2, res = compatibility.induce_compatible(norm, z1)
    report.add(_verdict("induce.compatible", "induce.formula", res))
    return {"pair.normalized": norm, "induced": z2}


@_stage("delta_tilde",
        consumes=("pair.normalized", "pair_first.lift", "induced",
                  "lift_classes"))
def _run_delta_tilde(scenario: Scenario, report, rng, norm, z1, z2, lc):
    from . import compatibility
    dt = compatibility.build_delta_tilde(norm, z1, z2, rng)
    report.add(_glue_record("delta_tilde.glue", "sqrt-datum.gluing", dt))
    # Every valid sheet pattern that glues is a coboundary (delta1 delta0
    # = 0), so this record cannot fail; the benchmark reference lists it.
    report.add(CheckRecord("delta_tilde.unique-class",
                           "sqrt-datum.uniqueness-enumeration",
                           details={"gluing_patterns": lc.coboundaries,
                                    "total_valid": lc.valid}))
    # the sheet flipped on the components of the first chart that meets
    # one is the coboundary of that chart's sign, so the chart signs,
    # taken at every chart row, are the base values that glue it
    nerve = scenario.nerve
    if nerve.joins.size:
        met = nerve.joins.min()
        signs = np.where(np.arange(len(nerve.charts)) == met, -1, 1)
        flipped = cech.flip_sheets(nerve, z2, (nerve.joins == met).any(axis=1))
        dt2 = compatibility.build_delta_tilde(norm, z1, flipped, rng,
                                              base_values=signs[nerve.chart] + 0j)
        report.add(_bounded("delta_tilde.equivalent-glues",
                            "sqrt-datum.coboundary-freedom",
                            worst(dt2.residuals), check_bound(get_tolerances()),
                            {"witness": dict(zip(nerve.charts, signs.tolist()))}))
    if len(lc.representatives):
        flipped = cech.flip_sheets(nerve, z2, lc.representatives[0])
        try:
            compatibility.build_delta_tilde(norm, z1, flipped, rng)
            report.add(CheckRecord("delta_tilde.inequivalent-fails",
                                   "sqrt-datum.uniqueness",
                                   passed=False,
                                   failures=[("unexpected glue",)]))
        except GluingError as exc:
            report.add(
                CheckRecord(
                    "delta_tilde.inequivalent-fails",
                    "sqrt-datum.uniqueness",
                    max_residual=worst(list(exc.residuals.values())),
                    passed=True,
                    details={"rejected_points": len(exc.residuals)},
                )
            )


@_stage("self_compat")
def _run_self_compat(scenario: Scenario, report, rng):
    from . import compatibility
    for case in scenario.self_compat_cases:
        data = compatibility.PolarizationPairData(
            scenario.nerve, case["pair_cocycle"], case["delta_samples"])
        base = cech.push_cocycle(case["pair_cocycle"])
        z1 = cech.lift_double_cover(scenario.nerve, base)
        name = case["name"]
        if isinstance(z1, np.ndarray):
            report.add(CheckRecord(f"self_compat.{name}", "self-compat.epsilon",
                                   passed=False,
                                   failures=[("not liftable",)]))
            continue
        dt, dt_norm = compatibility.self_compat(data, z1, rng)
        report.add(_expected(
            f"self_compat.{name}", "self-compat.epsilon", "epsilon", dt.epsilon,
            scenario.expectations.get("self_compat_eps", {}).get(name),
            {"epsilon": dt.epsilon,
             "translation_law": dt.checks["translation_law"],
             "normalized_min_real": dt_norm.checks["positivity_min_real"]},
            residual=float(dt.checks["square_identity"])))


@_stage("recipe", consumes=("mp.bundle", "sections.first"))
def _run_recipe(scenario: Scenario, report, rng, data, family):
    from . import induction
    t, r = family.plain()
    report.add(_bounded("recipe.projection", "recipe.metalinear-transitions",
                        worst(r.residuals["projection_match"],
                              r.residuals["ball_match"]),
                        projection_bound(get_tolerances()), dict(r.residuals)))
    # a different sheet choice on one chart changes the result only by a
    # coboundary of chart signs
    flip_chart = next(iter(scenario.nerve.charts))
    r2 = induction.recipe(t, sheet_flips={flip_chart: -1})
    witness = cech.lifts_equivalent(scenario.nerve, r.ml_cocycle, r2.ml_cocycle)
    report.add(
        CheckRecord(
            "recipe.sheet-coboundary",
            "recipe.sheet-independence",
            passed=witness is not None,
            failures=[] if witness is not None else [("inequivalent",)],
            details={"witness": witness},
        )
    )


@_stage("delta_D", consumes=("mp.bundle", "sections.pair"))
def _run_delta_D(scenario: Scenario, report, rng, data, pair_sections):
    from . import induction
    dt = induction.build_delta_D_tilde(data, pair_sections, rng)
    report.add(_glue_record("delta_D.glue", "sqrt-datum.block-form-gluing", dt))


@_stage("cross_check",
        consumes=("mp.bundle", "sections.first", "sections.second"))
def _run_cross_check(scenario: Scenario, report, rng, data, first, second):
    from . import induction
    out = induction.cross_check(data, first, second, rng)
    report.add(_bounded("cross_check.agreement", "cross-check.global-sign",
                        worst(out["glue_residual"], out["restriction_residual"]),
                        check_bound(get_tolerances()), out))


@_stage("obstruction", consumes=("gl.cocycle",))
def _run_obstruction(scenario: Scenario, report, rng, gl_cocycle):
    if gl_cocycle is not None:
        lifted = cech.lift_double_cover(scenario.nerve, gl_cocycle)
        expected = scenario.expectations.get("obstructed", False)
        obstructed = isinstance(lifted, np.ndarray)
        record = CheckRecord(
            "obstruction.lift",
            "cocycle.lift-obstruction",
            passed=obstructed == expected,
            details={"obstructed": obstructed},
        )
        if obstructed:
            # lift_double_cover returns the defect only when it has
            # proved it infeasible
            defects = _defects(scenario.nerve, lifted)
            record.details["defect_signs"] = sorted(map(str, defects))
        report.add(record)
    expected_map = scenario.expectations.get("sign_cochains", {})
    for name, cochain in sorted(scenario.sign_cochains.items()):
        sol = cech.z2_coboundary_solve(scenario.nerve, cochain)
        verdict = "feasible" if sol is not None else "infeasible"
        report.add(_expected(f"obstruction.cochain.{name}",
                             "cohomology.gf2-feasibility", "verdict", verdict,
                             expected_map.get(name), {"verdict": verdict}))


def _producers() -> dict[str, str]:
    """Each artefact's producing stage.  A stage may consume only what an
    earlier stage produces, so declaration order is a run order."""
    producer: dict[str, str] = {}
    for name, stage in _STAGES.items():
        unmet = [a for a in stage.consumes if a not in producer]
        twice = [a for a in stage.produces if a in producer]
        if unmet or twice:
            raise RuntimeError(f"stage {name}: inputs {unmet} not produced "
                               f"earlier, outputs {twice} produced twice")
        producer.update(dict.fromkeys(stage.produces, name))
    return producer


_PRODUCER = _producers()
PIPELINE_ORDER = list(_STAGES)


def _with_producers(selected) -> list[str]:
    """The selected stages and the stages producing their inputs, in
    declaration order; one pass back over that order closes the set."""
    needed = set(selected)
    for name in reversed(PIPELINE_ORDER):
        if name in needed:
            needed.update(_PRODUCER[a] for a in _STAGES[name].consumes)
    return [p for p in PIPELINE_ORDER if p in needed]


def run_scenario(
    source,
    pipelines: Optional[list[str]] = None,
    tolerances: Optional[dict[str, float]] = None,
    seed: int = 0,
) -> VerificationReport:
    """Execute a scenario's verification pipelines in declaration order.

    ``source`` is a path or a dict, or a loaded Scenario.  Raises nothing
    for check failures (they are recorded); scenario-level errors are
    recorded as failing checks; a stage whose inputs are missing, or a
    requested stage that the scenario does not declare and no selected
    stage needs, is recorded as skipped; a TheoremFalsification marks
    the whole report.
    ``tolerances`` override the scenario's own, and both pass its checks
    (run_tolerances) whatever the source.
    """
    scenario = (source if isinstance(source, Scenario)
                else load_scenario(source, tolerances))
    overrides = run_tolerances(scenario.tolerance_overrides, tolerances)
    unknown = sorted(set(scenario.pipelines).union(pipelines or ())
                     - set(PIPELINE_ORDER))
    if unknown:
        raise EngineError(f"unknown pipelines {unknown}")
    selected = scenario.pipelines if pipelines is None else [
        p for p in scenario.pipelines if p in pipelines
    ]
    runs = _with_producers(selected)
    # a requested stage that neither the scenario declares nor a
    # selected stage needs
    undeclared = set(pipelines or ()) - set(runs)

    report = VerificationReport(scenario=scenario.name, seed=seed)
    rng = Draws(seed)
    artefacts: dict = {}
    # stage -> why it produced nothing: it was skipped or failed
    unfinished: dict[str, str] = {}
    start = time.perf_counter()
    with tolerance_overrides(**overrides):
        report.tolerances = get_tolerances().as_dict()
        for name in PIPELINE_ORDER:
            if name in undeclared:
                report.add(CheckRecord(f"{name}.skipped", "pipeline.skipped",
                                       details={"reason": "not declared by the scenario"}))
            if name not in runs:
                continue
            stage = _STAGES[name]
            missing = [a for a in stage.consumes if a not in artefacts]
            if missing:
                producer = _PRODUCER[missing[0]]
                reason = (unfinished.get(producer)
                          or _STAGES[producer].produces[missing[0]])
                unfinished[name] = reason
                report.add(CheckRecord(f"{name}.skipped", "pipeline.skipped",
                                       details={"reason": reason,
                                                "missing": missing}))
                continue
            inputs = [artefacts[a] for a in stage.consumes]
            try:
                produced = _RUNNERS[name](scenario, report, rng, *inputs) or {}
            except TheoremFalsification as exc:
                report.falsified = True
                failed = report.add(
                    CheckRecord(f"{name}.falsification", "theorem.violated",
                                passed=False, failures=[str(exc)])
                )
            except EngineError as exc:
                failed = report.add(
                    CheckRecord(f"{name}.error", "pipeline.execution",
                                passed=False,
                                failures=[f"{type(exc).__name__}: {exc}"])
                )
            else:
                artefacts.update(produced)
                continue
            unfinished[name] = f"{name} failed (see {failed.check_id})"
    report.notes.append(
        "square-root anchor at the Ball origin fixed to 2^(-n/2); a unit "
        "anchor would contradict the squared identity"
    )
    report.notes.append(
        "overlap components are taken as contractible as declared by the "
        "scenario; contractibility itself is not verified"
    )
    if scenario.nerve.noncontractible:
        report.notes.append(
            "components declared non-contractible: "
            + ", ".join(str(c) for c in scenario.nerve.noncontractible)
        )
    report.wall_time = time.perf_counter() - start
    return report
