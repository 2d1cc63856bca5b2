"""Verification pipelines over loaded scenarios.

Each pipeline turns one construction of the engine into check records:
structural validation, pairing-determinant spot checks, double-cover
lifting and counting its lift classes, inducing the compatible
metalinear cocycle, gluing the square-root datum and verifying its
uniqueness class, self-compatibility, the metaplectic recipe, the
D-adapted square-root datum, the cross-check between the two
constructions, and lift obstructions.

A stage declares the named artefacts it consumes and produces:

    pair.cocycle      the pair cocycle, checked as cocycle.pair
    gl.cocycle        the Gl cocycle, checked as cocycle.gl
    pair.data         the pair cocycle with its delta samples
    mp.bundle         the metaplectic bundle, its cocycle checked as cocycle.mp
    sections.first    the first frame-section family
    sections.second   the second frame-section family
    sections.pair     the meta pair sections of the block-form datum
    pair_first.lift   the metalinear lift of the pair's first member
    lift_classes      the lift classes of the nerve
    pair.normalized   the pair data normalized to delta = 1
    induced           the compatible metalinear cocycle of the second member

A stage may also take an artefact as an optional input, which it gets
as None when its producer finished without it.  From these
declarations alone, run_scenario pulls in the stages that produce a
selected stage's inputs, optional ones included, and records a stage
whose inputs are missing as ``<stage>.skipped`` (anchor
``pipeline.skipped``) with the reason and the missing artefacts; an
optional input is missing only when its producer was skipped or failed.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from . import cech, compatibility, induction
from .cech import Nerve, gf2_solve
from .compatibility import PolarizationPairData
from .config import (
    check_bound,
    get_tolerances,
    projection_bound,
    tolerance_overrides,
)
from .errors import EngineError, GluingError, TheoremFalsification
from .frames import check_frame_pairs, delta, validate_lagrangian
from .groups import worst
from .report import CheckRecord, VerificationReport
from .sampling import Draws
from .scenario import Scenario, load_scenario

# ---------------------------------------------------------------------------
# stage declarations
# ---------------------------------------------------------------------------


class Stage:
    """The artefacts a stage consumes and produces.

    Its runner is called as run(scenario, report, rng, *inputs), with
    the consumed and then the optional artefacts in declared order, and
    returns a dict of the artefacts it produced.  ``produces`` maps each
    to the reason a finished run of the stage leaves it out, or None if
    it never does.
    """

    def __init__(self, consumes: tuple[str, ...], produces: dict[str, Optional[str]],
                 optional: tuple[str, ...]):
        self.consumes = consumes
        self.produces = produces
        self.optional = optional

    @property
    def inputs(self) -> tuple[str, ...]:
        return self.consumes + self.optional


_STAGES: dict[str, Stage] = {}
_RUNNERS: dict[str, Callable] = {}


def _stage(name: str, consumes=(), produces=None, optional=()):
    """Declare a stage; stages run in declaration order."""
    def register(run):
        _STAGES[name] = Stage(tuple(consumes), produces or {}, tuple(optional))
        _RUNNERS[name] = run
        return run
    return register


# ---------------------------------------------------------------------------
# sign patterns on overlap components
# ---------------------------------------------------------------------------

def _coboundary_base(nerve: Nerve, pattern) -> np.ndarray:
    """Chart signs whose coboundary is the given coboundary pattern, as
    base values at every chart row."""
    flips = gf2_solve(nerve.delta0, pattern).astype(bool)[nerve.chart]
    return np.where(flips, -1.0, 1.0).astype(complex)


def _defects(nerve: Nerve, bits: np.ndarray) -> list:
    """The (triple key, point id) of the triple points where a degree-2
    sign cochain is -1, sorted."""
    return sorted(tp for tp, bit in zip(nerve.triples, bits.tolist()) if bit)


def _verdict(check_id: str, anchor: str, res: dict) -> CheckRecord:
    """The record of a validation result (ok, max_residual, failures)."""
    return CheckRecord(check_id, anchor, max_residual=float(res["max_residual"]),
                       passed=res["ok"], failures=res["failures"])


def _glue_record(check_id: str, anchor: str, dt) -> CheckRecord:
    """The record of a glued square-root datum: its worst gluing residual
    against the check bound, with its property-check residuals."""
    glue = worst(dt.residuals)
    return CheckRecord(check_id, anchor, max_residual=glue,
                       passed=glue <= check_bound(get_tolerances()),
                       details={key: dt.checks.get(key, 0.0) for key in
                                ("square_identity", "translation_law")})


# ---------------------------------------------------------------------------
# individual pipelines
# ---------------------------------------------------------------------------

@_stage("validate", produces={
    "pair.cocycle": "no pair cocycle",
    "gl.cocycle": "no gl cocycle",
    "pair.data": "no pair cocycle with delta samples",
    "mp.bundle": "no metaplectic data",
    "sections.first": "no first section family",
    "sections.second": "no second section family",
    "sections.pair": "no pair sections",
})
def _run_validate(scenario: Scenario, report, rng):
    report.add(CheckRecord("nerve.structure", "nerve.validity",
                           details={"charts": len(scenario.nerve.charts)}))
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
    out = {}
    if scenario.pair_cocycle is not None:
        out["pair.cocycle"] = scenario.pair_cocycle
    if scenario.gl_cocycle is not None:
        out["gl.cocycle"] = scenario.gl_cocycle
    if scenario.pair_cocycle is not None and scenario.delta_samples is not None:
        data = PolarizationPairData(scenario.nerve, scenario.pair_cocycle,
                                    scenario.delta_samples)
        # the consistency of pair data includes its cocycle's check
        res, base = compatibility.validate_pair_data(data), checked["pair"]
        failures = res["failures"] + base["failures"]
        report.add(_verdict("pair_data.consistency", "delta.transformation-law", {
            "ok": not failures, "failures": failures,
            "max_residual": worst(res["max_residual"], base["max_residual"])}))
        out["pair.data"] = data
    # one bundle for the whole run: each section family caches its
    # recipe transport per bundle
    if scenario.mp_cocycle is not None:
        out["mp.bundle"] = induction.MetaplecticBundleData(
            scenario.nerve, scenario.mp_cocycle, scenario.d_adapted)
    for key, sections in (("sections.first", scenario.sections_first),
                          ("sections.second", scenario.sections_second),
                          ("sections.pair", scenario.pair_sections)):
        if sections is not None:
            out[key] = sections
    return out


@_stage("frame_pairs")
def _run_frame_pairs(scenario: Scenario, report, rng):
    tols = get_tolerances()
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
        if r > check_bound(tols):
            failures.append((fp["name"], val))
    report.add(
        CheckRecord(
            "frame_pairs.delta-values",
            "delta.pairing-determinant",
            max_residual=worst(residuals),
            passed=not failures,
            failures=failures,
            details={"pairs": len(scenario.frame_pairs)},
        )
    )


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
    lc = cech.lift_classes(scenario.nerve.delta1, scenario.nerve.delta0)
    expected = scenario.expectations.get("lift_classes")
    ok = expected is None or lc.classes == expected
    report.add(
        CheckRecord(
            "lift.class-count",
            "cocycle.lift-enumeration",
            passed=ok,
            failures=[] if ok else [("classes", lc.classes, "expected", expected)],
            details={
                "valid_lifts": lc.valid,
                "coboundaries": lc.coboundaries,
                "classes": lc.classes,
            },
        )
    )
    return {"pair_first.lift": lifted, "lift_classes": lc}


@_stage("induce", consumes=("pair.data", "pair_first.lift"),
        produces=dict.fromkeys(("pair.normalized", "induced")))
def _run_induce(scenario: Scenario, report, rng, data, z1):
    norm = compatibility.normalize_sections(data)
    z2, res = compatibility.induce_compatible(norm, z1)
    report.add(_verdict("induce.compatible", "induce.formula", res))
    return {"pair.normalized": norm, "induced": z2}


@_stage("delta_tilde",
        consumes=("pair.normalized", "pair_first.lift", "induced",
                  "lift_classes"))
def _run_delta_tilde(scenario: Scenario, report, rng, norm, z1, z2, lc):
    dt = compatibility.build_delta_tilde(norm, z1, z2, rng)
    report.add(_glue_record("delta_tilde.glue", "sqrt-datum.gluing", dt))
    # Exactly the valid sheet patterns equivalent to the induced lift,
    # the coboundaries, may admit chart-sign base values that glue.
    ok = lc.gluing == lc.coboundaries
    report.add(
        CheckRecord(
            "delta_tilde.unique-class",
            "sqrt-datum.uniqueness-enumeration",
            passed=ok,
            failures=[] if ok else [("gluing_patterns", lc.gluing,
                                     "expected", lc.coboundaries)],
            details={"gluing_patterns": lc.gluing, "total_valid": lc.valid},
        )
    )
    # concrete confirmations on representatives
    if lc.witness_equiv is not None:
        flipped = cech.flip_sheets(scenario.nerve, z2, lc.witness_equiv)
        dt2 = compatibility.build_delta_tilde(
            norm, z1, flipped, rng,
            base_values=_coboundary_base(scenario.nerve, lc.witness_equiv))
        glue2 = worst(dt2.residuals)
        witness = compatibility.verify_uniqueness(scenario.nerve, z2, flipped)
        report.add(
            CheckRecord(
                "delta_tilde.equivalent-glues",
                "sqrt-datum.coboundary-freedom",
                max_residual=glue2,
                passed=(glue2 <= check_bound(get_tolerances())
                        and witness is not None),
                details={"witness": witness},
            )
        )
    if lc.witness_inequiv is not None:
        flipped = cech.flip_sheets(scenario.nerve, z2, lc.witness_inequiv)
        try:
            compatibility.build_delta_tilde(norm, z1, flipped, None)
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
    for case in scenario.self_compat_cases:
        data = PolarizationPairData(scenario.nerve, case["pair_cocycle"],
                                    case["delta_samples"])
        base = cech.push_cocycle(case["pair_cocycle"])
        z1 = cech.lift_double_cover(scenario.nerve, base)
        name = case["name"]
        if isinstance(z1, np.ndarray):
            report.add(CheckRecord(f"self_compat.{name}", "self-compat.epsilon",
                                   passed=False,
                                   failures=[("not liftable",)]))
            continue
        dt, dt_norm = compatibility.self_compat(data, z1, rng)
        expected_eps = scenario.expectations.get("self_compat_eps", {}).get(name)
        ok = expected_eps is None or dt.epsilon == expected_eps
        report.add(
            CheckRecord(
                f"self_compat.{name}",
                "self-compat.epsilon",
                max_residual=float(dt.checks.get("square_identity", 0.0)),
                passed=ok,
                failures=[] if ok else [("epsilon", dt.epsilon,
                                         "expected", expected_eps)],
                details={
                    "epsilon": dt.epsilon,
                    "translation_law": dt.checks.get("translation_law", 0.0),
                    "normalized_min_real":
                        dt_norm.checks.get("positivity_min_real", 1.0),
                },
            )
        )


@_stage("recipe", consumes=("mp.bundle", "sections.first"))
def _run_recipe(scenario: Scenario, report, rng, data, sections):
    r = induction.recipe(data, sections)
    residual = worst(r.residuals["projection_match"], r.residuals["ball_match"])
    report.add(
        CheckRecord(
            "recipe.projection",
            "recipe.metalinear-transitions",
            max_residual=residual,
            passed=residual <= projection_bound(get_tolerances()),
            details=dict(r.residuals),
        )
    )
    # a different sheet choice on one chart changes the result only by a
    # coboundary of chart signs
    flip_chart = next(iter(scenario.nerve.charts))
    r2 = induction.recipe(data, sections, sheet_flips={flip_chart: -1})
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
    dt = induction.build_delta_D_tilde(data, pair_sections, rng)
    report.add(_glue_record("delta_D.glue", "sqrt-datum.block-form-gluing", dt))


@_stage("cross_check",
        consumes=("mp.bundle", "sections.first", "sections.second"))
def _run_cross_check(scenario: Scenario, report, rng, data, first, second):
    out = induction.cross_check(data, first, second, rng)
    residual = worst(out["glue_residual"], out["restriction_residual"])
    report.add(
        CheckRecord(
            "cross_check.agreement",
            "cross-check.global-sign",
            max_residual=residual,
            passed=residual <= check_bound(get_tolerances()),
            details={
                "global_sign": out["global_sign"],
                "witness": out["witness"],
                "glue_residual": out["glue_residual"],
                "restriction_residual": out["restriction_residual"],
            },
        )
    )


@_stage("obstruction", optional=("gl.cocycle",))
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
            sol = cech.z2_coboundary_solve(scenario.nerve, lifted)
            record.details["defect_feasible"] = sol is not None
            record.passed = record.passed and sol is None
            defects = _defects(scenario.nerve, lifted)
            record.details["defect_signs"] = sorted(map(str, defects))
        report.add(record)
    expected_map = scenario.expectations.get("sign_cochains", {})
    for name, cochain in sorted(scenario.sign_cochains.items()):
        sol = cech.z2_coboundary_solve(scenario.nerve, cochain)
        verdict = "feasible" if sol is not None else "infeasible"
        expected = expected_map.get(name)
        ok = expected is None or verdict == expected
        report.add(
            CheckRecord(
                f"obstruction.cochain.{name}",
                "cohomology.gf2-feasibility",
                passed=ok,
                failures=[] if ok else [(verdict, "expected", expected)],
                details={"verdict": verdict},
            )
        )


def _producers() -> dict[str, str]:
    """Each artefact's producing stage.  A stage may consume only what an
    earlier stage produces, so declaration order is a run order."""
    producer: dict[str, str] = {}
    for name, stage in _STAGES.items():
        unmet = [a for a in stage.inputs if a not in producer]
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
            needed.update(_PRODUCER[a] for a in _STAGES[name].inputs)
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
    recorded as failing checks; a stage whose inputs are missing is
    recorded as skipped; a TheoremFalsification marks the whole report.
    """
    scenario = (source if isinstance(source, Scenario)
                else load_scenario(source, tolerances))
    unknown = sorted(set(scenario.pipelines).union(pipelines or ())
                     - set(PIPELINE_ORDER))
    if unknown:
        raise EngineError(f"unknown pipelines {unknown}")
    selected = scenario.pipelines if pipelines is None else [
        p for p in scenario.pipelines if p in pipelines
    ]

    overrides = dict(scenario.tolerance_overrides)
    overrides.update(tolerances or {})
    report = VerificationReport(scenario=scenario.name, seed=seed)
    rng = Draws(seed)
    artefacts: dict = {}
    # stage -> why it produced nothing: it was skipped or failed
    unfinished: dict[str, str] = {}
    start = time.perf_counter()
    with tolerance_overrides(**overrides):
        report.tolerances = get_tolerances().as_dict()
        for name in _with_producers(selected):
            stage = _STAGES[name]
            missing = [a for a in stage.consumes if a not in artefacts]
            missing += [a for a in stage.optional
                        if a not in artefacts and _PRODUCER[a] in unfinished]
            if missing:
                producer = _PRODUCER[missing[0]]
                reason = (unfinished.get(producer)
                          or _STAGES[producer].produces[missing[0]])
                unfinished[name] = reason
                report.add(CheckRecord(f"{name}.skipped", "pipeline.skipped",
                                       details={"reason": reason,
                                                "missing": missing}))
                continue
            inputs = [artefacts.get(a) for a in stage.inputs]
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
