"""Verification pipelines over loaded scenarios.

Each pipeline turns one construction of the engine into check records:
structural validation, pairing-determinant spot checks, double-cover
lifting and counting its lift classes, inducing the compatible
metalinear cocycle, gluing the square-root datum and verifying its
uniqueness class, self-compatibility, the metaplectic recipe, the
D-adapted square-root datum, the cross-check between the two
constructions, and lift obstructions.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from . import cech, compatibility, induction
from .cech import Cocycle, Nerve, SamplePoint, SignCochain, gf2_solve
from .compatibility import PolarizationPairData
from .config import get_tolerances, tolerance_overrides
from .errors import EngineError, GluingError, TheoremFalsification
from .frames import LagFramePair, delta, validate_lagrangian
from .groups import MlElement
from .report import CheckRecord, VerificationReport
from .scenario import Scenario, load_scenario

PIPELINE_ORDER = [
    "validate",
    "frame_pairs",
    "lift",
    "induce",
    "delta_tilde",
    "self_compat",
    "recipe",
    "delta_D",
    "cross_check",
    "obstruction",
]

# ---------------------------------------------------------------------------
# sign patterns on overlap components
# ---------------------------------------------------------------------------

def _flip_ml_cocycle(c: Cocycle, comps, pattern) -> Cocycle:
    """Flip the z-sheet of an Ml cocycle on the flagged components."""
    flagged = {key for key, bit in zip(comps, pattern) if bit}

    def wrap(fn, flip):
        if not flip:
            return fn
        return lambda pt: MlElement(fn(pt).A, -fn(pt).z)

    transitions = {
        pair: tuple(
            wrap(fn, (pair, ci) in flagged) for ci, fn in enumerate(fns)
        )
        for pair, fns in c.transitions.items()
    }
    return Cocycle("Ml", c.n, c.k, transitions)


def _coboundary_base(nerve: Nerve, pattern) -> dict:
    """Chart signs whose coboundary is the given coboundary pattern, as
    base-value functions."""
    sol = gf2_solve(nerve.delta0, pattern)
    return {
        ch: (lambda pt, s=-1.0 if bit else 1.0: complex(s))
        for ch, bit in zip(nerve.charts, sol)
    }


# ---------------------------------------------------------------------------
# individual pipelines
# ---------------------------------------------------------------------------

def _pair_data(scenario: Scenario) -> PolarizationPairData:
    return PolarizationPairData(
        scenario.nerve,
        scenario.pair_cocycle,
        scenario.delta_samples,
        scenario.n,
        scenario.k,
    )


def _run_validate(scenario: Scenario, report, rng, ctx):
    report.add(CheckRecord("nerve.structure", "nerve.validity",
                           details={"charts": len(scenario.nerve.charts)}))
    for role, c in (
        ("pair", scenario.pair_cocycle),
        ("gl", scenario.gl_cocycle),
        ("mp", scenario.mp_cocycle),
    ):
        if c is None:
            continue
        res = cech.validate_cocycle(scenario.nerve, c)
        report.add(
            CheckRecord(
                f"cocycle.{role}",
                "cocycle.identity-at-triples",
                max_residual=float(res["max_residual"]),
                passed=res["ok"],
                failures=res["failures"],
            )
        )
    if scenario.pair_cocycle is not None and scenario.delta_samples is not None:
        res = compatibility.validate_pair_data(_pair_data(scenario))
        report.add(
            CheckRecord(
                "pair_data.consistency",
                "delta.transformation-law",
                max_residual=float(res["max_residual"]),
                passed=res["ok"],
                failures=res["failures"],
            )
        )


def _run_frame_pairs(scenario: Scenario, report, rng, ctx):
    origin = SamplePoint("origin", ())
    tols = get_tolerances()
    worst = 0.0
    failures = []
    for fp in scenario.frame_pairs:
        U1, V1 = fp["first"](origin)
        U2, V2 = fp["second"](origin)
        pair = LagFramePair(
            validate_lagrangian(U1, V1), validate_lagrangian(U2, V2), fp["k"]
        )
        val = delta(pair)
        r = abs(val - fp["expected_delta"]) / max(1.0, abs(fp["expected_delta"]))
        worst = max(worst, r)
        if r > 1e3 * tols.rel:
            failures.append((fp["name"], val))
    report.add(
        CheckRecord(
            "frame_pairs.delta-values",
            "delta.pairing-determinant",
            max_residual=worst,
            passed=not failures,
            failures=failures,
            details={"pairs": len(scenario.frame_pairs)},
        )
    )


def _run_lift(scenario: Scenario, report, rng, ctx):
    if scenario.gl_cocycle is not None:
        base = scenario.gl_cocycle
    else:
        base = cech.push_cocycle(scenario.pair_cocycle, "pair_first")
    lifted = cech.lift_double_cover(scenario.nerve, base)
    if isinstance(lifted, SignCochain):
        report.add(
            CheckRecord(
                "lift.double-cover",
                "cocycle.sqrt-lift",
                passed=False,
                failures=[("obstructed", sorted(
                    k for k, v in lifted.values.items() if v == -1))],
            )
        )
        return
    ctx["base_lift"] = lifted
    res = cech.validate_cocycle(scenario.nerve, lifted)
    report.add(
        CheckRecord(
            "lift.double-cover",
            "cocycle.sqrt-lift",
            max_residual=float(res["max_residual"]),
            passed=res["ok"],
            failures=res["failures"],
        )
    )
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
    ctx["lift_classes"] = lc


def _run_induce(scenario: Scenario, report, rng, ctx):
    data = _pair_data(scenario)
    norm = compatibility.normalize_sections(data)
    z1 = ctx.get("base_lift")
    if z1 is None:
        base = cech.push_cocycle(scenario.pair_cocycle, "pair_first")
        z1 = cech.lift_double_cover(scenario.nerve, base)
        if isinstance(z1, SignCochain):
            report.add(CheckRecord("induce.compatible", "induce.formula",
                                   passed=False,
                                   failures=[("first member not liftable",)]))
            return
    z2 = compatibility.induce_compatible(norm, z1)
    res = cech.validate_cocycle(scenario.nerve, z2)
    report.add(
        CheckRecord(
            "induce.compatible",
            "induce.formula",
            max_residual=float(res["max_residual"]),
            passed=res["ok"],
            failures=res["failures"],
        )
    )
    ctx["norm"] = norm
    ctx["z1"] = z1
    ctx["z2"] = z2


def _run_delta_tilde(scenario: Scenario, report, rng, ctx):
    norm, z1, z2 = ctx["norm"], ctx["z1"], ctx["z2"]
    tols = get_tolerances()
    dt = compatibility.build_delta_tilde(norm, z1, z2, rng)
    glue = max(dt.residuals.values()) if dt.residuals else 0.0
    report.add(
        CheckRecord(
            "delta_tilde.glue",
            "sqrt-datum.gluing",
            max_residual=float(glue),
            passed=glue <= 1e3 * tols.rel,
            details={
                "square_identity": dt.checks.get("square_identity", 0.0),
                "translation_law": dt.checks.get("translation_law", 0.0),
            },
        )
    )
    lc = ctx.get("lift_classes")
    if lc is None:
        return
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
    comps = scenario.nerve.component_list()
    if lc.witness_equiv is not None:
        flipped = _flip_ml_cocycle(z2, comps, lc.witness_equiv)
        base = _coboundary_base(scenario.nerve, lc.witness_equiv)
        dt2 = compatibility.build_delta_tilde(norm, z1, flipped, rng,
                                              base_values=base)
        glue2 = max(dt2.residuals.values()) if dt2.residuals else 0.0
        witness = compatibility.verify_uniqueness(
            norm, z1, z2, flipped, None, base_a=None, base_b=base
        )
        report.add(
            CheckRecord(
                "delta_tilde.equivalent-glues",
                "sqrt-datum.coboundary-freedom",
                max_residual=float(glue2),
                passed=glue2 <= 1e3 * tols.rel and witness is not None,
                details={"witness": witness},
            )
        )
    if lc.witness_inequiv is not None:
        flipped = _flip_ml_cocycle(z2, comps, lc.witness_inequiv)
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
                    max_residual=float(max(exc.residuals.values())),
                    passed=True,
                    details={"rejected_points": len(exc.residuals)},
                )
            )


def _run_self_compat(scenario: Scenario, report, rng, ctx):
    for case in scenario.self_compat_cases:
        data = PolarizationPairData(
            scenario.nerve, case["pair_cocycle"], case["delta_samples"],
            scenario.n, scenario.k,
        )
        base = cech.push_cocycle(case["pair_cocycle"], "pair_first")
        z1 = cech.lift_double_cover(scenario.nerve, base)
        name = case["name"]
        if isinstance(z1, SignCochain):
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


def _shared(ctx: dict, key: str, build):
    """A value built once per run and shared by every stage that uses it."""
    if key not in ctx:
        ctx[key] = build()
    return ctx[key]


def _mp_data(scenario: Scenario, ctx) -> induction.MetaplecticBundleData:
    return _shared(ctx, "mp_data", lambda: induction.MetaplecticBundleData(
        scenario.nerve, scenario.mp_cocycle, scenario.d_adapted, scenario.k
    ))


def _sections(ctx, key: str, sections) -> induction.FrameSectionData:
    """One FrameSectionData per section family and run, so the stages
    share its recipe transport."""
    return _shared(ctx, key, lambda: induction.FrameSectionData(sections))


def _projection_bound(tols) -> float:
    """Bound of recipe.projection: a tenth of rel (1e-10 by default)."""
    return tols.rel / 10


def _run_recipe(scenario: Scenario, report, rng, ctx):
    data = _mp_data(scenario, ctx)
    sections = _sections(ctx, "sections_first", scenario.sections_first)
    r = induction.recipe(data, sections)
    residual = max(r.residuals["projection_match"], r.residuals["ball_match"])
    report.add(
        CheckRecord(
            "recipe.projection",
            "recipe.metalinear-transitions",
            max_residual=float(residual),
            passed=residual < _projection_bound(get_tolerances()),
            details=dict(r.residuals),
        )
    )
    # a different sheet choice on one chart changes the result only by a
    # coboundary of chart signs
    flip_chart = scenario.nerve.charts[0]
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


def _run_delta_D(scenario: Scenario, report, rng, ctx):
    data = _mp_data(scenario, ctx)
    dt = induction.build_delta_D_tilde(data, scenario.pair_sections, rng)
    glue = max(dt.residuals.values()) if dt.residuals else 0.0
    tols = get_tolerances()
    report.add(
        CheckRecord(
            "delta_D.glue",
            "sqrt-datum.block-form-gluing",
            max_residual=float(glue),
            passed=glue <= 1e3 * tols.rel,
            details={
                "square_identity": dt.checks.get("square_identity", 0.0),
                "translation_law": dt.checks.get("translation_law", 0.0),
            },
        )
    )


def _run_cross_check(scenario: Scenario, report, rng, ctx):
    out = induction.cross_check(
        _mp_data(scenario, ctx),
        _sections(ctx, "sections_first", scenario.sections_first),
        _sections(ctx, "sections_second", scenario.sections_second),
        rng,
    )
    tols = get_tolerances()
    worst = max(out["glue_residual"], out["restriction_residual"])
    report.add(
        CheckRecord(
            "cross_check.agreement",
            "cross-check.global-sign",
            max_residual=float(worst),
            passed=worst <= 1e3 * tols.rel,
            details={
                "global_sign": out["global_sign"],
                "witness": out["witness"],
                "glue_residual": out["glue_residual"],
                "restriction_residual": out["restriction_residual"],
            },
        )
    )


def _run_obstruction(scenario: Scenario, report, rng, ctx):
    if scenario.gl_cocycle is not None:
        lifted = cech.lift_double_cover(scenario.nerve, scenario.gl_cocycle)
        expected = scenario.expectations.get("obstructed", False)
        obstructed = isinstance(lifted, SignCochain)
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
            record.details["defect_signs"] = sorted(
                str(k) for k, v in lifted.values.items() if v == -1
            )
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


_RUNNERS = {
    "validate": _run_validate,
    "frame_pairs": _run_frame_pairs,
    "lift": _run_lift,
    "induce": _run_induce,
    "delta_tilde": _run_delta_tilde,
    "self_compat": _run_self_compat,
    "recipe": _run_recipe,
    "delta_D": _run_delta_D,
    "cross_check": _run_cross_check,
    "obstruction": _run_obstruction,
}

_PIPELINE_DEPS = {
    "induce": ["validate"],
    "delta_tilde": ["induce", "lift"],
    "cross_check": ["validate"],
}


def run_scenario(
    source,
    pipelines: Optional[list[str]] = None,
    tolerances: Optional[dict[str, float]] = None,
    seed: int = 0,
) -> VerificationReport:
    """Execute a scenario's verification pipelines in dependency order.

    ``source`` is a path, JSON text, or dict.  Raises nothing for check
    failures (they are recorded); scenario-level errors are recorded as
    failing checks; a TheoremFalsification marks the whole report.
    """
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    unknown = sorted(set(scenario.pipelines).union(pipelines or ())
                     - set(PIPELINE_ORDER))
    if unknown:
        raise EngineError(f"unknown pipelines {unknown}")
    selected = scenario.pipelines if pipelines is None else [
        p for p in scenario.pipelines if p in pipelines
    ]
    # implied dependencies (transitively), then canonical order
    needed: set[str] = set()
    stack = list(selected)
    while stack:
        p = stack.pop()
        if p not in needed:
            needed.add(p)
            stack.extend(_PIPELINE_DEPS.get(p, []))
    ordered = [p for p in PIPELINE_ORDER if p in needed]

    overrides = dict(scenario.tolerance_overrides)
    overrides.update(tolerances or {})
    report = VerificationReport(scenario=scenario.name, seed=seed)
    rng = np.random.default_rng(seed)
    ctx: dict = {}
    start = time.perf_counter()
    with tolerance_overrides(**overrides):
        report.tolerances = {
            "rel": get_tolerances().rel,
            "abs": get_tolerances().abs,
            "singular": get_tolerances().singular,
            "track": get_tolerances().track,
        }
        for name in ordered:
            try:
                _RUNNERS[name](scenario, report, rng, ctx)
            except TheoremFalsification as exc:
                report.falsified = True
                report.add(
                    CheckRecord(f"{name}.falsification", "theorem.violated",
                                passed=False, failures=[str(exc)])
                )
            except EngineError as exc:
                report.add(
                    CheckRecord(f"{name}.error", "pipeline.execution",
                                passed=False,
                                failures=[f"{type(exc).__name__}: {exc}"])
                )
    report.notes.append(
        "square-root anchor at the Ball origin fixed to 2^(-n/2); a unit "
        "anchor would contradict the squared identity"
    )
    report.notes.append(
        "overlap components are taken as contractible as declared by the "
        "scenario; contractibility itself is not verified"
    )
    if scenario.noncontractible_components:
        report.notes.append(
            "components declared non-contractible: "
            + ", ".join(str(c) for c in scenario.noncontractible_components)
        )
    report.wall_time = time.perf_counter() - start
    return report
