import ast
import copy
import functools
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfe
from hfe.cech import Cocycle, lift_double_cover, z2_coboundary_solve
from hfe.config import projection_bound, tolerance_overrides
from hfe.errors import SchemaViolation
from hfe.pipelines import run_scenario
from hfe.report import emit_report
from hfe.scenario import (
    SCENARIO_SCHEMA,
    builtin_scenario_names,
    builtin_scenario_path,
    load_scenario,
)
from hfe.schema import _TYPES, CHECKED_KEYWORDS, _violation

_JSONSCHEMA = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)

EXPECTED_CORPUS = [
    "abstract_k1_nonorientable",
    "circle_mobius",
    "sphere_octa",
    "torus_grid",
    "trivial_r2",
]


def test_corpus_names():
    assert builtin_scenario_names() == EXPECTED_CORPUS


def test_all_corpus_scenarios_pass(corpus_reports):
    for name, report in corpus_reports.items():
        failing = [c.check_id for c in report.checks if not c.passed]
        assert report.passed, f"{name}: failing checks {failing}"
        assert not report.falsified


def _check(report, check_id):
    for c in report.checks:
        if c.check_id == check_id:
            return c
    raise AssertionError(f"missing check {check_id}")


def test_circle_scenario_details(corpus_reports):
    report = corpus_reports["circle_mobius"]
    assert _check(report, "lift.class-count").details["classes"] == 2
    assert _check(report, "delta_tilde.glue").max_residual < 1e-9
    assert _check(report, "recipe.projection").max_residual < 1e-10


def test_recipe_projection_bound_follows_rel():
    # the projection residual is ~1e-16 (on circle_mobius, n = 1, the
    # closed forms make it 0); its bound is a tenth of rel
    path = builtin_scenario_path("abstract_k1_nonorientable")
    for rel, passed in ((1e-14, True), (1e-15, False)):
        report = run_scenario(path, pipelines=["recipe"],
                              tolerances={"rel": rel})
        proj = _check(report, "recipe.projection")
        assert proj.max_residual > 1e-17
        assert proj.passed is passed
        assert _check(report, "recipe.sheet-coboundary").passed


def test_recipe_projection_bound_is_inclusive():
    # a residual exactly at its bound passes, as at every other check
    path = builtin_scenario_path("abstract_k1_nonorientable")
    r = _check(run_scenario(path, pipelines=["recipe"]), "recipe.projection").max_residual
    rel = 10 * r
    with tolerance_overrides(rel=rel) as tols:
        assert projection_bound(tols) == r
    proj = _check(run_scenario(path, pipelines=["recipe"], tolerances={"rel": rel}),
                  "recipe.projection")
    assert proj.max_residual == r
    assert proj.passed


_ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def test_a_residual_meets_its_bound_only_in_the_bounded_record():
    # pipelines._bounded is the one record that compares a residual
    # with its bound; every other CheckRecord call takes its pass flag
    # from elsewhere (an expectation, a kernel result, a fixed verdict)
    tree = ast.parse((Path(hfe.__file__).parent / "pipelines.py").read_text())
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "_bounded"
              for node in ast.walk(fn)}
    ordered = {}
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "CheckRecord"):
            continue
        for kw in call.keywords:
            if kw.arg == "passed" and any(
                    isinstance(node, ast.Compare)
                    and any(isinstance(op, _ORDERINGS) for op in node.ops)
                    for node in ast.walk(kw.value)):
                ordered[call.lineno] = id(call) in inside
    assert [line for line, home in ordered.items() if not home] == []
    assert list(ordered.values()) == [True]


def test_torus_enumeration_details(corpus_reports):
    details = _check(corpus_reports["torus_grid"], "lift.class-count").details
    assert details == {"valid_lifts": 32, "coboundaries": 8, "classes": 4}


def test_sphere_obstruction_details(corpus_reports):
    report = corpus_reports["sphere_octa"]
    lift = _check(report, "obstruction.lift")
    assert lift.details["obstructed"] is True
    scenario = load_scenario(builtin_scenario_path("sphere_octa"))
    nerve = scenario.nerve
    assert z2_coboundary_solve(nerve, lift_double_cover(nerve, scenario.gl_cocycle)) is None
    fc = _check(report, "obstruction.cochain.fundamental_class")
    assert fc.details["verdict"] == "infeasible"
    tv = _check(report, "obstruction.cochain.trivial")
    assert tv.details["verdict"] == "feasible"


def _runs_delta_tilde_with_overlaps(source) -> bool:
    doc = json.loads(source.read_text())
    return "delta_tilde" in doc["pipelines"] and bool(doc["nerve"].get("overlaps"))


# trivial_r2 has one chart and no component to flip
_GLUED_SOURCES = [source for source in (
    *map(builtin_scenario_path, builtin_scenario_names()),
    *sorted((Path(__file__).parent / "golden" / "scenarios").glob("*.json")))
    if _runs_delta_tilde_with_overlaps(source)]


@pytest.mark.parametrize("source", _GLUED_SOURCES, ids=lambda source: source.stem)
def test_the_equivalent_glues_witness_flips_some_component(source):
    # the stage reglues the lift flipped by the coboundary of its witness
    # without checking that flip: a zero coboundary would reglue the lift
    # that delta_tilde.glue already glued
    scenario = load_scenario(source)
    record = _check(run_scenario(scenario), "delta_tilde.equivalent-glues")
    assert record.passed
    witness = record.details["witness"]
    bits = np.array([witness[ch] == -1 for ch in scenario.nerve.charts], dtype=int)
    a, b = scenario.nerve.joins.T
    assert np.any(bits[a] ^ bits[b])


def test_self_compat_expectations(corpus_reports):
    report = corpus_reports["trivial_r2"]
    assert _check(report, "self_compat.eps0").details["epsilon"] == 0
    assert _check(report, "self_compat.eps1").details["epsilon"] == 1


def test_anchor_note_emitted(corpus_reports):
    for report in corpus_reports.values():
        assert any("2^(-n/2)" in note for note in report.notes)


def test_scenario_loader_rejects_schema_violation():
    doc = {"name": "bad", "n": 1, "k": 0, "pipelines": []}  # no nerve
    with pytest.raises(SchemaViolation, match="'nerve' is a required property"):
        load_scenario(doc)


def test_pipeline_selection_runs_dependencies_transitively():
    # delta_tilde needs induce (which needs validate) and the lift
    # enumeration; selecting it alone must not drop their checks
    report = run_scenario(builtin_scenario_path("torus_grid"),
                          pipelines=["delta_tilde"])
    ids = {c.check_id for c in report.checks}
    assert {"nerve.structure", "cocycle.pair", "pair_data.consistency"} <= ids
    assert {"lift.double-cover", "lift.class-count"} <= ids
    assert {"delta_tilde.unique-class", "delta_tilde.equivalent-glues",
            "delta_tilde.inequivalent-fails"} <= ids
    assert report.passed


def test_scenario_schema_is_a_valid_draft_2020_12_schema():
    # jsonschema, the reference the checker is tested against, checks
    # documents against it
    jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)


def _nested_violation() -> dict:
    doc = json.loads(builtin_scenario_path("circle_mobius").read_text())
    doc["nerve"]["overlaps"][0]["components"][0]["points"][0]["params"] = "x"
    return doc


@pytest.mark.parametrize("doc", [
    {"name": "bad", "n": 1, "k": 0, "pipelines": []},
    {"name": "bad", "n": "two", "k": 0, "pipelines": []},
    _nested_violation(),
])
def test_schema_violation_matches_jsonschema_validate(doc):
    expected = jsonschema.exceptions.best_match(_JSONSCHEMA.iter_errors(doc))
    with pytest.raises(SchemaViolation) as got:
        load_scenario(doc)
    assert got.value.path == tuple(expected.absolute_path)
    assert got.value.message == expected.message


def test_json_report_deterministic():
    path = builtin_scenario_path("trivial_r2")
    r1 = run_scenario(str(path), seed=7)
    r2 = run_scenario(str(path), seed=7)
    r1.wall_time = r2.wall_time = 0.0
    j1, j2 = emit_report(r1, "json"), emit_report(r2, "json")
    assert j1 == j2
    json.loads(j1)  # valid JSON


def test_pipeline_filter_pulls_dependencies():
    path = builtin_scenario_path("trivial_r2")
    report = run_scenario(str(path), pipelines=["delta_tilde"])
    ids = {c.check_id for c in report.checks}
    assert "delta_tilde.glue" in ids
    assert "induce.compatible" in ids  # implied dependency
    assert "frame_pairs.delta-values" not in ids


def _ring_doc(n_charts: int, twisted: set[int]) -> dict:
    """Chart i overlaps chart i+1 (mod n_charts) in one component with one
    sample point, n=1, and no triple points: every one of the 2^c sign
    patterns is a valid lift and H^1 has two classes."""
    charts = [f"c{i:02d}" for i in range(n_charts)]
    overlaps, transitions = [], []
    for j in range(n_charts):
        pair = sorted((charts[j], charts[(j + 1) % n_charts]))
        overlaps.append({"pair": pair,
                         "components": [{"points": [{"id": f"o{j:02d}",
                                                     "params": [0.0]}]}]})
        g = [[-1.0 if j in twisted else 1.0]]
        transitions.append({"pair": pair, "component": 0,
                            "generator": {"name": "pair_const",
                                          "params": {"first": g, "second": g}}})
    delta = {"name": "linear_scalar", "params": {"const": 2.0, "slope": 0.25}}
    return {
        "name": f"ring_{n_charts}",
        "n": 1,
        "k": 0,
        "nerve": {"charts": charts, "overlaps": overlaps},
        "pair_cocycle": {"group": "Glkd", "transitions": transitions},
        "delta_samples": {ch: delta for ch in charts},
        "pipelines": ["validate", "lift", "induce", "delta_tilde"],
        "expectations": {"lift_classes": 2},
    }


@pytest.mark.parametrize("n_charts", [24, 1024])
def test_lift_classes_counted_on_a_ring(n_charts):
    # 2^n_charts sign patterns: counted from GF(2) bases, not enumerated
    report = run_scenario(_ring_doc(n_charts, {0, 5, 11, 17}))
    assert report.passed, [c.check_id for c in report.checks if not c.passed]
    count = _check(report, "lift.class-count")
    assert count.details == {"valid_lifts": 2 ** n_charts,
                             "coboundaries": 2 ** (n_charts - 1), "classes": 2}
    unique = _check(report, "delta_tilde.unique-class")
    assert unique.details == {"gluing_patterns": 2 ** (n_charts - 1),
                              "total_valid": 2 ** n_charts}
    ids = {c.check_id for c in report.checks}
    assert {"delta_tilde.equivalent-glues",
            "delta_tilde.inequivalent-fails"} <= ids


def test_induce_uses_the_lift_of_the_first_member():
    # a gl_cocycle that is not the pair's first member (identity on the
    # twisted component) must not be taken as the first member's lift
    doc = json.loads(builtin_scenario_path("circle_mobius").read_text())
    doc["gl_cocycle"] = {"group": "Gl", "transitions": [
        {"pair": ["0", "1"], "component": ci,
         "generator": {"name": "const", "params": {"value": [[1]]}}}
        for ci in (0, 1)
    ]}
    report = run_scenario(doc, pipelines=["lift", "induce"])
    assert _check(report, "cocycle.gl").passed
    assert _check(report, "induce.compatible").passed
    assert report.passed, [c.check_id for c in report.checks if not c.passed]


def test_skipped_stage_reports_its_missing_inputs():
    doc = json.loads(builtin_scenario_path("trivial_r2").read_text())
    doc["pipelines"] = ["cross_check"]
    report = run_scenario(doc)
    skipped = _check(report, "cross_check.skipped")
    assert skipped.anchor == "pipeline.skipped" and skipped.passed
    assert skipped.details == {
        "reason": "no metaplectic data",
        "missing": ["mp.bundle", "sections.first", "sections.second"],
    }
    assert [c.check_id for c in report.checks][0] == "nerve.structure"


def test_obstructed_first_member_skips_induce_and_delta_tilde():
    # the sphere's obstructed Gl cocycle as both members of the pair
    sc = load_scenario(builtin_scenario_path("sphere_octa"))
    gl = sc.gl_cocycle
    sc.pair_cocycle = Cocycle("Glkd", gl.n, gl.k, np.stack([gl.mats, gl.mats], axis=1))
    sc.delta_samples = np.ones(len(sc.nerve.sites), dtype=complex)
    sc.pipelines = ["lift", "delta_tilde"]
    report = run_scenario(sc)
    assert not _check(report, "lift.double-cover").passed
    for stage in ("induce", "delta_tilde"):
        skipped = _check(report, f"{stage}.skipped")
        assert skipped.details["reason"] == (
            "the first member does not lift (see lift.double-cover)")
    assert not report.passed


def test_an_obstructed_self_compat_case_is_not_liftable():
    # the sphere's obstructed Gl cocycle as both members of a diagonal pair
    sc = load_scenario(builtin_scenario_path("sphere_octa"))
    gl = sc.gl_cocycle
    sc.self_compat_cases.append({
        "name": "obstructed",
        "pair_cocycle": Cocycle("Glkd", gl.n, gl.k, np.stack([gl.mats, gl.mats], axis=1)),
        "delta_samples": np.ones(len(sc.nerve.sites), dtype=complex)})
    sc.pipelines = ["self_compat"]
    check = _check(run_scenario(sc), "self_compat.obstructed")
    assert not check.passed
    assert check.failures == [("not liftable",)]


def test_a_component_declared_non_contractible_is_noted():
    doc = json.loads(builtin_scenario_path("circle_mobius").read_text())
    doc["nerve"]["overlaps"][0]["components"][0]["contractible"] = False
    report = run_scenario(doc, pipelines=["validate"])
    assert "components declared non-contractible: (('0', '1'), 0)" in report.notes


# ---------------------------------------------------------------------------
# the in-tree schema checker against jsonschema
# ---------------------------------------------------------------------------

@functools.cache
def _corpus_doc(name: str) -> dict:
    return json.loads(builtin_scenario_path(name).read_text())


def _paths(node, path=()):
    """Every location in a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


_REPLACEMENTS = [True, False, 1.0, 1.5, -1, 0, float("nan"), float("inf"),
                 -float("inf"), "x", None, [], {}]


def _mutate(draw, doc: dict) -> None:
    """One mutation of doc at a random location: a key deleted or
    added, a list lengthened or shortened, or a value replaced by one of
    another type or by an edge value."""
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = None
    node = doc
    for key in path:
        parent, node = node, node[key]
    ops = ["replace"] if path else []
    if isinstance(node, dict):
        ops += ["add key"] + (["delete key"] if node else [])
    if isinstance(node, list):
        ops += ["append"] + (["pop", "clear"] if node else [])
    op = draw(st.sampled_from(ops))
    if op == "replace":
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
    elif op == "add key":
        node["unknown"] = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
    elif op == "delete key":
        del node[draw(st.sampled_from(sorted(node)))]
    elif op == "append":
        node.append(copy.deepcopy(node[-1]) if node else 1)
    elif op == "pop":
        node.pop()
    else:
        node.clear()


@st.composite
def _mutated_corpus_doc(draw):
    """A corpus scenario with one to three mutations, and their count."""
    doc = copy.deepcopy(_corpus_doc(draw(st.sampled_from(EXPECTED_CORPUS))))
    count = draw(st.integers(1, 3))
    for _ in range(count):
        _mutate(draw, doc)
    return doc, count


def _errors(validator, value) -> list:
    """jsonschema's errors for value, as (path, message) pairs."""
    return [(tuple(e.absolute_path), e.message) for e in validator.iter_errors(value)]


@settings(max_examples=300, deadline=None)
@given(_mutated_corpus_doc())
def test_checker_agrees_with_jsonschema_on_mutated_corpus(mutated):
    # the violation reported is one jsonschema finds, and after one
    # mutation the one it reports as best
    doc, count = mutated
    found = _violation(doc, SCENARIO_SCHEMA)
    errors = _errors(_JSONSCHEMA, doc)
    assert (found is None) == (not errors)
    if found is not None:
        assert found in errors
        if count == 1:
            best = jsonschema.exceptions.best_match(_JSONSCHEMA.iter_errors(doc))
            assert found == (tuple(best.absolute_path), best.message)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("schema, value, valid", [
    ({"type": "integer"}, True, False),
    ({"type": "number"}, True, False),
    ({"type": "boolean"}, 1, False),
    ({"type": "integer"}, 1.0, True),
    ({"type": "integer"}, 1.5, False),
    ({"type": "integer"}, _NAN, False),
    ({"type": "number"}, _INF, True),
    ({"type": "array"}, (1, 2), False),
    ({"enum": [1, 2]}, True, False),
    ({"enum": [1, 2]}, 1.0, True),
    ({"type": "integer", "enum": [1, 2]}, True, False),
    ({"type": "integer", "enum": [1, 2]}, 1.0, True),
    ({"type": "integer", "enum": [1, -1]}, 0, False),
    ({"type": "number", "exclusiveMinimum": 0}, _NAN, True),
    ({"type": "number", "exclusiveMinimum": 0}, _INF, True),
    ({"type": "number", "exclusiveMinimum": 0}, 0, False),
    ({"type": "number", "exclusiveMinimum": 0}, -_INF, False),
    ({"type": "integer", "minimum": 0}, 0, True),
    ({"type": "integer", "minimum": 0}, -1, False),
    ({"minimum": 0}, True, True),
    ({"minimum": 0}, "x", True),
    ({"type": "array", "minItems": 2, "maxItems": 2}, [1], False),
    ({"type": "array", "minItems": 2, "maxItems": 2}, [1, 2, 3], False),
    ({"type": "array", "minItems": 2, "maxItems": 2}, [1, 2], True),
    ({"minItems": 2}, "x", True),
    ({"items": {"type": "integer"}}, [1, True], False),
    ({"items": {"type": "integer"}}, {"a": True}, True),
    ({"required": ["a"]}, {}, False),
    ({"required": ["a"]}, [], True),
    ({"properties": {"a": {"type": "string"}}}, {"a": 1}, False),
    ({"properties": {"a": {"type": "string"}}}, {"b": 1}, True),
    ({"additionalProperties": False, "properties": {"a": {}}}, {"a": 1}, True),
    ({"additionalProperties": False, "properties": {"a": {}}}, {"b": 1}, False),
    ({"additionalProperties": {"type": "integer"}}, {"b": 1.0}, True),
    ({"additionalProperties": {"type": "integer"}}, {"b": True}, False),
    ({}, None, True),
    ({}, _NAN, True),
])
def test_checker_edge_cases_follow_draft_2020_12(schema, value, valid):
    found = _violation(value, schema)
    errors = _errors(jsonschema.Draft202012Validator(schema), value)
    assert (found is None) is valid
    assert (not errors) is valid
    assert found is None or found in errors


def _subschemas(schema: dict):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            yield from _subschemas(schema[key])


def test_scenario_schema_uses_only_checked_keywords():
    # a keyword the checker does not implement would go unenforced
    annotations = {"$schema", "title"}
    for sub in _subschemas(SCENARIO_SCHEMA):
        assert set(sub) <= CHECKED_KEYWORDS | annotations, sub
        assert sub.get("type", "object") in _TYPES, sub
        assert isinstance(sub.get("items", {}), dict), sub
        assert isinstance(sub.get("additionalProperties", True), (bool, dict)), sub
        for member in sub.get("enum", ()):
            assert isinstance(member, (int, str)) and not isinstance(member, bool)


def test_no_engine_module_names_jsonschema():
    # jsonschema is the tests' reference, not a dependency of the engine
    package = Path(hfe.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert "jsonschema" not in path.read_text(), path.name
