import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hfe.cli as cli
from hfe import pipelines
from hfe.errors import TheoremFalsification, ValidationError
from hfe.pipelines import PIPELINE_ORDER, run_scenario
from hfe.report import CheckRecord, VerificationReport, emit_report
from hfe.scenario import (
    SCENARIO_SCHEMA,
    builtin_scenario_names,
    builtin_scenario_path,
    load_scenario,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_scenarios(capsys):
    code, out, _ = run(capsys, "list-scenarios")
    assert code == 0
    assert out.split() == builtin_scenario_names()


def test_schema_roundtrips(capsys):
    code, out, _ = run(capsys, "schema")
    assert code == 0
    assert json.loads(out) == SCENARIO_SCHEMA


def test_verify_builtin_by_name(capsys):
    code, out, _ = run(capsys, "verify", "trivial_r2")
    assert code == 0
    assert "=> PASS" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "trivial_r2", "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert all("anchor" in c for c in doc["checks"])


def test_verify_pipeline_filter(capsys):
    code, out, _ = run(capsys, "verify", "trivial_r2",
                       "--pipeline", "frame_pairs", "--report", "json")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert ids == ["frame_pairs.delta-values"]


def test_verify_multiple_scenarios(capsys):
    code, out, _ = run(capsys, "verify", "trivial_r2", "circle_mobius")
    assert code == 0
    assert out.count("=> PASS") == 2


def _reports_alone(capsys, targets):
    """Each target's report from a verify of it alone, minus wall_time."""
    alone = {}
    for t in targets:
        code, out, _ = run(capsys, "verify", t, "--report", "json")
        assert code == 0
        alone[t] = json.loads(out)
        del alone[t]["wall_time"]
    return alone


def test_report_in_a_batch_equals_the_report_alone(capsys):
    # each scenario runs on its own loaded data: nothing a run computes
    # reaches the next one
    targets = builtin_scenario_names() + [str(p) for p in _DOCUMENTS]
    alone = _reports_alone(capsys, targets)
    batch = targets * 2
    random.Random(0).shuffle(batch)
    code, out, _ = run(capsys, "verify", *batch, "--report", "json")
    assert code == 0
    decoder, end = json.JSONDecoder(), 0
    for t in batch:
        doc, end = decoder.raw_decode(out, end)
        end = len(out) - len(out[end:].lstrip())
        del doc["wall_time"]
        assert doc == alone[t]
    assert end == len(out)


def test_jsonl_report_of_a_batch_is_each_report_alone_one_per_line(capsys):
    # unlike back-to-back --report json documents, the output of a batch
    # is read line by line with json.loads
    targets = builtin_scenario_names() + [str(p) for p in _DOCUMENTS]
    alone = _reports_alone(capsys, targets)
    batch = targets * 2
    random.Random(1).shuffle(batch)
    code, out, _ = run(capsys, "verify", *batch, "--report", "jsonl")
    assert code == 0
    lines = out.split("\n")
    assert lines.pop() == "" and len(lines) == len(batch)
    for t, line in zip(batch, lines):
        doc = json.loads(line)
        assert line == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        del doc["wall_time"]
        assert doc == alone[t]


def test_exit_2_on_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/no/such/scenario.json")
    assert code == 2
    assert "error" in err


def test_exit_2_on_malformed_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "verify", str(p))
    assert code == 2


def test_exit_2_on_a_scenario_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "verify", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read scenario: 'utf-8' codec can't decode")


def test_exit_2_on_schema_violation(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "bad", "n": 1, "k": 0, "pipelines": []}))
    code, _, err = run(capsys, "verify", str(p))
    assert code == 2
    assert "schema" in err


def test_schema_violation_message(tmp_path, capsys):
    doc = json.loads(builtin_scenario_path("circle_mobius").read_text())
    doc["nerve"]["overlaps"][0]["components"][0]["points"][0]["params"] = "x"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(p))
    assert code == 2
    assert err == ("error: scenario schema violation at "
                   "nerve/overlaps/0/components/0/points/0/params: "
                   "'x' is not of type 'array'\n")


@pytest.mark.parametrize("name, key, value", [
    ("trivial_r2", "self_compat_eps", 5),
    ("sphere_octa", "sign_cochains", [1]),
    ("torus_grid", "lift_classes", [4]),
    ("sphere_octa", "obstructed", "yes"),
    ("torus_grid", "lift_clases", 3),
])
def test_exit_2_on_a_malformed_expectation(tmp_path, capsys, name, key, value):
    def edit(doc):
        doc.setdefault("expectations", {})[key] = value
    code, _, err = run(capsys, "verify", _scenario_file(tmp_path, name, edit))
    assert code == 2
    assert err.startswith("error: scenario schema violation at expectations")
    assert "Traceback" not in err


_IMPORT_PROBE = """
import sys
import hfe.cli
assert "jsonschema" not in sys.modules, "imported by hfe.cli"
assert hfe.cli.main(["verify", "trivial_r2"]) == 0
assert "jsonschema" not in sys.modules, "imported by a passing verify"
code = hfe.cli.main(["verify", sys.argv[1]])
assert "jsonschema" not in sys.modules, "imported by a rejected document"
sys.exit(code)
"""


def test_no_verification_imports_jsonschema(tmp_path):
    doc = json.loads(builtin_scenario_path("circle_mobius").read_text())
    doc["nerve"]["overlaps"][0]["components"][0]["points"][0]["params"] = "x"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(p)],
                          capture_output=True, text=True, timeout=120,
                          env=_subprocess_env())
    assert proc.returncode == 2, proc.stderr
    assert "=> PASS" in proc.stdout
    assert proc.stderr == ("error: scenario schema violation at "
                           "nerve/overlaps/0/components/0/points/0/params: "
                           "'x' is not of type 'array'\n")


_RANDOM_PROBE = """
import sys
import hfe.cli
code = hfe.cli.main(["verify", sys.argv[1], "--report", "json"])
assert "numpy.random" not in sys.modules, "numpy.random imported"
sys.exit(code)
"""


_DOCUMENTS = sorted((Path(__file__).parent / "golden" / "scenarios").glob("*.json"))


# the engine draws nothing (the tests draw their own inputs), so no
# verification pays numpy.random's import
@pytest.mark.parametrize("target", builtin_scenario_names() + [str(p) for p in _DOCUMENTS],
                         ids=builtin_scenario_names() + [p.stem for p in _DOCUMENTS])
def test_no_verification_imports_numpy_random(target):
    proc = subprocess.run([sys.executable, "-c", _RANDOM_PROBE, target],
                          capture_output=True, text=True, timeout=120,
                          env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"


_LAYER_PROBE = """
import contextlib, io, json, sys
import hfe.cli
at_import = sorted(m for m in sys.modules if m.startswith("hfe."))
with contextlib.redirect_stdout(io.StringIO()):
    code = hfe.cli.main(["verify", sys.argv[1]])
after = sorted(m for m in sys.modules if m.startswith("hfe."))
print(json.dumps([code, at_import, sorted(set(after) - set(at_import))]))
"""

_LAYERS = ["hfe.compatibility", "hfe.frames", "hfe.induction"]

# the layers each verification loads besides those of import hfe.cli
_LAYERS_RUN = {
    "sphere_octa": [],
    "torus_grid": ["hfe.compatibility"],
    "trivial_r2": ["hfe.compatibility", "hfe.frames"],
    "circle_mobius": _LAYERS,
    "abstract_k1_nonorientable": _LAYERS,
    "dense_ring_seed0": _LAYERS,
    "dense_ring_seed3": _LAYERS,
}


# a verification compiles and loads only the layers its scenario runs
@pytest.mark.parametrize("target", builtin_scenario_names() + [str(p) for p in _DOCUMENTS],
                         ids=builtin_scenario_names() + [p.stem for p in _DOCUMENTS])
def test_a_verification_loads_only_the_layers_it_runs(target):
    proc = subprocess.run([sys.executable, "-c", _LAYER_PROBE, target],
                          capture_output=True, text=True, timeout=120,
                          env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    code, at_import, loaded = json.loads(proc.stdout)
    assert code == 0
    assert not set(_LAYERS) & set(at_import)
    assert loaded == _LAYERS_RUN[Path(target).stem]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_exit_2_on_a_seed_outside_the_draw_stream(seed, capsys):
    # --seed keeps the range of the 64-bit draw stream it once seeded, so
    # that a line that was valid stays valid and one that was not exits 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "trivial_r2", "--seed", seed])
    assert exc.value.code == cli.EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert f"argument --seed: seed must be an integer in [0, 2**64), got '{seed}'" in err
    assert "Traceback" not in err


def test_the_largest_seed_is_verified(capsys):
    code, out, _ = run(capsys, "verify", "circle_mobius", "--seed", str(2 ** 64 - 1),
                       "--report", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("target", builtin_scenario_names() + [str(_DOCUMENTS[0])],
                         ids=builtin_scenario_names() + [_DOCUMENTS[0].stem])
def test_the_seed_changes_nothing_but_itself(target, capsys):
    # every check reads the scenario alone: --seed is echoed, and kept
    # for the command lines that pass it
    docs = []
    for seed in (0, 1, 2 ** 64 - 1):
        code, out, _ = run(capsys, "verify", target, "--seed", str(seed), "--report", "json")
        doc = json.loads(out)
        assert doc.pop("seed") == seed
        del doc["wall_time"]
        docs.append((code, doc))
    assert docs[1] == docs[0] and docs[2] == docs[0]


_THREADS_PROBE = """
import json
import os
import sys

set_at = {}
setdefault = os.environ.setdefault


def probe(key, value):
    set_at[key] = "numpy" in sys.modules
    return setdefault(key, value)


os.environ.setdefault = probe
import hfe.cli
print(json.dumps({"numpy_loaded_when_set": set_at,
                  "value": os.environ["OPENBLAS_NUM_THREADS"]}))
"""


@pytest.mark.parametrize("preset,value", [(None, "1"), ("2", "2")])
def test_cli_import_sets_one_blas_thread_unless_set(preset, value):
    env = {k: v for k, v in _subprocess_env().items() if not k.endswith("_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["value"] == value
    assert out["numpy_loaded_when_set"] == {
        "OPENBLAS_NUM_THREADS": False, "OMP_NUM_THREADS": False,
        "MKL_NUM_THREADS": False}


def _fresh_interpreter(code: str):
    """The JSON that code prints in a fresh interpreter importing this hfe."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_dataclasses():
    assert _fresh_interpreter(
        "import json, sys\n"
        "import hfe.cli\n"
        "print(json.dumps('dataclasses' in sys.modules))"
    ) is False


def test_engine_imports_leave_the_collector_alone():
    modules = sorted(p.stem for p in Path(cli.__file__).parent.glob("*.py")
                     if p.stem not in ("__init__", "cli"))
    assert "pipelines" in modules
    assert _fresh_interpreter(
        "import gc, importlib, json\n"
        "import hfe\n"
        f"for m in {modules!r}:\n"
        "    importlib.import_module('hfe.' + m)\n"
        "print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))"
    ) == [True, 0]


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_import_freezes_and_keeps_the_collector_state(enabled):
    # the import freezes its objects and leaves the collector as it was
    assert _fresh_interpreter(
        "import gc, json\n"
        f"{'gc.enable()' if enabled else 'gc.disable()'}\n"
        "import hfe.cli\n"
        "print(json.dumps([gc.isenabled(), gc.get_freeze_count() > 0]))"
    ) == [enabled, True]


_READER_PROBE = """
import contextlib, io, json, sys
import hfe.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [hfe.cli.main(["verify", "trivial_r2", "--report", "json"]),
             hfe.cli.main(["--help"])]
print(json.dumps([codes, [m for m in ("argparse", "gettext", "locale") if m in sys.modules]]))
"""


def test_the_command_line_loads_no_argparse_gettext_or_locale():
    # importing them and building a parser cost a verify about 2 ms
    assert _fresh_interpreter(_READER_PROBE) == [[0, 0], []]


def _jsonl_reports(capsys, *argv):
    """The reports of verify argv, which must pass, minus wall_time."""
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    docs = [json.loads(line) for line in out.splitlines()]
    for doc in docs:
        del doc["wall_time"]
    return docs


@pytest.mark.parametrize("argv, same_as", [
    (["trivial_r2", "--seed=7", "--report=jsonl"],
     ["trivial_r2", "--seed", "7", "--report", "jsonl"]),
    (["--seed", "7", "trivial_r2", "--report", "jsonl", "circle_mobius"],
     ["trivial_r2", "circle_mobius", "--seed", "7", "--report", "jsonl"]),
    (["trivial_r2", "--rep", "jsonl", "--s", "7", "--pip", "lift", "--tol=rel=1e-8"],
     ["trivial_r2", "--report", "jsonl", "--seed", "7", "--pipeline", "lift",
      "--tolerance", "rel=1e-8"]),
    (["--report", "jsonl", "--", "trivial_r2"], ["trivial_r2", "--report", "jsonl"]),
], ids=["equals-sign", "options-anywhere", "unique-prefix", "double-dash"])
def test_the_reader_reads_each_spelling_of_a_line_alike(argv, same_as, capsys):
    assert _jsonl_reports(capsys, *argv) == _jsonl_reports(capsys, *same_as)


def test_every_tolerance_override_is_applied(capsys):
    (doc,) = _jsonl_reports(capsys, "trivial_r2", "--tolerance", "rel=1e-7",
                            "--report", "jsonl", "--tolerance=track=1e-5")
    assert doc["tolerances"] == {"abs": 1e-10, "rel": 1e-7, "singular": 1e-12,
                                 "track": 1e-5}


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"], ["verify", "-h"], ["verify", "trivial_r2", "--help"],
    ["verify", "trivial_r2", "--seed", "7", "--h"], ["list-scenarios", "-h"],
    ["schema", "--help"],
], ids=["h", "help", "help-prefix", "verify-h", "verify-help", "verify-help-prefix",
        "list-scenarios-h", "schema-help"])
def test_help_prints_the_usage_text_and_exits_0(argv, capsys):
    assert run(capsys, *argv) == (0, cli._HELP, "")
    assert cli._HELP.startswith(cli._USAGE)


@pytest.mark.parametrize("argv, error", [
    ([], "hfe: error: the following arguments are required: command"),
    (["bogus"], "hfe: error: invalid command: 'bogus' "
     "(choose from 'verify', 'list-scenarios', 'schema')"),
    (["--seed", "1", "verify", "trivial_r2"], "hfe: error: unrecognized arguments: --seed"),
    (["verify"], "hfe verify: error: the following arguments are required: SCENARIO"),
    (["verify", "--report", "json"],
     "hfe verify: error: the following arguments are required: SCENARIO"),
    (["verify", "trivial_r2", "--seed"], "hfe verify: error: argument --seed: expected one argument"),
    (["verify", "trivial_r2", "--pipeline", "--seed", "1"],
     "hfe verify: error: argument --pipeline: expected one argument"),
    (["verify", "trivial_r2", "--seed", "1.5"], "hfe verify: error: argument --seed: "
     "seed must be an integer in [0, 2**64), got '1.5'"),
    (["verify", "trivial_r2", "--report", "xml"], "hfe verify: error: argument --report: "
     "invalid choice: 'xml' (choose from 'json', 'jsonl', 'text')"),
    (["verify", "trivial_r2", "--rep=yaml"], "hfe verify: error: argument --report: "
     "invalid choice: 'yaml' (choose from 'json', 'jsonl', 'text')"),
    (["verify", "trivial_r2", "--bogus"], "hfe verify: error: unrecognized arguments: --bogus"),
    (["verify", "trivial_r2", "-x"], "hfe verify: error: unrecognized arguments: -x"),
    (["verify", "trivial_r2", "--help=1"],
     "hfe verify: error: argument --help: takes no value, got '1'"),
    (["list-scenarios", "extra"], "hfe list-scenarios: error: unrecognized arguments: extra"),
    (["schema", "--seed", "1"], "hfe schema: error: unrecognized arguments: --seed"),
], ids=["no-command", "unknown-command", "option-before-command", "no-scenario",
        "only-options", "missing-value", "option-as-value", "bad-seed", "bad-report",
        "bad-report-prefix", "unknown-option", "unknown-short-option", "help-with-value",
        "list-scenarios-extra", "schema-extra"])
def test_a_malformed_line_prints_the_usage_and_one_error(argv, error, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_PARSE_ERROR
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"{cli._USAGE}{error}\n")
    assert err.count("error:") == 1 and "Traceback" not in err


_TOLERANCE_ERRORS = pytest.mark.parametrize("key, value, error", [
    ("rel", -1.0, "argument --tolerance: rel: "
     "-1.0 is less than or equal to the minimum of 0"),
    ("rel", float("nan"), "argument --tolerance: tolerances ['rel'] must be finite"),
    ("bogus", 1.0, "argument --tolerance: "
     "Additional properties are not allowed ('bogus' was unexpected)"),
], ids=["negative", "nan", "unknown-key"])


@_TOLERANCE_ERRORS
def test_tolerance_overrides_pass_the_scenario_check(key, value, error, capsys):
    # through the API they ran at rel = -1 or NaN, and "bogus" raised
    # TypeError from Tolerances; the command line names the option, not
    # the scenario
    path = builtin_scenario_path("trivial_r2")
    with pytest.raises(ValidationError):
        run_scenario(path, tolerances={key: value})
    code, out, err = run(capsys, "verify", str(path), "--tolerance", f"{key}={value}")
    assert (code, out, err) == (2, "", f"error: {error}\n")


@_TOLERANCE_ERRORS
@pytest.mark.parametrize("report", ["text", "jsonl"])
def test_a_bad_tolerance_fails_a_batch_once_before_any_scenario(report, key, value, error,
                                                                capsys):
    # it was reported once per scenario, as scenario data, with a jsonl
    # error line for each
    code, out, err = run(capsys, "verify", "trivial_r2", "circle_mobius",
                         "--tolerance", f"{key}={value}", "--report", report)
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("tolerances, error", [
    ({"rel": -1.0}, "scenario schema violation at tolerances/rel: "
     "-1.0 is less than or equal to the minimum of 0"),
    ({"rel": float("nan")}, "tolerances ['rel'] must be finite"),
    ({"rel": 1j}, "scenario schema violation at tolerances/rel: "
     "1j is not of type 'number'"),
    ({"bogus": 1.0}, "scenario schema violation at tolerances: "
     "Additional properties are not allowed ('bogus' was unexpected)"),
], ids=["negative", "nan", "complex", "unknown-key"])
def test_tolerance_overrides_are_checked_for_a_loaded_scenario(tolerances, error):
    # a run checks the caller's overrides whatever its source, and a
    # complex value is not a number
    path = builtin_scenario_path("trivial_r2")
    for source in (path, load_scenario(path)):
        with pytest.raises(ValidationError) as exc:
            run_scenario(source, tolerances=tolerances)
        assert str(exc.value) == error


def test_exit_2_on_bad_tolerance_key(capsys):
    code, _, err = run(capsys, "verify", "trivial_r2",
                       "--tolerance", "bogus=1e-9")
    assert code == 2


@pytest.mark.parametrize("item, error", [
    ("rel=abc", "argument --tolerance: rel must be a number, got 'abc'"),
    ("singular=", "argument --tolerance: singular must be a number, got ''"),
    ("rel", "argument --tolerance: expected KEY=VALUE, got 'rel'"),
], ids=["word", "empty", "no-equals"])
def test_a_malformed_tolerance_names_the_option_and_the_key(item, error, capsys):
    # float()'s own message named neither
    code, out, err = run(capsys, "verify", "trivial_r2", "--tolerance", item)
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_tolerance_environment_variable_changes_no_verdict(capsys, monkeypatch):
    # --tolerance rel= is the one way to set the relative tolerance; the
    # former HFE_TOL_REL variable is ignored
    monkeypatch.setenv("HFE_TOL_REL", "1e-18")
    assert run(capsys, "verify", "sphere_octa", "--tolerance", "rel=1e-18")[0] == 1
    code, out, err = run(capsys, "verify", "sphere_octa")
    assert code == 0
    assert "=> PASS" in out and err == ""


def test_exit_3_on_falsification(capsys, monkeypatch):
    def fake_run(source, pipelines=None, tolerances=None, seed=0):
        report = VerificationReport(scenario="fake", seed=seed)
        report.falsified = True
        return report

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    code, out, _ = run(capsys, "verify", "trivial_r2")
    assert code == 3
    assert "FALSIFIED" in out


def test_a_stage_that_raises_a_falsification_falsifies_the_run(capsys, monkeypatch):
    # run_scenario records the falsification, marks the report, and skips
    # the stages that consume what the falsified stage would produce
    def falsified(*args):
        raise TheoremFalsification("lift falsified")

    monkeypatch.setitem(pipelines._RUNNERS, "lift", falsified)
    code, out, err = run(capsys, "verify", "circle_mobius", "--report", "json")
    assert (code, err) == (3, "")
    doc = json.loads(out)
    assert doc["status"] == "falsified"
    checks = {c["id"]: c for c in doc["checks"]}
    record = checks["lift.falsification"]
    assert (record["anchor"], record["pass"], record["failures"]) == (
        "theorem.violated", False, ["lift falsified"])
    for consumer in ("induce", "delta_tilde"):
        assert checks[f"{consumer}.skipped"]["details"]["reason"] == (
            "lift failed (see lift.falsification)")


def test_cross_check_on_mp_data_that_is_not_d_adapted(tmp_path, capsys):
    path = _scenario_file(tmp_path, "abstract_k1_nonorientable",
                          lambda doc: doc.update(d_adapted=False))
    code, out, err = run(capsys, "verify", path, "--report", "json")
    assert (code, err) == (1, "")
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["delta_D.error"]["failures"] == [
        "ValidationError: requires D-adapted metaplectic data"]
    assert checks["cross_check.error"]["failures"] == [
        "ValidationError: cross_check requires D-adapted data"]


def test_exit_4_when_no_check_runs(tmp_path, capsys):
    # a report of skipped records only, or of none, read PASS and exit 0
    code, out, _ = run(capsys, "verify", "trivial_r2", "--pipeline", "recipe")
    assert code == cli.EXIT_UNCHECKED
    assert out.rstrip().split("\n")[-1].startswith("  => UNCHECKED (")
    assert "PASS" not in out
    path = _scenario_file(tmp_path, "trivial_r2", lambda d: d.update(pipelines=[]))
    code, out, _ = run(capsys, "verify", path, "--report", "json")
    doc = json.loads(out)
    assert (code, doc["status"], doc["checks"]) == (cli.EXIT_UNCHECKED, "unchecked", [])


def test_a_report_with_a_check_besides_skipped_ones_is_checked():
    report = VerificationReport(scenario="r", seed=0)
    assert (report.status, report.passed) == ("unchecked", False)
    report.add(CheckRecord("recipe.skipped", "pipeline.skipped",
                           details={"reason": "no metaplectic data"}))
    assert (report.status, report.passed) == ("unchecked", False)
    report.add(CheckRecord("lift.double-cover", "cocycle.sqrt-lift"))
    assert (report.status, report.passed) == ("pass", True)
    report.add(CheckRecord("lift.class-count", "cocycle.lift-enumeration",
                           passed=False))
    assert (report.status, report.passed) == ("fail", False)
    report.falsified = True
    assert (report.status, report.passed) == ("falsified", False)


def _fake_outcomes(monkeypatch, outcomes):
    """Make cli.run_scenario give each target a report of the status
    outcomes[target], or raise a ValidationError for "error"."""
    records = {"pass": [CheckRecord("a", "x")],
               "fail": [CheckRecord("a", "x", passed=False)],
               "falsified": [CheckRecord("a.falsification", "theorem.violated",
                                         passed=False)],
               "unchecked": [CheckRecord("a.skipped", "pipeline.skipped",
                                         details={"reason": "r"})]}

    def fake_run(source, pipelines=None, tolerances=None, seed=0):
        if outcomes[source] == "error":
            raise ValidationError(f"{source} is broken")
        report = VerificationReport(scenario=source, seed=seed)
        for record in records[outcomes[source]]:
            report.add(record)
        report.falsified = outcomes[source] == "falsified"
        return report

    monkeypatch.setattr(cli, "run_scenario", fake_run)


_CODE_OF = {"error": 2, "falsified": 3, "fail": 1, "unchecked": 4, "pass": 0}


@pytest.mark.parametrize("first", list(_CODE_OF))
def test_a_batch_exits_with_its_worst_code(first, monkeypatch, capsys):
    worst_first = list(_CODE_OF)
    for second in worst_first:
        _fake_outcomes(monkeypatch, {"s0": first, "s1": second})
        code, out, err = run(capsys, "verify", "s0", "s1", "--report", "jsonl")
        assert code == _CODE_OF[min(first, second, key=worst_first.index)]
        statuses = [json.loads(line)["status"] for line in out.splitlines()]
        assert statuses == [first, second]
        assert err.count("error: ") == [first, second].count("error")


def test_a_batch_keeps_the_verdicts_it_computed(tmp_path, capsys):
    # an unreadable scenario discarded the reports of the whole batch
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    message = ("cannot read scenario: Expecting property name enclosed in "
               "double quotes: line 1 column 2 (char 1)")
    alone = _reports_alone(capsys, ["trivial_r2", "circle_mobius"])
    code, out, err = run(capsys, "verify", "trivial_r2", str(bad), "circle_mobius",
                         "--report", "jsonl")
    assert code == cli.EXIT_PARSE_ERROR
    assert err == f"error: {message}\n"
    first, error, last = map(json.loads, out.splitlines())
    assert error == {"scenario": str(bad), "status": "error", "error": message}
    for doc, target in ((first, "trivial_r2"), (last, "circle_mobius")):
        del doc["wall_time"]
        assert doc == alone[target]
    # text and json write the error to stderr only
    code, out, err = run(capsys, "verify", str(bad), "trivial_r2")
    assert code == cli.EXIT_PARSE_ERROR
    assert err == f"error: {message}\n"
    assert out.startswith("scenario trivial_r2 (seed 0)\n") and "=> PASS" in out
    # a scenario alone keeps its output: the error line and no report
    assert run(capsys, "verify", str(bad), "--report", "jsonl") == (
        cli.EXIT_PARSE_ERROR, "", f"error: {message}\n")


def test_exit_2_on_unknown_pipeline(capsys):
    code, out, err = run(capsys, "verify", "trivial_r2", "--pipeline", "bogus")
    assert code == 2
    assert "bogus" in err
    assert "PASS" not in out


def test_exit_2_on_an_empty_pipeline_selection(capsys):
    # "" selects the unknown pipeline "", not every pipeline
    code, out, err = run(capsys, "verify", "trivial_r2", "--pipeline", "")
    assert (code, out, err) == (2, "", "error: argument --pipeline: unknown pipelines ['']\n")


@pytest.mark.parametrize("report", ["text", "jsonl"])
def test_an_unknown_pipeline_fails_a_batch_once_before_any_scenario(report, capsys):
    code, out, err = run(capsys, "verify", "trivial_r2", "circle_mobius",
                         "--pipeline", "lift,bogus", "--report", report)
    assert (code, out, err) == (2, "", "error: argument --pipeline: unknown pipelines ['bogus']\n")


def test_exit_2_on_an_unknown_pipeline_a_document_declares(tmp_path, capsys):
    path = _scenario_file(tmp_path, "trivial_r2",
                          lambda doc: doc["pipelines"].append("bogus"))
    code, out, err = run(capsys, "verify", path)
    assert (code, out, err) == (
        2, "", "error: invalid scenario data: unknown pipelines ['bogus']\n")


def test_exit_2_on_unknown_scenario_tolerance(tmp_path, capsys):
    doc = json.loads(builtin_scenario_path("trivial_r2").read_text())
    doc["tolerances"] = {"bogus": 1.0}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(p))
    assert code == 2
    assert "schema" in err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_exit_2_on_invalid_tolerance_value(value, capsys):
    code, out, _ = run(capsys, "verify", "trivial_r2",
                       "--tolerance", f"rel={value}")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_exit_2_on_nonfinite_scenario_tolerance(literal, tmp_path, capsys):
    text = builtin_scenario_path("trivial_r2").read_text().rstrip()
    assert text.endswith("}")
    p = tmp_path / "nonfinite.json"
    p.write_text(text[:-1] + f', "tolerances": {{"rel": {literal}}}}}')
    with pytest.raises(ValidationError, match="finite"):
        load_scenario(p)
    code, out, err = run(capsys, "verify", str(p))
    assert code == 2
    assert out == ""
    assert "finite" in err


def _subprocess_env() -> dict:
    """The environment of a fresh interpreter that imports this hfe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def test_closed_stdout_exits_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "hfe.cli", "verify", "trivial_r2",
         "--report", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(),
    )
    proc.stdout.close()  # before the report is written: imports come first
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert "Traceback" not in err
    assert code == cli.EXIT_BROKEN_PIPE


def _in_process(capsys, argv):
    """The exit code, stdout and stderr of cli.main in this process; a
    usage error's SystemExit gives its code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _report_lines(out: str) -> list:
    """The lines of a verify's stdout, each JSON line as its document
    minus wall_time and the time of a text verdict line dropped."""
    lines = []
    for line in out.splitlines():
        if line.startswith("{"):
            doc = json.loads(line)
            doc.pop("wall_time", None)
            lines.append(doc)
        else:
            lines.append(re.sub(r" \(\d+\.\d\ds\)$", "", line))
    return lines


_EXIT_PATHS = {
    "pass": (["verify", "trivial_r2", "--report", "jsonl"], cli.EXIT_OK),
    "pass-text": (["verify", "trivial_r2"], cli.EXIT_OK),
    "help": (["--help"], cli.EXIT_OK),
    "check-failure": (["verify", "sphere_octa", "--tolerance", "rel=1e-18",
                       "--report", "jsonl"], cli.EXIT_CHECK_FAILURE),
    "unreadable": (["verify", "{missing}", "--report", "jsonl"], cli.EXIT_PARSE_ERROR),
    "usage-error": (["verify", "trivial_r2", "--report", "xml"], cli.EXIT_PARSE_ERROR),
    "unchecked": (["verify", "trivial_r2", "--pipeline", "recipe", "--report", "jsonl"],
                  cli.EXIT_UNCHECKED),
    "batch-worst": (["verify", "trivial_r2", "{missing}", "circle_mobius",
                     "--report", "jsonl"], cli.EXIT_PARSE_ERROR),
}


# a fresh process ends by console's os._exit, after its flushes: its code
# is main's, and a file holding its stdout holds the whole report
@pytest.mark.parametrize("name", list(_EXIT_PATHS))
def test_a_fresh_process_exits_with_mains_code_and_its_whole_report(name, tmp_path, capsys):
    template, want = _EXIT_PATHS[name]
    argv = [arg.format(missing=tmp_path / "missing.json") for arg in template]
    code, out, err = _in_process(capsys, argv)
    assert code == want
    path = tmp_path / "stdout"
    # block-buffered, as a redirected stdout is, so the flushes write the report
    env = {k: v for k, v in _subprocess_env().items() if k != "PYTHONUNBUFFERED"}
    with open(path, "w") as fh:
        proc = subprocess.run([sys.executable, "-m", "hfe.cli", *argv], stdout=fh,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    written = path.read_text()
    assert (proc.returncode, proc.stderr) == (code, err)
    assert written.endswith("\n") == out.endswith("\n")
    assert _report_lines(written) == _report_lines(out)


def test_the_console_script_and_python_m_share_one_exit_path():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"hfe": "hfe.cli:console"}
    main_block = Path(cli.__file__).read_text().split('if __name__ == "__main__":\n')[1]
    assert main_block.strip() == "console()"


@pytest.mark.parametrize("stage", ["recipe", "delta_D"])
def test_pipeline_subset_checks_the_mp_cocycle_it_consumes(stage, capsys):
    code, out, _ = run(capsys, "verify", "abstract_k1_nonorientable",
                       "--pipeline", stage, "--report", "json")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert "cocycle.mp" in ids
    assert ids.index("cocycle.mp") < [i.split(".")[0] for i in ids].index(stage)


def _scenario_file(tmp_path, name, edit):
    doc = json.loads(builtin_scenario_path(name).read_text())
    edit(doc)
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _inconsistent_delta(doc):
    # the delta samples no longer follow the transformation law, so the
    # induction premise fails and induce stops with an error
    doc["delta_samples"]["1"]["params"]["const"] = 3.0
    doc["pipelines"] = ["validate", "lift", "induce", "delta_tilde"]


@pytest.mark.parametrize("name, edit, skipped, reason", [
    ("circle_mobius", _inconsistent_delta, "delta_tilde.skipped",
     "induce failed (see induce.error)"),
    ("trivial_r2", lambda d: d["pipelines"].append("recipe"),
     "recipe.skipped", "no metaplectic data"),
    ("sphere_octa", lambda d: d.update(pipelines=["lift", "delta_tilde"]),
     "lift.skipped", "no pair cocycle"),
])
def test_missing_stage_inputs_are_recorded_as_skipped(
        name, edit, skipped, reason, tmp_path, capsys):
    path = _scenario_file(tmp_path, name, edit)
    code, out, err = run(capsys, "verify", path, "--report", "json")
    assert code in (0, 1)
    assert "Traceback" not in err
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks[skipped]["anchor"] == "pipeline.skipped"
    assert checks[skipped]["pass"] is True
    assert checks[skipped]["details"]["reason"] == reason
    assert checks[skipped]["details"]["missing"]
    code, out, _ = run(capsys, "verify", path)
    assert f"SKIP  [{reason}]" in out


# the prefixes of each stage's check ids, where they are not the stage name
_RECORD_PREFIXES = {"validate": ("nerve.", "cocycle.", "pair_data.")}


@pytest.mark.parametrize("name", builtin_scenario_names())
def test_every_requested_stage_has_records_or_its_skipped_record(name, capsys):
    # an undeclared stage vanished: trivial_r2 with --pipeline recipe
    # printed no record and PASS
    declared = json.loads(builtin_scenario_path(name).read_text())["pipelines"]
    for stage in PIPELINE_ORDER:
        code, out, _ = run(capsys, "verify", name, "--pipeline", stage, "--report", "json")
        doc = json.loads(out)
        checks = {c["id"]: c for c in doc["checks"]}
        if stage in declared:
            assert (code, doc["status"]) == (0, "pass")
            prefixes = _RECORD_PREFIXES.get(stage, (f"{stage}.",))
            assert [i for i in checks if i.startswith(prefixes)], stage
            assert f"{stage}.skipped" not in checks
        else:
            # no check ran, so the report does not read PASS
            assert (code, doc["status"]) == (cli.EXIT_UNCHECKED, "unchecked")
            assert list(checks) == [f"{stage}.skipped"]
            assert checks[f"{stage}.skipped"]["anchor"] == "pipeline.skipped"
            assert checks[f"{stage}.skipped"]["details"] == {
                "reason": "not declared by the scenario"}


def test_a_requested_stage_that_runs_as_a_producer_is_not_skipped(tmp_path, capsys):
    path = _scenario_file(tmp_path, "circle_mobius",
                          lambda d: d.update(pipelines=["delta_tilde"]))
    code, out, _ = run(capsys, "verify", path, "--pipeline", "recipe,lift,delta_tilde",
                       "--report", "json")
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert code == 0
    assert "lift.class-count" in ids and "lift.skipped" not in ids
    assert [i for i in ids if i.endswith(".skipped")] == ["recipe.skipped"]


def _perturbed_section(doc):
    # the frame the cocycle carries chart 1's section to is no longer in
    # the span of chart 0's section
    doc["sections"]["first"]["1"]["params"]["W"] = [[0.5]]
    doc["pipelines"] = ["validate", "recipe"]


def test_sections_inconsistent_with_the_cocycle_are_a_recipe_error(tmp_path,
                                                                   capsys):
    path = _scenario_file(tmp_path, "circle_mobius", _perturbed_section)
    code, out, err = run(capsys, "verify", path, "--report", "json")
    assert code == 1
    assert "Traceback" not in err
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["recipe.error"]["failures"] == [
        "ValidationError: sections inconsistent with the cocycle at east"]
    assert [i for i in checks if i.startswith("recipe.")] == ["recipe.error"]


def _empty_delta_params(doc):
    doc["delta_samples"]["0"]["params"] = {}


def _text_rotation_angle(doc):
    rotation = doc["mp_cocycle"]["transitions"][1]["generator"]
    assert rotation["name"] == "mp_rotation"
    rotation["params"]["theta"] = "x"


def _boolean_rotation_angle(doc):
    # read as an angle of 1 rad, it verified => PASS
    rotation = doc["mp_cocycle"]["transitions"][1]["generator"]
    assert rotation["name"] == "mp_rotation"
    rotation["params"]["theta"] = True


def _wide_frame_point(doc):
    frame = doc["sections"]["first"]["0"]
    assert frame["name"] == "frame_phi_inv"
    frame["params"]["W"] = [[0, 1]]


def _text_pair_member(doc):
    pair = doc["pair_cocycle"]["transitions"][0]["generator"]
    assert pair["name"] == "pair_const"
    pair["params"]["first"] = "x"


def _huge_pair_entry(doc):
    # an integer beyond the float range
    pair = doc["pair_cocycle"]["transitions"][0]["generator"]
    assert pair["name"] == "pair_const"
    pair["params"]["first"] = [[10 ** 400]]


def _ml_const_transition(doc):
    doc["mp_cocycle"]["transitions"][0]["generator"] = {
        "name": "ml_const", "params": {"A": [[1]]}}


@pytest.mark.parametrize("edit, message", [
    (_empty_delta_params, "generator 'linear_scalar': missing parameter 'const'"),
    (_text_rotation_angle,
     "generator 'mp_rotation': parameter 'theta' must be a finite real number, got 'x'"),
    (_boolean_rotation_angle,
     "generator 'mp_rotation': parameter 'theta' must be a finite real number, got True"),
    (_wide_frame_point,
     "generator 'frame_phi_inv': parameter 'W' must be 1 x 1, got 1 x 2"),
    # no role takes an Ml value, so the vocabulary has no Ml generator
    (_ml_const_transition, "unknown generator 'ml_const'"),
    # the two parse errors name their generator, as every other does
    pytest.param(_text_pair_member,
                 "generator 'pair_const': cannot parse matrix from 'x'",
                 id="text-pair-member"),
    pytest.param(_huge_pair_entry,
                 f"generator 'pair_const': cannot parse complex scalar from {10 ** 400!r}",
                 id="huge-pair-entry"),
])
def test_exit_2_on_malformed_generator_params(edit, message, tmp_path, capsys):
    path = _scenario_file(tmp_path, "circle_mobius", edit)
    with pytest.raises(ValidationError):
        load_scenario(path)
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: invalid scenario data: {message}")


def _wide_slope(doc):
    frame = doc["sections"]["first"]["0"]
    assert frame["name"] == "frame_blocks"
    frame["params"]["Wr_slope"] = [[0, 1]]


def _wide_pair_member(doc):
    pair = doc["pair_sections"]["0"]
    assert pair["name"] == "meta_pair_blocks"
    pair["params"]["first"]["Wr"] = [[0, 1]]


def _short_mp_matrix(doc):
    doc["mp_cocycle"]["transitions"][0]["generator"]["params"]["g"] = [[1, 0], [0, 1]]


@pytest.mark.parametrize("name, edit, message", [
    ("abstract_k1_nonorientable", _wide_slope,
     "generator 'frame_blocks': parameter 'Wr_slope' must be 1 x 1, got 1 x 2"),
    ("circle_mobius", _wide_pair_member,
     "generator 'meta_pair_blocks': parameter 'first.Wr' must be 1 x 1, "
     "got 1 x 2"),
    ("abstract_k1_nonorientable", _short_mp_matrix,
     "generator 'mp_const': parameter 'g' must be 4 x 4, got 2 x 2"),
])
def test_exit_2_on_generator_parameter_shapes(name, edit, message, tmp_path,
                                              capsys):
    # these shapes used to fail only when a stage evaluated the generator,
    # with a traceback and exit 1
    path = _scenario_file(tmp_path, name, edit)
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: invalid scenario data: {message}")


def test_obstruction_alone_checks_the_gl_cocycle_it_lifts(capsys):
    code, out, _ = run(capsys, "verify", "sphere_octa",
                       "--pipeline", "obstruction", "--report", "json")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert ids == ["nerve.structure", "cocycle.gl", "obstruction.lift",
                   "obstruction.cochain.fundamental_class",
                   "obstruction.cochain.trivial"]


def test_obstruction_without_gl_cocycle_checks_its_sign_cochains(
        tmp_path, capsys):
    path = _scenario_file(tmp_path, "sphere_octa",
                          lambda d: d.pop("gl_cocycle"))
    code, out, _ = run(capsys, "verify", path, "--pipeline", "obstruction",
                       "--report", "json")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert ids == ["nerve.structure", "obstruction.cochain.fundamental_class",
                   "obstruction.cochain.trivial"]


def _other_counts(doc):
    doc["expectations"]["lift_classes"] = 2
    doc["expectations"]["self_compat_eps"]["eps0"] = 1


def _trivial_cochain_infeasible(doc):
    doc["expectations"]["sign_cochains"]["trivial"] = "infeasible"


@pytest.mark.parametrize("name, edit, missed", [
    ("trivial_r2", _other_counts, {
        "lift.class-count": ["classes", 1, "expected", 2],
        "self_compat.eps0": ["epsilon", 0, "expected", 1]}),
    ("sphere_octa", _trivial_cochain_infeasible, {
        "obstruction.cochain.trivial":
            ["verdict", "feasible", "expected", "infeasible"]}),
], ids=["counts", "cochain"])
def test_a_missed_expectation_names_its_key_value_and_expectation(
        name, edit, missed, tmp_path, capsys):
    # every expectation record fails in one shape: (key, value,
    # "expected", expected), and only the records whose value differs
    path = _scenario_file(tmp_path, name, edit)
    code, out, _ = run(capsys, "verify", path, "--report", "json")
    assert code == 1
    failed = {c["id"]: c["failures"] for c in json.loads(out)["checks"]
              if not c["pass"]}
    assert failed == {check: [failure] for check, failure in missed.items()}


def _cochain_at_unknown_point(doc):
    doc["sign_cochains"]["fundamental_class"]["values"][0]["point"] = "nope"
    doc["expectations"]["sign_cochains"]["fundamental_class"] = "feasible"


def _degree_one_cochain(doc):
    doc["sign_cochains"]["fundamental_class"]["degree"] = 1


@pytest.mark.parametrize("edit, message", [
    # the value at the unknown point counted as +1: the cochain was
    # feasible and the run passed
    (_cochain_at_unknown_point, "invalid scenario data: sign cochain "
     "'fundamental_class' names point 'nope' of triple ['B', 'E', 'N'], which the "
     "nerve does not have"),
    # the run recorded obstruction.error "expected a degree-2 sign cochain"
    (_degree_one_cochain, "scenario schema violation at "
     "sign_cochains/fundamental_class/degree: 1 is not one of [2]"),
], ids=["unknown-point", "degree-1"])
def test_exit_2_on_a_sign_cochain_that_means_nothing(edit, message, tmp_path, capsys):
    path = _scenario_file(tmp_path, "sphere_octa", edit)
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_obstruction_is_skipped_when_validate_fails(monkeypatch, capsys):
    # gl.cocycle is missing because its producer failed, not because the
    # scenario has none: the lift check must not vanish silently
    from hfe.errors import EngineError

    def broken(nerve, cocycle):
        raise EngineError("broken cocycle")

    monkeypatch.setattr(pipelines.cech, "validate_cocycle", broken)
    code, out, _ = run(capsys, "verify", "sphere_octa",
                       "--pipeline", "obstruction", "--report", "json")
    assert code == 1
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert not checks["validate.error"]["pass"]
    assert checks["obstruction.skipped"]["details"] == {
        "reason": "validate failed (see validate.error)",
        "missing": ["gl.cocycle"],
    }
    assert "obstruction.lift" not in checks


def test_vanishing_determinant_is_a_lift_error(tmp_path, capsys):
    # a singular member is not in Gl: validation rejects the pair cocycle
    # before the lift tracks the square root of its vanishing determinant
    doc = json.loads((Path(__file__).parent / "golden" / "scenarios"
                      / "dense_ring_seed0.json").read_text())
    for tr in doc["pair_cocycle"]["transitions"]:
        tr["generator"]["params"]["first"] = [[1, 0], [0, 0]]
        tr["generator"]["params"]["second"] = [[1, 0], [0, 0]]
    doc["pipelines"] = ["validate", "lift"]
    path = tmp_path / "vanishing.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), "--report", "json")
    assert code == 1
    assert "Traceback" not in err
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["validate.error"]["failures"] == [
        "SingularityError: pair cocycle member is singular"]
    assert checks["lift.skipped"]["details"] == {
        "reason": "validate failed (see validate.error)",
        "missing": ["pair.cocycle"],
    }


def _zero_delta_sample(doc):
    doc["delta_samples"]["0"]["params"]["value"] = 0.0


def _zero_eps1_sample(doc):
    assert doc["self_compat"][1]["name"] == "eps1"
    doc["self_compat"][1]["delta_samples"]["0"]["params"]["value"] = 0.0


@pytest.mark.parametrize("edit, error", [
    (_zero_delta_sample, "validate.error"),
    (_zero_eps1_sample, "self_compat.error"),
])
def test_vanishing_delta_sample_is_an_error(edit, error, tmp_path, capsys):
    # trivial_r2 has one chart and no overlap: a zero delta sample there
    # used to pass validation, and in a self-compatibility case to be
    # reported as a falsification of the theorem
    path = _scenario_file(tmp_path, "trivial_r2", edit)
    code, out, err = run(capsys, "verify", path, "--report", "json")
    assert code == 1
    assert "Traceback" not in err
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks[error]["failures"] == [
        "SingularityError: delta sample vanishes at origin on chart '0'"]
    assert not [i for i in checks if i.endswith(".falsification")]


def _no_charts(doc):
    doc["nerve"]["charts"] = []
    doc["delta_samples"] = {}
    for case in doc["self_compat"]:
        case["delta_samples"] = {}


def test_exit_2_on_a_nerve_without_charts(tmp_path, capsys):
    # every check used to pass on zero sample points but self_compat.eps1
    path = _scenario_file(tmp_path, "trivial_r2", _no_charts)
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert err == ("error: scenario schema violation at nerve/charts: "
                   "[] should be non-empty\n")


def _pole_at_sample_point(doc):
    first = doc["gl_cocycle"]["transitions"][0]
    assert first["pair"] == ["B", "E"]
    point = doc["nerve"]["overlaps"][0]["components"][0]["points"][0]
    assert point["id"] == "f_BEN"
    first["generator"]["params"]["w_b"] = point["params"]


def test_exit_2_on_mobius_pole_at_a_sample_point(tmp_path, capsys):
    path = _scenario_file(tmp_path, "sphere_octa", _pole_at_sample_point)
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: invalid scenario data: generator "
                          "'mobius_ratio': pole at sample point f_BEN")


# the Gl transition zeta at a sample point with parameters (re, im) of zeta
_ZETA = {"name": "mobius_ratio", "params": {"w_a": [0, 0], "w_b": "inf"}}


def _gl_path_file(tmp_path, name, generator, *params, n=1):
    """A two-chart scenario whose Gl cocycle is ``generator`` on one
    overlap component, a path through points with the params, run with
    pipelines validate and obstruction."""
    doc = {
        "name": name, "n": n, "k": 0,
        "nerve": {"charts": ["a", "b"], "overlaps": [{
            "pair": ["a", "b"], "components": [{
                "points": [{"id": f"p{i}", "params": p} for i, p in enumerate(params)],
                "edges": [[i, i + 1] for i in range(len(params) - 1)]}]}]},
        "gl_cocycle": {"group": "Gl", "transitions": [{
            "pair": ["a", "b"], "component": 0, "generator": generator}]},
        "pipelines": ["validate", "obstruction"],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_step_angle_that_underflows_is_tracked(tmp_path, capsys):
    # the Gl transition zeta on one edge from 0.75 + 1.67e-309i to
    # 1.5 + 3.34e-309i: the angle of the step ratio underflows to a
    # subnormal, where cmath.phase raised OverflowError (a traceback)
    path = _gl_path_file(tmp_path, "subnormal_mobius", _ZETA,
                         [0.75, 1.668805393880405e-309], [1.5, 3.337610787760805e-309])
    code, out, err = run(capsys, "verify", path)
    assert (code, err) == (0, "")
    assert "obstruction.lift" in out


def test_transition_near_the_float_maximum_is_tracked(tmp_path, capsys):
    # the constant 1e308 + 1e308i on one edge: Python's quotient of the
    # two values is nan + 0j, which was reported as a branch jump, and
    # det warned of an overflow on stderr
    path = _gl_path_file(tmp_path, "near_max", {"name": "const", "params": {
        "value": [[[1e308, 1e308]]]}}, [0.0], [1.0])
    code, out, err = run(capsys, "verify", path)
    assert (code, err) == (0, "")
    assert "obstruction.lift" in out


@pytest.mark.parametrize("generator, params, error", [
    # the size of the finite 1.7e308 + 1e308i overflows
    (_ZETA, [[1e308, 0], [1.7e308, 1e308]],
     "ValidationError: Gl transition has a non-finite determinant"),
    ({"name": "const", "params": {"value": [[0]]}}, [[0.0]],
     "SingularityError: Gl transition is singular"),
], ids=["non-finite", "singular"])
def test_gl_transition_outside_gl_is_a_validate_error(generator, params, error,
                                                      tmp_path, capsys):
    # both used to pass cocycle.gl; the non-finite one then passed
    # obstruction.lift on a NaN root, and the singular one failed it with
    # obstruction.error "matrix is singular"
    path = _gl_path_file(tmp_path, "outside_gl", generator, *params)
    code, out, err = run(capsys, "verify", path, "--report", "json")
    assert code == 1
    assert "Traceback" not in err
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["validate.error"]["failures"] == [error]
    # no cocycle.gl and no obstruction.lift
    assert list(checks) == ["nerve.structure", "validate.error", "obstruction.skipped"]


def test_gl_transition_whose_determinant_is_nan_is_a_validate_error(tmp_path, capsys):
    # a d - b c of the finite (1e200 1e200; 1e200 2e200) is inf - inf, a
    # NaN that the determinant kernel returns without a warning
    path = _gl_path_file(tmp_path, "nan_det", {"name": "const", "params": {
        "value": [[1e200, 1e200], [1e200, 2e200]]}}, [0.0], n=2)
    code, out, err = run(capsys, "verify", path, "--report", "json")
    assert (code, err) == (1, "")
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["validate.error"]["failures"] == [
        "ValidationError: Gl transition has a non-finite determinant"]


@pytest.mark.parametrize("generator", [
    {"name": "const", "params": {"value": [[1]]}},
    {"name": "frame_const", "params": {"U": [[1]], "V": [[0]]}},
    {"name": "pair_const", "params": {"first": [[1]], "second": [[1]]}},
], ids=lambda g: g["name"])
def test_exit_2_on_non_scalar_delta_samples(generator, tmp_path, capsys):
    # these used to end in a TypeError traceback from validate_pair_data
    path = _scenario_file(tmp_path, "circle_mobius",
                          lambda doc: doc["delta_samples"].update({"0": generator}))
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid scenario data: delta sample of chart "
                          "'0' at east is not a scalar")


def _declared(role, group):
    """A circle_mobius edit declaring a role's cocycle of another group,
    and the schema error it gets."""
    want = {"mp_cocycle": "Mp", "pair_cocycle": "Glkd"}[role]
    return (lambda doc: doc[role].update(group=group),
            f"scenario schema violation at {role}/group: '{group}' is not one of "
            f"['{want}']")


def _built(role, generator, group):
    """A circle_mobius edit building a role's first transition from a
    generator of the wrong kind, and the load error it gets."""
    return (lambda doc: doc[role]["transitions"][0].update(generator=generator),
            f"invalid scenario data: transition of ('0', '1') at east is not a "
            f"{group} value for n=1")


_MISMATCHES = {
    **{f"{role}={group}": _declared(role, group) for role, group in (
        ("mp_cocycle", "Glkd"), ("mp_cocycle", "Ml"), ("mp_cocycle", "Spk"),
        ("pair_cocycle", "Mp"), ("pair_cocycle", "Mlkd"), ("pair_cocycle", "Sp"),
        ("pair_cocycle", "Gl"))},
    "mp_cocycle<-const": _built(
        "mp_cocycle", {"name": "const", "params": {"value": [[1]]}}, "Mp"),
    "pair_cocycle<-mp_rotation": _built(
        "pair_cocycle", {"name": "mp_rotation", "params": {"theta": 1.0}}, "Glkd"),
    # the layout fits but the matrix is not symplectic
    "mp_cocycle<-mp_const(diag(2,1))": (
        lambda doc: doc["mp_cocycle"]["transitions"][0].update(generator={
            "name": "mp_const", "params": {"g": [[2, 0], [0, 1]]}}),
        "invalid scenario data: matrix is not symplectic, residuals (1.0, 0.0, 0.0)"),
}


@pytest.mark.parametrize("edit, message", _MISMATCHES.values(), ids=_MISMATCHES)
def test_exit_2_on_cocycle_group_mismatch(edit, message, tmp_path, capsys):
    # each role takes the one group its consumer accepts; these used to
    # end in a traceback, or in a cocycle.pair PASS on Gl data
    path = _scenario_file(tmp_path, "circle_mobius", edit)
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: {message}")


def _section(role, generator):
    """An abstract_k1_nonorientable edit building chart 0's generator of
    a section role from a generator of the wrong kind."""
    def edit(doc):
        family = doc["sections"]["first"] if role == "section" else doc[role]
        family["0"] = generator
    return edit


def _frame_pair_member(doc):
    doc["frame_pairs"][0]["first"] = {"name": "const_scalar",
                                      "params": {"value": 1.0}}


_WRONG_KINDS = {
    "section<-const": (
        "abstract_k1_nonorientable",
        _section("section", {"name": "const",
                             "params": {"value": [[1, 0], [0, 1]]}}),
        "section of chart '0' at east is not a frame (U, V) for n=2"),
    "section<-const_scalar": (
        "abstract_k1_nonorientable",
        _section("section", {"name": "const_scalar", "params": {"value": 1.0}}),
        "section of chart '0' at east is not a frame (U, V) for n=2"),
    "pair_section<-frame_const": (
        "abstract_k1_nonorientable",
        _section("pair_sections", {"name": "frame_const",
                                   "params": {"U": [[1, 0], [0, 1]],
                                              "V": [[0, 0], [0, 0]]}}),
        "pair section of chart '0' at east is not a pair of meta frames "
        "(W, C, z) for n=2"),
    "frame_pair<-const_scalar": (
        "trivial_r2", _frame_pair_member,
        "frame pair 'vertical_horizontal' first member is not a frame (U, V) "
        "for n=1"),
    # a family without a generator for one chart
    "section<-missing": (
        "abstract_k1_nonorientable",
        lambda doc: doc["sections"]["second"].pop("1"),
        "no section for charts ['1']"),
}


@pytest.mark.parametrize("name, edit, message", _WRONG_KINDS.values(),
                         ids=_WRONG_KINDS)
def test_exit_2_on_wrong_kind_section_generator(name, edit, message, tmp_path,
                                                capsys):
    # these used to end in a traceback from the stage that evaluated the
    # generator: ValueError, AttributeError, TypeError or KeyError
    path = _scenario_file(tmp_path, name, edit)
    selection = ["--pipeline", "frame_pairs"] if name == "trivial_r2" else []
    code, out, err = run(capsys, "verify", path, *selection)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: invalid scenario data: {message}")


def _nan_pair_member(doc):
    params = doc["pair_cocycle"]["transitions"][0]["generator"]["params"]
    params["first"] = params["second"] = [[float("nan")]]


def _infinite_expected_delta(doc):
    doc["frame_pairs"][0]["expected_delta"] = [0.0, float("inf")]


_NONFINITE = {
    # this used to run, and report two gluing lifts as inequivalent: a
    # falsification, while four checks passed with residual 0
    "pair_cocycle<-NaN": (
        "circle_mobius", _nan_pair_member,
        "generator 'pair_const': parameter 'first' has a non-finite entry"),
    "delta_sample<-Infinity": (
        "circle_mobius",
        lambda doc: doc["delta_samples"]["0"]["params"].update(const=float("inf")),
        "delta sample of chart '0' at east is not a scalar: it has a non-finite "
        "entry"),
    "expected_delta<-Infinity": (
        "trivial_r2", _infinite_expected_delta,
        "expected delta of frame pair 'vertical_horizontal' at origin is not "
        "finite"),
}


@pytest.mark.parametrize("name, edit, message", _NONFINITE.values(), ids=_NONFINITE)
def test_exit_2_on_nonfinite_values(name, edit, message, tmp_path, capsys):
    # json.dumps writes NaN and Infinity literals, which json reads back
    path = _scenario_file(tmp_path, name, edit)
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: invalid scenario data: {message}")


@pytest.mark.parametrize("value", [[1.0, None], [[0, 0], [0, 0]], True],
                         ids=["null-part", "nested", "boolean"])
def test_exit_2_on_a_malformed_expected_delta(value, tmp_path, capsys):
    # parse_complex raised TypeError, with a traceback, on a part that is
    # not a number, and read a boolean as 1
    def edit(doc):
        doc["frame_pairs"][1]["expected_delta"] = value
    code, out, err = run(capsys, "verify", _scenario_file(tmp_path, "trivial_r2", edit))
    assert (code, out) == (2, "")
    assert err == ("error: invalid scenario data: expected delta of frame pair "
                   f"'horizontal_vertical': cannot parse complex scalar from {value!r}\n")


def _mp_params(doc, index):
    return doc["mp_cocycle"]["transitions"][index]["generator"]["params"]


def _pair_member(doc, member):
    return doc["pair_sections"]["0"]["params"][member]


def _horizontal_vertical_at_1e308(doc):
    pair = doc["frame_pairs"][1]
    assert pair["name"] == "horizontal_vertical"
    pair["first"]["params"]["U"] = [[-1e308]]
    pair["second"]["params"]["V"] = [[1e308]]


def _pair_section_crs_at_extremes(doc):
    params = doc["pair_sections"]["0"]["params"]
    params["first"]["Cr"] = [[[1.5, 2 ** 70]]]
    params["second"]["Cr"] = [[[0.8, -1e308]]]


_INF = float("inf")
# name: (scenario, edit, exit code, the message of exit 2)
_EXTREME = {
    "param<-Infinity": (
        "abstract_k1_nonorientable",
        lambda doc: doc["nerve"]["overlaps"][0]["components"][0]["points"][0].update(
            params=[_INF]),
        2, "params of sample point east must be finite"),
    "slope<-Infinity": (
        "circle_mobius", lambda doc: doc["delta_samples"]["0"]["params"].update(slope=_INF),
        2, "delta sample of chart '0' at east is not a scalar: it has a non-finite entry"),
    "W<-Infinity": (
        "circle_mobius",
        lambda doc: doc["sections"]["first"]["0"]["params"].update(W=[[_INF]]),
        2, "generator 'frame_phi_inv': parameter 'W' has a non-finite entry"),
    # this was "U - iV is singular (frame not positive)"
    "g<-Infinity": (
        "abstract_k1_nonorientable", lambda doc: _mp_params(doc, 0)["g"][0].__setitem__(1, _INF),
        2, "generator 'mp_const': parameter 'g' has a non-finite entry"),
    # a valid datum: its values and their squares stay finite
    "Cr<-1e308": (
        "abstract_k1_nonorientable",
        lambda doc: _pair_member(doc, "first").update(Cr=[[[1e308, 1e308]]]), 0, None),
    "zeta<-1e308": (
        "abstract_k1_nonorientable", lambda doc: _mp_params(doc, 0).update(zeta=1e308),
        2, "zeta**2 != det alpha(g, 0)"),
    "sheet<-1e308": (
        "circle_mobius", lambda doc: _mp_params(doc, 1).update(sheet=1e308),
        2, "generator 'mp_rotation': parameter 'sheet' must be 1 or -1, got 1e+308"),
    "sheet<-true": (
        "circle_mobius", lambda doc: _mp_params(doc, 1).update(sheet=True),
        2, "generator 'mp_rotation': parameter 'sheet' must be 1 or -1, got True"),
    "theta<-Infinity": (
        "circle_mobius", lambda doc: _mp_params(doc, 1).update(theta=_INF),
        2, "generator 'mp_rotation': parameter 'theta' must be a finite real number, "
        "got inf"),
    "pair_section_Cr<-1e308": (
        "circle_mobius",
        lambda doc: doc["pair_sections"]["1"]["params"]["first"].update(Cr=[[[1e308, 0.2]]]),
        0, None),
    "zsign<-1e308": (
        "abstract_k1_nonorientable", lambda doc: _pair_member(doc, "first").update(zsign=1e308),
        2, "generator 'meta_pair_blocks': parameter 'first.zsign' must be 1 or -1, "
        "got 1e+308"),
    # the delta law conj(det D1) det D2 overflows
    "pair_const<-1e308": (
        "circle_mobius",
        lambda doc: doc["pair_cocycle"]["transitions"][0]["generator"].update(
            params={"first": [[1e308]], "second": [[1e308]]}),
        1, None),
    # the pairing determinant's product overflows
    "horizontal_vertical<-1e308": (
        "trivial_r2", _horizontal_vertical_at_1e308, 1, None),
    # delta_L and the square of the pairing value overflow
    "pair_section_Cr<-2**70,-1e308": (
        "circle_mobius", _pair_section_crs_at_extremes, 1, None),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, edit, code, message", _EXTREME.values(), ids=_EXTREME)
def test_extreme_parameters_print_no_warning(name, edit, code, message, tmp_path, capsys):
    # each printed numpy RuntimeWarnings before its verdict
    got, out, err = run(capsys, "verify", _scenario_file(tmp_path, name, edit))
    assert got == code
    assert err == ("" if message is None else f"error: invalid scenario data: {message}\n")


def _isolated_chart(doc):
    # chart 2 meets no overlap: it has delta samples and pair sections,
    # but no frame sections
    doc["nerve"]["charts"].append("2")
    doc["delta_samples"]["2"] = doc["delta_samples"]["0"]
    doc["pair_sections"]["2"] = doc["pair_sections"]["0"]


_UNCOVERED_CHARTS = {
    "delta_samples<-missing": (
        "circle_mobius", lambda doc: doc["delta_samples"].pop("1"),
        "no delta sample for charts ['1']"),
    "section<-isolated_chart": (
        "abstract_k1_nonorientable", _isolated_chart,
        "no section for charts ['2']"),
}


@pytest.mark.parametrize("name, edit, message", _UNCOVERED_CHARTS.values(),
                         ids=_UNCOVERED_CHARTS)
def test_exit_2_on_a_chart_role_without_a_chart(name, edit, message, tmp_path,
                                                capsys):
    # every chart has chart rows (a chart that meets no overlap its origin
    # row), so a chart role needs a generator for every chart, and the
    # scenario is rejected at load, before any stage runs
    path = _scenario_file(tmp_path, name, edit)
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: invalid scenario data: {message}")


def _frame_pair_k_above_n(doc):
    pair = doc["frame_pairs"][4]
    assert pair["name"] == "shared_vertical_k1" and doc["n"] == 1
    pair["k"] = 2


@pytest.mark.parametrize("name, edit, message", [
    ("circle_mobius", lambda doc: doc.update(k=doc["n"] + 1), "k must not exceed n"),
    ("circle_mobius",
     lambda doc: doc["delta_samples"].update(zz=doc["delta_samples"]["0"]),
     "generator for unknown chart 'zz'"),
    # it used to load, and the frame_pairs stage recorded "pair
    # dimension/k mismatch" with exit 1
    ("trivial_r2", _frame_pair_k_above_n,
     "frame pair 'shared_vertical_k1': k must not exceed n"),
], ids=["k-above-n", "unknown-chart", "frame-pair-k-above-n"])
def test_exit_2_on_a_document_that_fails_to_load(name, edit, message, tmp_path,
                                                 capsys):
    # each passes the schema and is rejected while the scenario loads
    path = _scenario_file(tmp_path, name, edit)
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert err == f"error: invalid scenario data: {message}\n"


def _loose_mp_anchor(doc):
    # zeta**2 is off det alpha(g, 0) = 1 by 2e-8: inside the load-time
    # check at the default tolerances, outside the membership bound at
    # rel=1e-13
    anchor = doc["mp_cocycle"]["transitions"][0]["generator"]
    assert anchor["name"] == "mp_const"
    anchor["params"]["zeta"] = 1 + 1e-8


def test_mp_anchors_are_checked_at_the_run_tolerances(tmp_path, capsys):
    path = _scenario_file(tmp_path, "circle_mobius", _loose_mp_anchor)
    code, out, _ = run(capsys, "verify", path, "--tolerance", "rel=1e-13",
                       "--report", "json")
    assert code == 1
    mp = {c["id"]: c for c in json.loads(out)["checks"]}["cocycle.mp"]
    assert mp["pass"] is False
    assert mp["max_residual"] > 1e-8
    assert [f[:3] for f in mp["failures"]] == [["membership", ["0", "1"], 0]]


def _k_equals_n(doc):
    # with k == n delta is an empty determinant, so its sample 2 is wrong
    assert doc["n"] == 1
    assert doc["delta_samples"]["0"]["params"]["value"] == [2.0, 0.0]
    doc["k"] = 1


def test_pair_data_requires_delta_one_when_k_equals_n(tmp_path, capsys):
    path = _scenario_file(tmp_path, "trivial_r2", _k_equals_n)
    code, out, _ = run(capsys, "verify", path, "--report", "json")
    assert code == 1
    check = {c["id"]: c for c in json.loads(out)["checks"]}["pair_data.consistency"]
    assert check["pass"] is False
    assert check["failures"] == [["delta-consistency", "0", "origin", 1.0]]


def _broken_pair_transition(doc):
    # the transition of one torus_grid component is (2, 2), which breaks
    # the cocycle identity at four triple points and the delta law at the
    # component's two points
    transition = doc["pair_cocycle"]["transitions"][0]
    assert transition["pair"] == ["00", "01"] and transition["component"] == 0
    transition["generator"]["params"] = {"first": [[2]], "second": [[2]]}


def test_pair_data_consistency_includes_the_pair_cocycle_check(tmp_path, capsys):
    path = _scenario_file(tmp_path, "torus_grid", _broken_pair_transition)
    code, out, err = run(capsys, "verify", path, "--report", "json")
    assert code == 1
    assert "Traceback" not in err
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    cocycle = [["cocycle", ["00", "01", third], point, 1.0]
               for third in ("10", "11") for point in ("q_EN", "q_WN")]
    assert checks["cocycle.pair"]["failures"] == cocycle
    assert checks["cocycle.pair"]["max_residual"] == 1.0
    consistency = checks["pair_data.consistency"]
    assert consistency["pass"] is False
    assert consistency["max_residual"] == 1.0
    assert consistency["failures"] == [
        ["delta-consistency", ["00", "01"], 0, point, 0.75]
        for point in ("q_EN", "q_WN")] + cocycle


def _extra_transition(fields):
    """A circle_mobius edit adding a pair_cocycle transition: the first
    one, for component 0 of overlap ('0', '1'), with fields changed."""
    def edit(doc):
        transitions = doc["pair_cocycle"]["transitions"]
        transitions.append({**transitions[0], **fields})
    return edit


@pytest.mark.parametrize("fields, message", [
    ({"component": 7}, "cocycle references unknown component 7 of overlap ('0', '1')"),
    ({"component": 0}, "cocycle has two transitions for overlap ('0', '1') component 0"),
    ({"pair": ["0", "9"]}, "cocycle references unknown overlap ('0', '9')"),
], ids=["unknown-component", "repeated-component", "unknown-overlap"])
def test_exit_2_on_malformed_cocycle_transitions(fields, message, tmp_path,
                                                 capsys):
    # the first two used to load: the unknown component was ignored, and
    # the last of two transitions for one component was kept
    path = _scenario_file(tmp_path, "circle_mobius", _extra_transition(fields))
    code, out, err = run(capsys, "verify", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: invalid scenario data: {message}")


def test_exit_2_on_a_component_without_a_transition(tmp_path, capsys):
    def edit(doc):
        del doc["pair_cocycle"]["transitions"][1]
    path = _scenario_file(tmp_path, "circle_mobius", edit)
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert err == ("error: invalid scenario data: cocycle missing transitions "
                   "for ('0', '1') components [1]\n")


def _nerve(edit):
    """A scenario edit that applies edit to the nerve section."""
    return lambda doc: edit(doc["nerve"])


def _component(ci, **fields):
    """A nerve edit that updates component ci of the first overlap."""
    return lambda nv: nv["overlaps"][0]["components"][ci].update(fields)


def _membership(pair, value):
    """A nerve edit that sets the membership of the first triple point
    for pair, or deletes it (value None)."""
    def edit(nv):
        memberships = nv["triples"][0]["points"][0]["memberships"]
        if value is None:
            del memberships[pair]
        else:
            memberships[pair] = value
    return edit


def _both(*edits):
    def edit(nv):
        for e in edits:
            e(nv)
    return edit


_APART = _component(0, points=[{"id": "east"}, {"id": "north"}])  # no edge
_EMPTY = _component(1, points=[])
# chart rows are one per point id, so the second east used to take the
# first one's chart values, and the document passed
_TWICE = _component(0, points=[{"id": "east", "params": [0.0]},
                               {"id": "east", "params": [0.1]}], edges=[[0, 1]])


@pytest.mark.parametrize("name, edit, message", [
    ("circle_mobius", lambda nv: nv["charts"].append("0"), "duplicate chart ids"),
    ("circle_mobius", lambda nv: nv["overlaps"].append({"pair": ["1", "1"], "components": []}),
     "self-overlap (a, a) not allowed"),
    ("circle_mobius", lambda nv: nv["overlaps"][0].update(pair=["1", "0"]),
     "overlap keys must be sorted pairs"),
    ("circle_mobius", lambda nv: nv["overlaps"].append({"pair": ["0", "2"], "components": []}),
     "overlap (0,2) references unknown chart"),
    ("sphere_octa", lambda nv: nv["triples"][0].update(key=["E", "B", "N"]),
     "bad triple key ('E', 'B', 'N')"),
    ("sphere_octa", _membership("B,E", None),
     "triple point f_BEN missing membership for ('B', 'E')"),
    ("sphere_octa", _membership("B,N", [0, 99]),
     "triple point f_BEN: bad membership for ('B', 'N')"),
    ("sphere_octa", _membership("B,E", [0, 1]),
     "triple point f_BEN: id mismatch in ('B', 'E')"),
    ("circle_mobius", _EMPTY, "overlap component needs at least one point"),
    ("circle_mobius", _component(0, edges=[[0, 1]]), "edge references a missing point"),
    ("circle_mobius", _APART, "overlap component graph is disconnected"),
    ("circle_mobius", _component(0, points=[{"id": "east", "params": [10 ** 400]}]),
     "sample point params must fit a float"),
    # two faults: the components are checked first, in document order
    ("circle_mobius", _both(lambda nv: nv["charts"].append("0"), _APART),
     "overlap component graph is disconnected"),
    ("circle_mobius", _both(_EMPTY, _APART), "overlap component graph is disconnected"),
    ("circle_mobius", _both(_component(0, points=[]),
                            _component(1, points=[{"id": "west"}, {"id": "south"}])),
     "overlap component needs at least one point"),
    ("circle_mobius", _TWICE, "overlap component lists point 'east' twice"),
    ("circle_mobius", _both(_TWICE, _EMPTY), "overlap component lists point 'east' twice"),
    ("circle_mobius", _both(_APART, _component(1, points=[{"id": "west"}, {"id": "west"}],
                                               edges=[[0, 1]])),
     "overlap component graph is disconnected"),
], ids=["duplicate-charts", "self-overlap", "unsorted-pair", "unknown-chart",
        "bad-triple-key", "missing-membership", "bad-membership", "id-mismatch",
        "empty-component", "edge-out-of-range", "disconnected", "huge-param",
        "duplicate-charts-and-disconnected", "empty-after-disconnected",
        "disconnected-after-empty", "point-listed-twice", "empty-after-point-twice",
        "point-twice-after-disconnected"])
def test_exit_2_on_a_malformed_nerve(name, edit, message, tmp_path, capsys):
    path = _scenario_file(tmp_path, name, _nerve(edit))
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert err == f"error: invalid scenario data: {message}\n"


def _listed_twice(index, first):
    """A nerve edit that lists entry index of the overlaps or triples
    again, the earlier listing edited by first."""
    def edit(nv):
        section = "overlaps" if "pair" in first else "triples"
        earlier = json.loads(json.dumps(nv[section][index]))
        nv[section].insert(index, {**earlier, **first})
    return edit


@pytest.mark.parametrize("name, edit, message", [
    # the earlier listing held a component "north", which was dropped
    ("circle_mobius", _listed_twice(0, {"pair": ["0", "1"], "components": [
        {"points": [{"id": "north"}]}]}), "overlap ('0', '1') is listed twice"),
    ("sphere_octa", _listed_twice(0, {"key": ["B", "E", "N"]}),
     "triple key ('B', 'E', 'N') is listed twice"),
], ids=["pair", "triple-key"])
def test_exit_2_on_a_nerve_entry_listed_twice(name, edit, message, tmp_path, capsys):
    # both used to load and pass, with the later listing in place of
    # the earlier one
    path = _scenario_file(tmp_path, name, _nerve(edit))
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert err == f"error: invalid scenario data: {message}\n"


def test_exit_2_on_a_negative_membership_position(tmp_path, capsys):
    # -3 used to count from the end of the component, at f_BEN again, so
    # the document loaded, with its triple point on another row
    path = _scenario_file(tmp_path, "sphere_octa", _nerve(_membership("B,E", [0, -3])))
    code, out, err = run(capsys, "verify", path)
    assert (code, out) == (2, "")
    assert err == ("error: invalid scenario data: triple point f_BEN: bad membership "
                   "for ('B', 'E')\n")


def test_overflowing_pair_transition_reports_nan_as_strict_json(tmp_path, capsys):
    # conj(det D1) det D2 overflows, so the delta-consistency residual is
    # NaN; the worst residual keeps it, and the report stays strict JSON
    def edit(doc):
        doc["pair_cocycle"]["transitions"][0]["generator"]["params"]["first"] = [[1e308]]
    path = _scenario_file(tmp_path, "circle_mobius", edit)
    code, out, err = run(capsys, "verify", path, "--report", "json")
    assert (code, err) == (1, "")

    def reject(literal):
        raise AssertionError(f"non-standard JSON literal {literal}")

    record = next(c for c in json.loads(out, parse_constant=reject)["checks"]
                  if c["id"] == "pair_data.consistency")
    assert not record["pass"]
    assert record["max_residual"] == "nan"
    assert record["failures"] == [["delta-consistency", ["0", "1"], 0, "east", "nan"]]


@pytest.mark.parametrize("value", [1e24, 1e308])
def test_self_compat_passes_on_a_large_delta_sample(value, tmp_path, capsys):
    # the base values grow like |delta|^(1/2), and the square identity
    # is relative to delta, so it stays finite and within its bound
    def edit(doc):
        doc["self_compat"][0]["delta_samples"]["0"]["params"]["value"] = value
    path = _scenario_file(tmp_path, "trivial_r2", edit)
    code, out, err = run(capsys, "verify", path, "--report", "json")
    assert (code, err) == (0, "")
    records = [c for c in json.loads(out)["checks"] if c["id"].startswith("self_compat.")]
    assert [(c["id"], c["pass"]) for c in records] == [("self_compat.eps0", True),
                                                        ("self_compat.eps1", True)]
    assert all(0 <= c["max_residual"] < 1e-12 for c in records)


def test_overflowing_second_member_fails_induce_with_its_point(tmp_path, capsys):
    # normalizing the second member overflows at the first component's
    # point: induce names it, and no overflow warning reaches stderr
    def edit(doc):
        doc["pair_cocycle"]["transitions"][0]["generator"]["params"]["second"] = [[1e308]]
    path = _scenario_file(tmp_path, "circle_mobius", edit)
    code, out, err = run(capsys, "verify", path, "--report", "json")
    assert (code, err) == (1, "")
    record = next(c for c in json.loads(out)["checks"] if c["id"] == "induce.error")
    assert record["failures"] == [
        "ValidationError: normalized second member at east is not finite"]


def test_json_report_writes_non_finite_numbers_as_strings():
    report = VerificationReport(scenario="s", seed=0)
    report.add(CheckRecord("c", "a", max_residual=float("inf"),
                           details={"low": -float("inf"), "z": complex(float("nan"), 1.0)}))
    for fmt in ("json", "jsonl"):
        doc = json.loads(emit_report(report, fmt))
        assert doc["checks"][0]["max_residual"] == "inf"
        assert doc["checks"][0]["details"] == {"low": "-inf", "z": ["nan", 1.0]}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-digit limit in this interpreter")
@pytest.mark.parametrize("fmt", ["json", "jsonl", "text"])
def test_a_report_writes_an_int_of_any_length_in_full(fmt):
    # the class counts of a ring of 16,384 charts are 2**16384, past the
    # interpreter's limit of 4,300 digits on converting an int to a string
    big = 2 ** 20000
    report = VerificationReport(scenario="s", seed=0)
    report.add(CheckRecord("lift.class-count", "cocycle.lift-enumeration", passed=False,
                           failures=[("count", big)],
                           details={"valid_lifts": big, "coboundaries": 2}))
    limit = sys.get_int_max_str_digits()
    out = emit_report(report, fmt)
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(report, "xml")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        digits = str(big)
        doc = None if fmt == "text" else json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.count(digits) == (1 if fmt == "text" else 2)
    if doc is not None:
        check, = doc["checks"]
        assert check["details"] == {"valid_lifts": big, "coboundaries": 2}
        assert check["failures"] == [["count", big]]


def _frame_member(index, member, U, V):
    def edit(doc):
        doc["frame_pairs"][index][member]["params"] = {"U": U, "V": V}
    return edit


def _frame_pairs_report(tmp_path, capsys, edit, *argv):
    path = _scenario_file(tmp_path, "trivial_r2", edit)
    code, out, err = run(capsys, "verify", path, "--pipeline", "frame_pairs",
                         "--report", "json", *argv)
    assert "Traceback" not in err
    return code, {c["id"]: c for c in json.loads(out)["checks"]}


def test_frame_pairs_reports_a_wrong_expected_delta(tmp_path, capsys):
    def edit(doc):
        assert doc["frame_pairs"][3]["name"] == "vertical_holomorphic"
        doc["frame_pairs"][3]["expected_delta"] = 5.0
    code, checks = _frame_pairs_report(tmp_path, capsys, edit)
    assert code == 1
    check = checks["frame_pairs.delta-values"]
    assert check["pass"] is False
    assert check["failures"] == [["vertical_holomorphic", [0.0, 1.0]]]


@pytest.mark.parametrize("edit, error", [
    (_frame_member(1, "first", [[0]], [[0]]),
     "ValidationError: frame vectors dependent"),
    (_frame_member(4, "second", [[1]], [[0]]),
     "ValidationError: first k columns differ across the pair"),
    (_frame_member(0, "second", [[0]], [[1]]),
     "SingularityError: pairing determinant vanishes (invalid pair)"),
    # two bad pairs: the earlier pair's error is the one reported
    (_both(_frame_member(1, "first", [[0]], [[0]]),
           _frame_member(4, "second", [[1]], [[0]])),
     "ValidationError: frame vectors dependent"),
], ids=["dependent", "shared-columns", "vanishing-delta", "first-bad-pair"])
def test_frame_pairs_records_the_first_invalid_pair(edit, error, tmp_path, capsys):
    code, checks = _frame_pairs_report(tmp_path, capsys, edit)
    assert code == 1
    assert checks["frame_pairs.error"]["failures"] == [error]


def _half_delta_pair(doc):
    # |delta| = 0.5 exactly, and both frames have independence above 0.5
    doc["frame_pairs"] = [{
        "name": "half",
        "first": {"name": "frame_const", "params": {"U": [[1]], "V": [[0]]}},
        "second": {"name": "frame_const", "params": {"U": [[1]], "V": [[0.5]]}},
        "k": 0,
        "expected_delta": [0.0, -0.5],
    }]


def test_frame_pairs_delta_at_the_singular_bound_vanishes(tmp_path, capsys):
    code, checks = _frame_pairs_report(tmp_path, capsys, _half_delta_pair)
    assert code == 0
    assert checks["frame_pairs.delta-values"]["pass"] is True
    code, checks = _frame_pairs_report(tmp_path, capsys, _half_delta_pair,
                                       "--tolerance", "singular=0.5")
    assert code == 1
    assert checks["frame_pairs.error"]["failures"] == [
        "SingularityError: pairing determinant vanishes (invalid pair)"]


def _near_symplectic_mp(document_rel):
    """A circle_mobius edit whose first Mp transition is diag(1 + 1e-8, 1),
    symplectic only to 1e-8, with the document tolerance rel if given."""
    def edit(doc):
        anchor = doc["mp_cocycle"]["transitions"][0]["generator"]
        assert anchor["name"] == "mp_const"
        anchor["params"]["g"] = [[1 + 1e-8, 0], [0, 1]]
        if document_rel is not None:
            doc["tolerances"] = {"rel": document_rel}
    return edit


@pytest.mark.parametrize("document_rel, option, loads", [
    (1e-5, [], True),
    (None, ["--tolerance", "rel=1e-5"], True),
    (None, [], False),
], ids=["document", "option", "neither"])
def test_scenario_values_are_loaded_at_the_run_tolerances(document_rel, option,
                                                           loads, tmp_path, capsys):
    # the symplectic test at load reads the tolerances of the run: the
    # document's, with the command line's winning
    path = _scenario_file(tmp_path, "circle_mobius", _near_symplectic_mp(document_rel))
    code, out, err = run(capsys, "verify", path, *option, "--report", "json")
    if loads:
        assert code != 2, err
        assert json.loads(out)["tolerances"]["rel"] == 1e-5
    else:
        assert code == 2
        assert err.startswith("error: invalid scenario data: matrix is not symplectic, "
                              "residuals (9.99999993922529e-09, 0.0, 0.0)")


def test_text_report_failures_hold_python_floats(tmp_path, capsys):
    # zeta**2 misses det alpha(g, 0) = 1 by 2e-8: inside the load-time
    # check, outside the cocycle.mp membership bound
    def edit(doc):
        anchor = doc["mp_cocycle"]["transitions"][0]["generator"]
        assert anchor["params"]["g"] == [[1, 0], [0, 1]]
        anchor["params"]["zeta"] = [1.00000001, 0]

    path = _scenario_file(tmp_path, "circle_mobius", edit)
    code, out, _ = run(capsys, "verify", path, "--report", "text")
    assert code == 1
    assert "1.999999987845058e-08" in out
    assert "np." not in out
