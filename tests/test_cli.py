import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from acctuner import errors, pipeline
from acctuner.cli import main
from acctuner.evaluation import Measurement
from acctuner.pipeline import (
    EXIT_GATE_REJECT,
    EXIT_NO_OFFLOADABLE_LOOPS,
    EXIT_OK,
    PipelineConfig,
    run_pipeline,
)
from acctuner.ga import GAConfig
from acctuner.parser import MAX_NESTING

from conftest import FIXTURES, TUNE_FIXTURES, strip_pragmas

# the error rows of the README's exit-code table
EXIT_PARSE_ERROR, EXIT_PROFILE_ERROR, EXIT_EVALUATOR_FAILURE = 10, 11, 14
README_ERROR_EXIT_CODES = {
    "InvalidGenome": 1, "OutputError": 1, "UsageError": 2, "ParseError": 10,
    "ProfileError": 11, "EmptyGenome": 13, "ModelError": 14, "SpawnError": 14,
    "DomainError": 14, "Interrupted": 130,
}


@pytest.fixture
def workdir(tmp_path):
    for name in ("siblings3", "deep3"):
        for suffix in (".c", "_profile.json", "_model.json"):
            shutil.copy(FIXTURES / "tune" / f"{name}{suffix}", tmp_path)
    return tmp_path


def tune_args(workdir, stem="siblings3", **overrides):
    args = {
        "--source": str(workdir / f"{stem}.c"),
        "--profile": str(workdir / f"{stem}_profile.json"),
        "--evaluator": f"sim:{workdir}/{stem}_model.json",
        "--gens": "6",
        "--seed": "3",
        "--out": str(workdir / "annotated.c"),
        "--report": str(workdir / "report.json"),
    }
    args.update(overrides)
    return ["tune"] + [token for pair in args.items() for token in pair]


def test_analyze_dumps_loops(workdir, capsys):
    code = main(["analyze", "--source", str(workdir / "siblings3.c")])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["functions"] == ["main"]
    assert [loop["loop_id"] for loop in data["loops"]] == [0, 1, 2]
    assert all(loop["canonical"] for loop in data["loops"])
    assert any(acc["var"] == "a" and acc["kind"] == "set"
               for acc in data["accesses"])


def test_gate_pass_and_reject(workdir, capsys):
    args = ["gate", "--source", str(workdir / "siblings3.c"),
            "--profile", str(workdir / "siblings3_profile.json")]
    assert main(args) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["pass"] is True

    assert main(args + ["--gate-threshold", "99999999"]) == EXIT_GATE_REJECT
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_check_lists_verdicts(workdir, capsys):
    code = main(["check", "--source", str(workdir / "deep3.c")])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["gene_length"] == 3
    assert data["genome_map"] == [1, 2, 3]
    reasons = {v["loop_id"]: v["reason"] for v in data["verdicts"]}
    assert reasons[0] != "eligible"


def test_plan_transfers_json(workdir, capsys):
    code = main(["plan-transfers", "--source", str(workdir / "siblings3.c"),
                 "--genome", "100"])
    assert code == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["directives"]
    directive = data["directives"][0]
    assert set(directive) == {"target_loop", "clause", "vars", "origin_region"}
    assert directive["vars"] == sorted(directive["vars"])


def test_emit_writes_annotated_source(workdir):
    out = workdir / "emitted.c"
    code = main(["emit", "--source", str(workdir / "siblings3.c"),
                 "--genome", "100", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert "#pragma acc kernels" in text
    assert "#pragma acc data" in text


@pytest.mark.parametrize("stem", TUNE_FIXTURES)
def test_crlf_source_keeps_its_line_ends(tmp_path, stem):
    """A CRLF copy of a fixture comes back byte for byte under the all-zero
    genome; under its best genome (seed 1's report) only CRLF directive
    lines are added."""
    text = (FIXTURES / "tune" / f"{stem}.c").read_text().replace("\n", "\r\n")
    source = tmp_path / f"{stem}.c"
    source.write_bytes(text.encode())
    report = json.loads((FIXTURES / "outputs" / f"tune_{stem}_seed1.report.json").read_text())
    best = report["best"]["genome"]
    emitted = {}
    for genome in ("0" * len(best), best):
        out = tmp_path / f"{genome}.c"
        assert main(["emit", "--source", str(source), "--genome", genome,
                     "--out", str(out)]) == EXIT_OK
        emitted[genome] = out.read_bytes().decode()
    assert emitted["0" * len(best)] == text
    assert emitted[best] != text
    assert strip_pragmas(emitted[best]) == text
    assert "\n" not in emitted[best].replace("\r\n", "")


def test_emit_invalid_genome_errors(workdir, capsys):
    code = main(["emit", "--source", str(workdir / "deep3.c"),
                 "--genome", "110", "--out", str(workdir / "x.c")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InvalidGenome"


def test_tune_full_run(workdir, capsys):
    assert main(tune_args(workdir)) == EXIT_OK
    report = json.loads((workdir / "report.json").read_text())
    assert report["result"] == "ok"
    assert report["gate"]["pass"] is True
    assert report["config"]["effective_population"] == 3
    assert len(report["generations"]) == 6
    assert set(report["generations"][0]) == {
        "gen", "best_seconds", "best_fitness", "mean_fitness", "evals", "cache_hits"}
    assert set(report["best"]["genome"]) <= {"0", "1"}
    annotated = (workdir / "annotated.c").read_text()
    if "1" in report["best"]["genome"]:
        assert "#pragma acc kernels" in annotated


def test_tune_gate_reject_writes_report(workdir):
    code = main(tune_args(workdir, **{"--gate-threshold": "99999999"}))
    assert code == EXIT_GATE_REJECT
    report = json.loads((workdir / "report.json").read_text())
    assert report["result"] == "gate-reject"
    assert report["gate"]["pass"] is False
    assert "generations" not in report
    assert not (workdir / "annotated.c").exists()


def test_tune_no_offloadable_loops(workdir):
    src = workdir / "serial.c"
    src.write_text(
        "int main(){int i; float a[100];\n"
        "for(i=1;i<100;i++){ a[i] = a[i-1] + 1.0; }\n"
        "return 0;}\n")
    profile = workdir / "serial_profile.json"
    profile.write_text(json.dumps(
        {"loops": [{"id": 0, "entry_count": 1, "total_iterations": 20_000_000}]}))
    code = main(tune_args(workdir, **{
        "--source": str(src), "--profile": str(profile)}))
    assert code == EXIT_NO_OFFLOADABLE_LOOPS
    report = json.loads((workdir / "report.json").read_text())
    assert report["result"] == "no-offloadable-loops"
    assert report["verdicts"][0]["reason"] == "loop_carried_dependence"


def test_tune_parse_error_exit(workdir, capsys):
    bad = workdir / "bad.c"
    bad.write_text("int main(){goto L;}")
    code = main(tune_args(workdir, **{"--source": str(bad)}))
    assert code == EXIT_PARSE_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ParseError"
    assert err["error"]["exit_code"] == EXIT_PARSE_ERROR


@pytest.mark.parametrize("digits", ["\u00b2", "\u0661\u0662"])
def test_tune_non_ascii_digit_is_parse_error(workdir, capsys, digits):
    bad = workdir / "bad.c"
    bad.write_text(f"int main(){{ int x; x = {digits}; return 0; }}", encoding="utf-8")
    code = main(tune_args(workdir, **{"--source": str(bad)}))
    assert code == EXIT_PARSE_ERROR
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ParseError"
    assert err["exit_code"] == EXIT_PARSE_ERROR
    assert f"1:24: unexpected character {digits[0]!r}" in err["message"]


def test_tune_profile_error_exit(workdir, capsys):
    bad = workdir / "bad_profile.json"
    bad.write_text('{"loops":[]}')
    code = main(tune_args(workdir, **{"--profile": str(bad)}))
    assert code == EXIT_PROFILE_ERROR
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ProfileError"


@pytest.mark.parametrize("command", ["gate", "tune"])
def test_profile_with_unknown_loop_is_profile_error(workdir, capsys, command):
    # a record for a loop the program lacks: a profile of another version
    profile = json.loads((workdir / "siblings3_profile.json").read_text())
    profile["loops"].append({"id": 99, "entry_count": 1, "total_iterations": 1})
    extra = workdir / "extra_profile.json"
    extra.write_text(json.dumps(profile))
    if command == "gate":
        argv = ["gate", "--source", str(workdir / "siblings3.c"), "--profile", str(extra)]
    else:
        argv = tune_args(workdir, **{"--profile": str(extra)})
    assert main(argv) == EXIT_PROFILE_ERROR
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ProfileError"
    assert "[99]" in error["message"]
    assert not (workdir / "report.json").exists()


def test_tune_defaults_are_gaconfig_defaults(monkeypatch):
    seen = []

    def fake_run_pipeline(cfg):
        seen.append(cfg)
        return EXIT_OK, {"result": "ok"}

    monkeypatch.setattr("acctuner.cli.run_pipeline", fake_run_pipeline)
    argv = ["tune", "--source", "p.c", "--profile", "p.json", "--evaluator", "sim:m.json",
            "--out", "best.c", "--report", "report.json"]
    assert main(argv) == EXIT_OK
    assert seen[0].ga == GAConfig()


def test_tune_missing_cost_model_no_partial_report(workdir, capsys):
    report_path = workdir / "report.json"
    code = main(tune_args(workdir, **{
        "--evaluator": f"sim:{workdir}/absent_model.json"}))
    assert code == EXIT_EVALUATOR_FAILURE
    assert not report_path.exists()
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ModelError"


LOOP_COST = {"cpu_us_per_iter": 1.0, "gpu_speedup": 2.0, "kernel_launch_us": 0.0}


@pytest.mark.parametrize("entry,value", [
    (("loops",), []), (("vars",), []), (("transfer_fixed_us",), float("nan")),
    (("loops", "0", "cpu_us_per_iter"), float("inf")),
    # loop keys are loop ids in decimal: "1_0" is not loop 10, "01" not loop 1
    (("loops", "1_0"), LOOP_COST), (("loops", "01"), LOOP_COST),
    # and name only loops of the program, as a profile's ids do
    (("loops", "99"), LOOP_COST), (("loops", "-1"), LOOP_COST),
    # the message quotes a long key or value in part
    (("loops", "0" * 3000), LOOP_COST),
    pytest.param(("loops", "0", "gpu_speedup"), "x" * 3000, id="3000-letter value")])
def test_tune_bad_cost_model_is_model_error(workdir, capsys, entry, value):
    model = json.loads((workdir / "siblings3_model.json").read_text())
    record = model
    for key in entry[:-1]:
        record = record[key]
    record[entry[-1]] = value
    path = workdir / "bad_model.json"
    path.write_text(json.dumps(model))     # NaN and Infinity as Python writes them
    code = main(tune_args(workdir, **{"--evaluator": f"sim:{path}"}))
    assert code == EXIT_EVALUATOR_FAILURE
    error = error_of(capsys)
    assert error["type"] == "ModelError"
    assert error["exit_code"] == EXIT_EVALUATOR_FAILURE
    assert len(error["message"]) < 300, error["message"]
    assert not (workdir / "report.json").exists()


def test_tune_cost_model_missing_a_loop_fails_before_the_search(workdir, capsys, monkeypatch):
    model = json.loads((workdir / "siblings3_model.json").read_text())
    del model["loops"]["2"]
    path = workdir / "bad_model.json"
    path.write_text(json.dumps(model))
    monkeypatch.setattr(pipeline, "run_ga", None)    # the search must not start
    code = main(tune_args(workdir, **{"--evaluator": f"sim:{path}"}))
    assert code == EXIT_EVALUATOR_FAILURE
    assert error_of(capsys) == {"type": "ModelError", "exit_code": EXIT_EVALUATOR_FAILURE,
                                "message": f"cost model {path}: missing loop ids [2]"}
    assert not (workdir / "report.json").exists()


def test_tune_zero_simulated_time_is_evaluator_failure(workdir, capsys):
    model = json.loads((workdir / "siblings3_model.json").read_text())
    for cost in model["loops"].values():
        cost.update(cpu_us_per_iter=0.0, kernel_launch_us=0.0)
    model.update(transfer_fixed_us=0.0, transfer_us_per_kib=0.0)
    path = workdir / "zero_model.json"
    path.write_text(json.dumps(model))
    code = main(tune_args(workdir, **{"--evaluator": f"sim:{path}"}))
    assert code == EXIT_EVALUATOR_FAILURE
    error = error_of(capsys)
    assert error["type"] == "DomainError"
    assert error["exit_code"] == EXIT_EVALUATOR_FAILURE
    assert not (workdir / "report.json").exists()


def test_tune_long_sum(workdir):
    # a 5,000-term left-deep chain: parsed and walked without recursion
    source = (workdir / "siblings3.c").read_text()
    long_sum = "a[i] = b[i]" + " + b[i]" * 4999 + ";"
    (workdir / "siblings3.c").write_text(source.replace("a[i] = b[i] * 2.0;", long_sum))
    assert main(tune_args(workdir)) == EXIT_OK
    report = json.loads((workdir / "report.json").read_text())
    assert report["genome_map"] == [0, 1, 2]


# (prefix, opener, column of the level it opens within it, innermost text,
# closer, suffix): with the function's braces as level 1, `n - 1` openers
# nest the program n levels deep
NESTING = {
    "blocks": ("int main(){ int x; x = 1; ", "{", 0, "x = 2;", "}", " return x; }"),
    "for": ("int main(){ int i; int x; x = 1; ", "for(i=0;i<2;i++){", 16, "x = 2;", "}",
            " return x; }"),
    "unbraced_if": ("int main(){ int x; x = 1; ", "if (x) ", 7, "x = 2;", "", " return x; }"),
    "parentheses": ("int main(){ int x; x = ", "(", 0, "1", ")", "; return x; }"),
    "operators": ("int main(){ int a; a = 1; a = ", "a || a && a == a < a + a * (", 27, "a",
                  ")", "; return a; }"),
    "calls": ("int main(){ int x; x = ", "f(", 1, "1", ")", "; return x; }"),
    "brackets": ("int main(){ int a[2]; int x; x = ", "a[", 1, "0", "]", "; return x; }"),
    "unary": ("int main(){ int x; x = ", "!", 0, "1", "", "; return x; }"),
}


def nested_source(construct: str, levels: int) -> str:
    prefix, opener, _, inner, closer, suffix = NESTING[construct]
    return prefix + opener * (levels - 1) + inner + closer * (levels - 1) + suffix + "\n"


@pytest.mark.parametrize("construct", sorted(NESTING))
def test_analyze_at_nesting_limit(workdir, capsys, construct):
    path = workdir / "deep.c"
    path.write_text(nested_source(construct, MAX_NESTING))
    assert main(["analyze", "--source", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["functions"] == ["main"]


@pytest.mark.parametrize("construct", sorted(NESTING))
def test_nesting_past_limit_is_parse_error(workdir, capsys, construct):
    path = workdir / "deep.c"
    path.write_text(nested_source(construct, MAX_NESTING + 1))
    assert main(["analyze", "--source", str(path)]) == EXIT_PARSE_ERROR
    error = error_of(capsys)
    assert error["type"] == "ParseError"
    assert error["exit_code"] == EXIT_PARSE_ERROR
    prefix, opener, at = NESTING[construct][:3]
    col = len(prefix) + len(opener) * (MAX_NESTING - 1) + at + 1
    assert error["message"] == f"{path}:1:{col}: nesting deeper than {MAX_NESTING} levels"


def test_tune_byte_identical_reruns(workdir):
    out_a = workdir / "a.c"
    out_b = workdir / "b.c"
    rep_a = workdir / "a.json"
    rep_b = workdir / "b.json"
    assert main(tune_args(workdir, **{"--out": str(out_a), "--report": str(rep_a)})) == EXIT_OK
    assert main(tune_args(workdir, **{"--out": str(out_b), "--report": str(rep_b)})) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    assert rep_a.read_bytes() == rep_b.read_bytes()


def test_tune_with_command_evaluator(workdir):
    # stub commands: compilation always succeeds, the run is a no-op
    cmd_config = workdir / "cmd.json"
    cmd_config.write_text(json.dumps({
        "compile_cmd": "cp '{src}' '{bin}'",
        "run_cmd": "test -f '{bin}'",
        "workdir": str(workdir),
    }))
    code = main(tune_args(workdir, **{
        "--evaluator": f"cmd:{cmd_config}",
        "--gens": "2", "--pop": "2",
    }))
    assert code == EXIT_OK
    report = json.loads((workdir / "report.json").read_text())
    assert report["best"]["status"] in ("measured", "cachehit")
    assert not list(workdir.glob("trial_*"))


def fixture_tune(tmp_path, directory, stem, evaluator, *extra) -> list[str]:
    """The argv of a `tune` of a fixture, its outputs under tmp_path."""
    return ["tune", "--source", str(directory / f"{stem}.c"),
            "--profile", str(directory / f"{stem}_profile.json"), "--evaluator", evaluator,
            *extra, "--out", str(tmp_path / "out.c"), "--report", str(tmp_path / "report.json")]


def interrupt_run(argv, started, signum=signal.SIGINT):
    """Run acctuner with argv in a subprocess, send it signum once
    `started()` holds, and check that it ends within 2 s with exit 130, one
    JSON error line on stderr and none of its --out and --report files.  A
    run still going after 2 s gets SIGABRT, on which faulthandler writes
    every thread's traceback to the stderr that the failure shows."""
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent.parent / "src"),
           "PYTHONFAULTHANDLER": "1"}
    # A shell starts a background job with SIGINT ignored, a child inherits
    # that, and Python raises KeyboardInterrupt only for a SIGINT left at its
    # default.  A caught signal resets to its default across exec, so the
    # child starts with SIGINT at its default however pytest was started.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        proc = subprocess.Popen([sys.executable, "-m", "acctuner", *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    finally:
        signal.signal(signal.SIGINT, previous)
    with proc:
        try:
            deadline = time.monotonic() + 30
            while not started() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert started(), "the run did not start"
            assert proc.poll() is None, "the run ended before the interrupt"
            proc.send_signal(signum)
            try:
                _, stderr = proc.communicate(timeout=2)
            except subprocess.TimeoutExpired:
                proc.send_signal(signal.SIGABRT)
                _, stderr = proc.communicate(timeout=10)
                pytest.fail(f"the run went on 2 s after {signum.name}; its stderr:\n{stderr}")
        finally:
            proc.kill()
            proc.wait()
    assert proc.returncode == 130, stderr
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    assert json.loads(lines[0]) == {"error": {
        "type": "Interrupted", "message": "interrupted", "exit_code": 130}}
    outputs = [argv[k + 1] for k, token in enumerate(argv) if token in ("--out", "--report")]
    assert outputs and not any(os.path.exists(path) for path in outputs)


def slow_step_config(tmp_path, step: str) -> str:
    """A cmd: config whose given step marks its start, then would mark a
    late finish, and whose other step succeeds at once."""
    config = tmp_path / "cmd.json"
    config.write_text(json.dumps({
        "compile_cmd": "true", "run_cmd": "true", "workdir": str(tmp_path),
        step: "touch '{bin}.started'; sleep 3; touch '{bin}.late'"}))
    return f"cmd:{config}"


def assert_nothing_left_late(tmp_path):
    time.sleep(4)
    assert not list(tmp_path.glob("*.late"))
    assert not list(tmp_path.glob("trial_*.c"))    # the trial sources are removed


# kill, timeout(1) and CI cancellation send SIGTERM, which stops a run as SIGINT does
@pytest.mark.parametrize("workers, signum", [
    pytest.param(1, signal.SIGINT, id="1"),
    pytest.param(2, signal.SIGINT, id="2"),
    pytest.param(2, signal.SIGTERM, id="2-SIGTERM"),
])
def test_interrupt_stops_the_running_trials(tmp_path, workers, signum):
    interrupt_run(fixture_tune(tmp_path, FIXTURES / "tune", "mix10",
                               slow_step_config(tmp_path, "run_cmd"),
                               "--gens", "2", "--workers", str(workers)),
                  lambda: len(list(tmp_path.glob("*.started"))) == workers, signum)
    assert_nothing_left_late(tmp_path)


def test_interrupt_stops_the_compile_probe(tmp_path):
    # the probe runs on the main thread, not on the search's pool
    oracle = slow_step_config(tmp_path, "compile_cmd")
    interrupt_run(["check", "--source", str(FIXTURES / "tune" / "mix10.c"),
                   "--oracle", oracle, "--out", str(tmp_path / "verdicts.json")],
                  lambda: bool(list(tmp_path.glob("*.started"))))
    assert_nothing_left_late(tmp_path)


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_stops_a_simulated_tune(tmp_path, workers):
    start = time.monotonic()
    interrupt_run(fixture_tune(tmp_path, FIXTURES / "stress", "stress75",
                               f"sim:{FIXTURES / 'stress' / 'stress75_model.json'}",
                               "--gens", "200", "--workers", str(workers)),
                  lambda: time.monotonic() - start > 1)


def test_run_pipeline_api_matches_cli(workdir):
    cfg = PipelineConfig(
        source=str(workdir / "siblings3.c"),
        profile=str(workdir / "siblings3_profile.json"),
        evaluator=f"sim:{workdir}/siblings3_model.json",
        ga=GAConfig(generations=6, rng_seed=3),
        out=str(workdir / "api.c"),
        report=str(workdir / "api.json"),
    )
    code, report = run_pipeline(cfg)
    assert code == EXIT_OK
    cli_code = main(tune_args(workdir))
    assert cli_code == EXIT_OK
    cli_report = json.loads((workdir / "report.json").read_text())
    assert report["best"] == cli_report["best"]
    assert report["generations"] == cli_report["generations"]


def test_tune_survives_all_invalid_search(workdir):
    # a two-loop nest where every individual of the single generation is the
    # invalid nested selection; the pipeline reports instead of crashing
    src = workdir / "nest.c"
    src.write_text(
        "int main(){int i; int j; float m[10][10]; float b[10][10];\n"
        "for(i=0;i<10;i++){ for(j=0;j<10;j++){ m[i][j] = b[i][j]; }}\n"
        "m[0][0] = 1.0;\n"
        "return 0;}\n")
    profile = workdir / "nest_profile.json"
    profile.write_text(json.dumps({"loops": [
        {"id": 0, "entry_count": 1, "total_iterations": 10_000_000},
        {"id": 1, "entry_count": 10, "total_iterations": 10_000_000},
    ]}))
    model = workdir / "nest_model.json"
    model.write_text(json.dumps({
        "loops": {"0": {"cpu_us_per_iter": 1.0, "gpu_speedup": 2.0,
                        "kernel_launch_us": 0.0},
                  "1": {"cpu_us_per_iter": 1.0, "gpu_speedup": 2.0,
                        "kernel_launch_us": 0.0}},
        "vars": {"m": {"size_bytes": 400}, "b": {"size_bytes": 400}},
        "transfer_fixed_us": 1.0, "transfer_us_per_kib": 1.0,
    }))
    # seed 4 initializes a 2-gene, size-2 population to ["11", "11"]
    code = main(tune_args(workdir, **{
        "--source": str(src), "--profile": str(profile),
        "--evaluator": f"sim:{model}", "--gens": "1", "--seed": "4"}))
    assert code == EXIT_NO_OFFLOADABLE_LOOPS
    report = json.loads((workdir / "report.json").read_text())
    assert report["result"] == "no-valid-genome-evaluated"
    assert report["best"]["status"] == "invalid"
    assert not (workdir / "annotated.c").exists()


def test_check_oracle_template_may_name_bin(workdir, capsys):
    config = workdir / "oracle.json"
    config.write_text(json.dumps({"compile_cmd": "cp '{src}' '{bin}'",
                                  "workdir": str(workdir)}))
    code = main(["check", "--source", str(workdir / "deep3.c"),
                 "--oracle", f"cmd:{config}"])
    assert code == EXIT_OK
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["reason"] for v in verdicts] == ["eligible"] * 4
    assert not list(workdir.glob("trial_*"))


def test_tune_cmd_long_genome(workdir):
    # 260 eligible loops: a trial named after its genome would exceed the
    # file-name limit of 255 bytes
    loops = 260
    src = workdir / "flat.c"
    src.write_text("int main(){int i; float a[10];\n"
                   + "for(i=0;i<10;i++){ a[i] = 1.0; }\n" * loops + "return 0;}\n")
    profile = workdir / "flat_profile.json"
    profile.write_text(json.dumps({"loops": [
        {"id": k, "entry_count": 1, "total_iterations": 10_000_000} for k in range(loops)]}))
    cmd_config = workdir / "cmd.json"
    cmd_config.write_text(json.dumps({"compile_cmd": "true", "run_cmd": "true",
                                      "workdir": str(workdir)}))
    code = main(tune_args(workdir, **{
        "--source": str(src), "--profile": str(profile),
        "--evaluator": f"cmd:{cmd_config}", "--gens": "1", "--pop": "2"}))
    assert code == EXIT_OK
    report = json.loads((workdir / "report.json").read_text())
    assert len(report["genome_map"]) == loops
    assert not list(workdir.glob("trial_*"))


def error_of(capsys) -> dict:
    """The error of the one JSON line written to stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize("config", [None, "{not json", '{"workdir": "."}',
                                    '{"compile_cmd": "true", "workdir": "absent"}',
                                    '{"compile_cmd": "${CC} -c {src}"}',
                                    '{"compile_cmd": "cp {src"}',
                                    # a key of neither format, in full or quoted in part
                                    '{"compile_cmd": "true", "work_dir": "absent"}',
                                    pytest.param('{"compile_cmd": "true", "' + "k" * 3000 + '": 1}',
                                                 id="long-key")])
def test_check_bad_oracle_config_is_evaluator_failure(workdir, capsys, config):
    path = workdir / "oracle.json"
    if config is not None:
        path.write_text(config)
    code = main(["check", "--source", str(workdir / "deep3.c"),
                 "--oracle", f"cmd:{path}"])
    assert code == EXIT_EVALUATOR_FAILURE
    error = error_of(capsys)
    assert error["type"] == "SpawnError"
    assert error["exit_code"] == EXIT_EVALUATOR_FAILURE
    assert len(error["message"]) < 300, error["message"]


@pytest.mark.parametrize("config", [
    {"compile_cmd": 5, "run_cmd": "true"},
    {"compile_cmd": "true", "run_cmd": ["true"]},
    {"compile_cmd": "true", "run_cmd": "true", "workdir": "absent"},
    {"compile_cmd": "true", "run_cmd": "awk '{print}' {bin}"},
    {"compile_cmd": "true"},
    # the message quotes a long template and its bad field, or a long workdir, in part
    {"compile_cmd": "true " + "x" * 3000 + " {" + "y" * 3000 + "}", "run_cmd": "true"},
    {"compile_cmd": "true", "run_cmd": "true", "workdir": "w" * 3000},
    # a key of neither format, in full or quoted in part
    {"compile_cmd": "true", "run_cmd": "true", "work_dir": "absent"},
    {"compile_cmd": "true", "run_cmd": "true", "k" * 3000: 1},
])
def test_tune_bad_cmd_config_is_evaluator_failure(workdir, capsys, config):
    path = workdir / "cmd.json"
    path.write_text(json.dumps(config))
    code = main(tune_args(workdir, **{"--evaluator": f"cmd:{path}"}))
    assert code == EXIT_EVALUATOR_FAILURE
    error = error_of(capsys)
    assert error["type"] == "SpawnError"
    assert error["exit_code"] == EXIT_EVALUATOR_FAILURE
    assert len(error["message"]) < 300, error["message"]
    if "run_cmd" not in config:
        assert error["message"].endswith(": missing key 'run_cmd'")


@pytest.mark.parametrize("command,error_type", [("tune", "ModelError"), ("check", "SpawnError")])
def test_unknown_evaluator_or_oracle_kind_is_evaluator_failure(workdir, capsys, command,
                                                               error_type):
    # an --evaluator is sim: or cmd:, an --oracle builtin or cmd:
    args = (tune_args(workdir, **{"--evaluator": "foo:x"}) if command == "tune"
            else ["check", "--source", str(workdir / "deep3.c"), "--oracle", "foo"])
    assert main(args) == EXIT_EVALUATOR_FAILURE
    error = error_of(capsys)
    assert (error["type"], error["exit_code"]) == (error_type, EXIT_EVALUATOR_FAILURE)
    assert "foo" in error["message"]
    assert not (workdir / "report.json").exists()


LONG_INT = "1" + "0" * 5000     # past Python's 4,300-digit limit for int()
GOOD_INPUTS = {"source": "siblings3.c", "profile": "siblings3_profile.json",
               "model": "siblings3_model.json"}


@pytest.mark.parametrize("kind,defect", [
    ("source", "non_utf8"), ("profile", "non_utf8"), ("model", "non_utf8"),
    ("cmd", "non_utf8"), ("profile", "deep"), ("model", "deep"), ("cmd", "deep"),
    ("profile", "long_int"), ("model", "long_int")])
def test_unreadable_input_is_its_loader_error(workdir, capsys, kind, defect):
    good = (workdir / GOOD_INPUTS[kind]).read_bytes() if kind in GOOD_INPUTS \
        else b'{"compile_cmd": "true", "run_cmd": "true"}'
    bad = workdir / f"bad_{kind}"
    if defect == "non_utf8":
        bad.write_bytes(good + b"\n\xff\n")
    elif defect == "deep":
        bad.write_text("[" * 200_000)
    else:
        first_count = "10000000" if kind == "profile" else "4000000"
        bad.write_text(good.decode().replace(first_count, LONG_INT, 1))
    argv, code, error_type = {
        "source": (["analyze", "--source", str(bad)], EXIT_PARSE_ERROR, "ParseError"),
        "profile": (["gate", "--source", str(workdir / "siblings3.c"), "--profile", str(bad)],
                    EXIT_PROFILE_ERROR, "ProfileError"),
        "model": (tune_args(workdir, **{"--evaluator": f"sim:{bad}"}),
                  EXIT_EVALUATOR_FAILURE, "ModelError"),
        "cmd": (tune_args(workdir, **{"--evaluator": f"cmd:{bad}"}),
                EXIT_EVALUATOR_FAILURE, "SpawnError"),
    }[kind]
    assert main(argv) == code
    error = error_of(capsys)
    assert (error["type"], error["exit_code"]) == (error_type, code)
    assert "cannot read" in error["message"]
    assert not (workdir / "report.json").exists()


@pytest.mark.parametrize("field", ["entry_count", "total_iterations"])
def test_profile_count_past_int64_is_profile_error(workdir, capsys, field):
    profile = json.loads((workdir / "siblings3_profile.json").read_text())
    profile["loops"][0][field] = 10**400
    path = workdir / "huge_profile.json"
    path.write_text(json.dumps(profile))
    assert main(tune_args(workdir, **{"--profile": str(path)})) == EXIT_PROFILE_ERROR
    error = error_of(capsys)
    assert (error["type"], error["exit_code"]) == ("ProfileError", EXIT_PROFILE_ERROR)
    assert len(error["message"]) < 300, error["message"]
    assert not (workdir / "report.json").exists()


def test_tune_infinite_simulated_time_is_evaluator_failure(workdir, capsys):
    # a finite per-iteration cost whose product with loop 0's count is not
    model = json.loads((workdir / "siblings3_model.json").read_text())
    model["loops"]["0"]["cpu_us_per_iter"] = 1e305
    path = workdir / "huge_model.json"
    path.write_text(json.dumps(model))
    assert main(tune_args(workdir, **{"--evaluator": f"sim:{path}"})) == EXIT_EVALUATOR_FAILURE
    error = error_of(capsys)
    assert (error["type"], error["exit_code"]) == ("DomainError", EXIT_EVALUATOR_FAILURE)
    assert not (workdir / "report.json").exists()


@pytest.mark.parametrize("flag,value", [("--pop", "1"), ("--workers", "0"),
                                        ("--penalty", "nan"), ("--timeout", "inf"),
                                        ("--timeout", "1e10")])
def test_tune_bad_ga_option_is_usage_error(workdir, capsys, flag, value):
    code = main(tune_args(workdir, **{flag: value}))
    assert code == 2
    error = error_of(capsys)
    assert error["type"] == "UsageError"
    assert error["exit_code"] == 2
    assert not (workdir / "report.json").exists()


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_tune_output_into_missing_directory(workdir, capsys, flag):
    code = main(tune_args(workdir, **{flag: str(workdir / "absent" / "x")}))
    assert code == 1
    error = error_of(capsys)
    assert error["type"] == "OutputError"
    assert error["exit_code"] == 1


def test_json_dump_into_missing_directory(workdir, capsys):
    code = main(["analyze", "--source", str(workdir / "siblings3.c"),
                 "--out", str(workdir / "absent" / "x.json")])
    assert code == 1
    assert error_of(capsys)["type"] == "OutputError"


def test_python_m_acctuner_help():
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "acctuner", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: acctuner")


@pytest.mark.parametrize("name", README_ERROR_EXIT_CODES)
def test_error_type_declares_its_readme_exit_code(name):
    assert getattr(errors, name).exit_code == README_ERROR_EXIT_CODES[name]


def test_error_exit_code_table_is_complete():
    declared = {name for name, value in vars(errors).items() if isinstance(value, type)
                and issubclass(value, errors.AutotunerError) and value is not errors.AutotunerError}
    assert declared == set(README_ERROR_EXIT_CODES)


@pytest.mark.parametrize("command", ["plan-transfers", "emit"])
def test_genome_command_without_eligible_loop_is_empty_genome(workdir, capsys, command):
    src = workdir / "serial.c"
    src.write_text("int main(){int i; float a[100];\n"
                   "for(i=1;i<100;i++){ a[i] = a[i-1] + 1.0; }\n"
                   "return 0;}\n")
    assert main([command, "--source", str(src), "--genome", "1"]) == EXIT_NO_OFFLOADABLE_LOOPS
    error = error_of(capsys)
    assert (error["type"], error["exit_code"]) == ("EmptyGenome", EXIT_NO_OFFLOADABLE_LOOPS)


# a backslash before the newline, after blanks or before '\r\n' too, joins
# the next line to a '//' comment or a '#' line, so the loop is commented out
@pytest.mark.parametrize("joiner", ["// note \\\n", "#define X 1 \\\n",
                                    "// note \\  \n", "// note \\\r\n"],
                         ids=["comment", "define", "blanks", "crlf"])
def test_loop_on_a_joined_comment_line_is_no_loop(workdir, capsys, joiner):
    src = workdir / "joined.c"
    src.write_text(f"int main() {{\n int i;\n float a[8];\n {joiner}"
                   " for (i = 0; i < 8; i++) { a[i] = 1.0; }\n return 0;\n}\n")
    assert main(["check", "--source", str(src)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdicts"] == []
    assert main(["emit", "--source", str(src), "--genome", "1"]) == EXIT_NO_OFFLOADABLE_LOOPS
    assert error_of(capsys)["type"] == "EmptyGenome"


def test_loop_after_a_joined_comment_keeps_its_line(workdir, capsys):
    src = workdir / "joined.c"
    src.write_text("int main() {\n int i;\n float a[8];\n // first \\\n second\n"
                   " for (i = 0; i < 8; i++) { a[i] = 1.0; }\n return 0;\n}\n")
    assert main(["analyze", "--source", str(src)]) == EXIT_OK
    [loop] = json.loads(capsys.readouterr().out)["loops"]
    assert (loop["line"], loop["col"]) == (6, 2)


def test_tune_where_every_build_fails_measures_nothing(workdir, capsys):
    for suffix in (".c", "_profile.json"):
        shutil.copy(FIXTURES / "tune" / f"mix10{suffix}", workdir)
    config = workdir / "failing.json"
    config.write_text(json.dumps({"compile_cmd": "false", "run_cmd": "true"}))
    code = main(tune_args(workdir, "mix10", **{
        "--evaluator": f"cmd:{config}", "--gens": "5", "--seed": "1"}))
    assert code == EXIT_NO_OFFLOADABLE_LOOPS
    assert capsys.readouterr().out == "no-valid-genome-evaluated\n"
    report = json.loads((workdir / "report.json").read_text())
    assert report["result"] == "no-valid-genome-evaluated"
    assert report["best"]["status"] == "invalid"
    assert not (workdir / "annotated.c").exists()


@pytest.mark.parametrize("status", ["invalid", "timeout"])
def test_search_with_every_trial_failed_emits_nothing(workdir, monkeypatch, status):
    monkeypatch.setattr(pipeline, "build_evaluator",
                        lambda *args: lambda bits: Measurement(0.01, status))
    cfg = PipelineConfig(
        source=str(workdir / "siblings3.c"),
        profile=str(workdir / "siblings3_profile.json"),
        evaluator="unused",
        ga=GAConfig(population=2, generations=3),
        out=str(workdir / "best.c"),
        report=str(workdir / "report.json"),
    )
    code, report = run_pipeline(cfg)
    assert (code, report["result"]) == (EXIT_NO_OFFLOADABLE_LOOPS, "no-valid-genome-evaluated")
    assert report["best"]["status"] == status
    assert not (workdir / "best.c").exists()


# an ASCII locale without UTF-8 mode: a write in the locale's encoding fails
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def run_acctuner(*args, stdout=subprocess.PIPE):
    env = {**os.environ, **ASCII_LOCALE, "PYTHONPATH": str(FIXTURES.parent.parent / "src")}
    return subprocess.run([sys.executable, "-m", "acctuner", *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=60)


OFFSET_LOOP = ("int main(){{int i; float a[10];\n"
               "for(i=0;i<10;i++){{ a[i + {}] = 1.0; }}\nreturn 0;}}\n")


@pytest.mark.parametrize("text,fragment", [
    (OFFSET_LOOP.format("9" * 400), "constant"), (OFFSET_LOOP.format("08"), "constant"),
    ("int main(){int x; x = 1 " + "9" * 5000 + ";}\n", "expected ';'")],
    ids=["400 nines", "08", "5000 nines after a number"])
def test_check_of_bad_integer_constant_is_one_json_error(tmp_path, text, fragment):
    # a 400-digit offset once ended check in an OverflowError traceback, and
    # a message once quoted a 5000-digit token in full
    src = tmp_path / "big.c"
    src.write_text(text)
    proc = run_acctuner("check", "--source", str(src))
    assert proc.returncode == EXIT_PARSE_ERROR
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and len(lines[0]) < 300, lines
    error = json.loads(lines[0])["error"]
    assert (error["type"], error["exit_code"]) == ("ParseError", EXIT_PARSE_ERROR)
    assert fragment in error["message"]


def is_annotation_of(output: bytes, source: bytes) -> bool:
    """True when output is source plus at least one `#pragma acc` line."""
    text = output.decode("utf-8")
    return strip_pragmas(text).encode("utf-8") == source and "#pragma acc " in text


@pytest.fixture
def euro_source(workdir):
    src = workdir / "euro.c"
    src.write_bytes("// cost in € per run\n".encode("utf-8")
                    + (workdir / "siblings3.c").read_bytes())
    return src


def test_emit_non_ascii_source_to_file_under_ascii_locale(workdir, euro_source):
    out = workdir / "x.c"
    proc = run_acctuner("emit", "--source", str(euro_source), "--genome", "100",
                        "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert is_annotation_of(out.read_bytes(), euro_source.read_bytes())


def test_emit_non_ascii_source_to_stdout_under_ascii_locale(euro_source):
    proc = run_acctuner("emit", "--source", str(euro_source), "--genome", "100")
    assert proc.returncode == 0, proc.stderr
    assert is_annotation_of(proc.stdout, euro_source.read_bytes())


def test_sim_tune_of_non_ascii_source_under_ascii_locale(workdir, euro_source):
    proc = run_acctuner(*tune_args(workdir, **{"--source": str(euro_source)}))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"ok\n"
    assert is_annotation_of((workdir / "annotated.c").read_bytes(), euro_source.read_bytes())


def test_cmd_trial_of_non_ascii_source_under_ascii_locale(workdir, euro_source):
    # the probe's compile step keeps a copy of each trial source it is given
    captured = workdir / "captured"
    captured.mkdir()
    config = workdir / "oracle.json"
    config.write_text(json.dumps({"compile_cmd": f"cp '{{src}}' '{captured}'"}))
    proc = run_acctuner("check", "--source", str(euro_source), "--oracle", f"cmd:{config}")
    assert proc.returncode == 0, proc.stderr
    trials = sorted(captured.iterdir())
    assert len(trials) == 3
    for trial in trials:
        assert is_annotation_of(trial.read_bytes(), euro_source.read_bytes())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_analyze_to_a_full_device_is_output_error(workdir):
    with open("/dev/full", "wb") as full:
        proc = run_acctuner("analyze", "--source", str(workdir / "siblings3.c"), stdout=full)
    assert proc.returncode == 1
    [line] = proc.stderr.decode().splitlines()
    error = json.loads(line)["error"]
    assert (error["type"], error["exit_code"]) == ("OutputError", 1)


# '*', backslash-newline, '/' closes the first comment, so the loop is code
SPLICED_COMMENT_END = ("int main() { int i; float a[8]; /* note *\\\n"
                       "/ for (i = 0; i < 8; i++) { a[i] = 1.0; } /* end */ return 0; }\n")


def test_loop_after_a_spliced_comment_end_is_a_loop(workdir, capsys):
    src = workdir / "spliced.c"
    src.write_text(SPLICED_COMMENT_END)
    assert main(["check", "--source", str(src)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["genome_map"] == [0]
    assert main(["analyze", "--source", str(src)]) == EXIT_OK
    [loop] = json.loads(capsys.readouterr().out)["loops"]
    assert (loop["line"], loop["col"]) == (2, 3)
