import json
import time
from pathlib import Path

import pytest

from acctuner import evaluation
from acctuner.analysis import GenomeMap, ProfileEntry
from acctuner.errors import ModelError, SpawnError
from acctuner.evaluation import (
    CommandEvaluatorConfig,
    CostModel,
    LoopCost,
    Measurement,
    command_evaluate,
    load_cost_model,
    simulate_time,
)
from acctuner.loops import LoopNode, SourcePos
from acctuner.pipeline import build_evaluator
from acctuner.transfer import DataDirective, TransferPlan

from conftest import analyze


def single_loop_setup():
    tree = [LoopNode(0, "for", (), "main", SourcePos(1, 1), "i")]
    profile = {0: ProfileEntry(1, 1_000_000)}
    return tree, profile, GenomeMap((0,))


EMPTY_PLAN = TransferPlan(())


def test_simulate_cpu_only():
    tree, profile, gm = single_loop_setup()
    model = CostModel({0: LoopCost(1.0, 10.0, 100.0)}, {}, 10.0, 1.0)
    m = simulate_time(model, "0", gm, tree, profile, EMPTY_PLAN)
    assert m == Measurement(1.0, "measured")


def test_simulate_offloaded_with_copy():
    tree, profile, gm = single_loop_setup()
    model = CostModel({0: LoopCost(1.0, 10.0, 100.0)}, {"a": 1024.0}, 10.0, 1.0)
    plan = TransferPlan((DataDirective(0, "copy", ("a",), 0),))
    m = simulate_time(model, "1", gm, tree, profile, plan)
    assert m.seconds == pytest.approx(0.100111, abs=1e-12)


def test_simulate_speedup_one_neutrality():
    tree, profile, gm = single_loop_setup()
    model = CostModel({0: LoopCost(1.0, 1.0, 0.0)}, {}, 10.0, 1.0)
    off = simulate_time(model, "1", gm, tree, profile, EMPTY_PLAN)
    on = simulate_time(model, "0", gm, tree, profile, EMPTY_PLAN)
    assert off.seconds == on.seconds == 1.0


def test_simulate_nested_region_sums_subtree():
    outer = LoopNode(0, "for", (), "main", SourcePos(1, 1), "t")
    inner = LoopNode(1, "for", (0,), "main", SourcePos(2, 1), "i")
    tree = [outer, inner]
    profile = {0: ProfileEntry(1, 1000), 1: ProfileEntry(1000, 100_000)}
    model = CostModel({0: LoopCost(2.0, 4.0, 50.0), 1: LoopCost(1.0, 4.0, 50.0)},
                      {}, 0.0, 0.0)
    gm = GenomeMap((0, 1))
    # select the outer loop: its own work and the inner loop's work both
    # divide by the outer speedup; one launch per entry
    m = simulate_time(model, "10", gm, tree, profile, EMPTY_PLAN)
    expected_us = (1000 * 2.0 + 100_000 * 1.0) / 4.0 + 1 * 50.0
    assert m.seconds == pytest.approx(expected_us / 1e6, abs=1e-15)


ONE_LOOP = "int main(){int i; float a[10]; for(i=0;i<10;i++){ a[i] = 1.0; }}"
LOOP_COST = {"cpu_us_per_iter": 1.0, "gpu_speedup": 2.0, "kernel_launch_us": 0.0}


@pytest.mark.parametrize("loops,message", [
    ({}, "missing loop ids [0]"),
    ({"0": LOOP_COST, "1": LOOP_COST}, "loop ids [1] are not in the program")])
def test_sim_evaluator_model_names_each_loop_and_no_other(tmp_path, loops, message):
    # the model meets the loop tree once, when the evaluator is built
    program, tree, accesses = analyze(ONE_LOOP)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"loops": loops, "transfer_fixed_us": 0.0,
                                "transfer_us_per_kib": 0.0}))
    with pytest.raises(ModelError) as raised:
        build_evaluator(f"sim:{path}", program, tree, accesses, GenomeMap((0,)),
                        {0: ProfileEntry(1, 10)})
    assert str(raised.value) == f"cost model {path}: {message}"


@pytest.mark.parametrize("var", ["b", "z" * 3000], ids=["b", "3000 letters"])
def test_simulate_missing_var_entry(var):
    tree, profile, gm = single_loop_setup()
    model = CostModel({0: LoopCost(1.0, 2.0, 0.0)}, {}, 0.0, 0.0)
    plan = TransferPlan((DataDirective(0, "copyin", (var,), 0),))
    with pytest.raises(ModelError) as raised:
        simulate_time(model, "1", gm, tree, profile, plan)
    assert len(str(raised.value)) < 300    # a long name is quoted in part


def test_simulate_purity():
    tree, profile, gm = single_loop_setup()
    model = CostModel({0: LoopCost(0.37, 7.0, 13.0)}, {"a": 12345.0}, 9.0, 0.3)
    plan = TransferPlan((DataDirective(0, "copy", ("a",), 0),))
    results = {simulate_time(model, "1", gm, tree, profile, plan).seconds
               for _ in range(5)}
    assert len(results) == 1


def test_unhoisted_plan_never_faster():
    outer = LoopNode(0, "for", (), "main", SourcePos(1, 1), "t")
    inner = LoopNode(1, "for", (0,), "main", SourcePos(2, 1), "i")
    tree = [outer, inner]
    profile = {0: ProfileEntry(1, 1000), 1: ProfileEntry(1000, 100_000)}
    model = CostModel({0: LoopCost(0.0, 1.0, 0.0), 1: LoopCost(1.0, 2.0, 0.0)},
                      {"b": 2048.0}, 5.0, 1.0)
    gm = GenomeMap((0, 1))
    plan = TransferPlan((DataDirective(0, "copyin", ("b",), 1),))
    unhoisted = TransferPlan((DataDirective(1, "copyin", ("b",), 1),))
    hoisted = simulate_time(model, "01", gm, tree, profile, plan)
    forced = simulate_time(model, "01", gm, tree, profile, unhoisted)
    assert forced.seconds >= hoisted.seconds


def test_load_cost_model_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "loops": {"0": {"cpu_us_per_iter": 1.0, "gpu_speedup": 10.0,
                        "kernel_launch_us": 100.0}},
        "vars": {"a": {"size_bytes": 4194304}},
        "transfer_fixed_us": 10.0,
        "transfer_us_per_kib": 1.0,
    }))
    model = load_cost_model(path)
    assert model.loops[0].gpu_speedup == 10.0
    assert model.var_bytes["a"] == 4194304


@pytest.mark.parametrize("payload", [
    '{"loops": {}}',
    '{"loops": {"0": {"cpu_us_per_iter": -1, "gpu_speedup": 1, "kernel_launch_us": 0}}, "vars": {}, "transfer_fixed_us": 0, "transfer_us_per_kib": 0}',
    '{"loops": {"0": {"cpu_us_per_iter": 1, "gpu_speedup": 0, "kernel_launch_us": 0}}, "vars": {}, "transfer_fixed_us": 0, "transfer_us_per_kib": 0}',
    '{"loops": [], "vars": {}, "transfer_fixed_us": 0, "transfer_us_per_kib": 0}',
    '{"loops": {}, "vars": [], "transfer_fixed_us": 0, "transfer_us_per_kib": 0}',
    '{"loops": {}, "vars": {}, "transfer_fixed_us": NaN, "transfer_us_per_kib": 0}',
    '{"loops": {}, "vars": {"a": {"size_bytes": Infinity}}, "transfer_fixed_us": 0, "transfer_us_per_kib": 0}',
    '{"loops": {"0": {"cpu_us_per_iter": Infinity, "gpu_speedup": 1, "kernel_launch_us": 0}}, "vars": {}, "transfer_fixed_us": 0, "transfer_us_per_kib": 0}',
    '{"loops": {"0": {"cpu_us_per_iter": 1, "gpu_speedup": NaN, "kernel_launch_us": 0}}, "vars": {}, "transfer_fixed_us": 0, "transfer_us_per_kib": 0}',
    "not json",
    '{"loops": {"1_0": {"cpu_us_per_iter": 1, "gpu_speedup": 1, "kernel_launch_us": 0}}, "vars": {}, "transfer_fixed_us": 0, "transfer_us_per_kib": 0}',
    '{"loops": {" 2": {"cpu_us_per_iter": 1, "gpu_speedup": 1, "kernel_launch_us": 0}}, "vars": {}, "transfer_fixed_us": 0, "transfer_us_per_kib": 0}',
    '{"loops": {"1": {"cpu_us_per_iter": 1, "gpu_speedup": 1, "kernel_launch_us": 0}, "01": {"cpu_us_per_iter": 2, "gpu_speedup": 1, "kernel_launch_us": 0}}, "vars": {}, "transfer_fixed_us": 0, "transfer_us_per_kib": 0}',
])
def test_load_cost_model_rejects_malformed(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_text(payload)
    with pytest.raises(ModelError):
        load_cost_model(path)


def test_load_cost_model_missing_file(tmp_path):
    with pytest.raises(ModelError):
        load_cost_model(tmp_path / "absent.json")


# ---- command evaluator (stub shell commands) ----

SOURCE = "int main(){}\n"


def assert_failed_step(m, status, timeout_seconds):
    """A failed trial carries its status and the seconds its failing step
    ran; run_ga, not the evaluator, prices it at the penalty."""
    assert m.status == status
    assert 0 < m.seconds < timeout_seconds + 1


def test_command_failing_compile_is_invalid():
    config = CommandEvaluatorConfig("false", "true", timeout_seconds=5.0)
    assert_failed_step(command_evaluate(config, SOURCE), "invalid", 5.0)


def test_command_over_timeout_run():
    config = CommandEvaluatorConfig("true", "sleep 2", timeout_seconds=1.0)
    assert_failed_step(command_evaluate(config, SOURCE), "timeout", 1.0)


def test_command_timeout_kills_children_of_run(tmp_path):
    marker = tmp_path / "marker"
    config = CommandEvaluatorConfig(
        "true", f"(sleep 1; touch '{marker}') & wait", timeout_seconds=0.2)
    assert_failed_step(command_evaluate(config, SOURCE), "timeout", 0.2)
    time.sleep(1.5)
    assert not marker.exists()


def test_command_compile_timeout():
    config = CommandEvaluatorConfig("sleep 5", "true", timeout_seconds=0.2)
    start = time.monotonic()
    m = command_evaluate(config, SOURCE)
    assert time.monotonic() - start < 1.5
    assert_failed_step(m, "timeout", 0.2)


@pytest.mark.parametrize("redirect", ["", " >/dev/null 2>&1"])
def test_command_run_leaves_no_background_child(tmp_path, redirect):
    # without the redirect the child holds the run's output open
    marker = tmp_path / "marker"
    config = CommandEvaluatorConfig(
        "true", f"(sleep 1; touch '{marker}'){redirect} &", timeout_seconds=5.0)
    m = command_evaluate(config, SOURCE)
    assert m.status == "measured" and m.seconds < 0.5
    time.sleep(1.5)
    assert not marker.exists()


def test_command_noop_run_measured():
    config = CommandEvaluatorConfig("true", "true", timeout_seconds=5.0)
    m = command_evaluate(config, SOURCE)
    assert m.status == "measured"
    assert 0 < m.seconds <= 5.0


def test_command_nonzero_run_is_invalid():
    config = CommandEvaluatorConfig("true", "exit 3", timeout_seconds=5.0)
    m = command_evaluate(config, SOURCE)
    assert m.status == "invalid"


def test_command_templates_receive_paths(tmp_path):
    # the run step records the paths it got and what {bin} holds; the
    # trial removes both files when it ends
    seen = tmp_path / "seen"
    run = f"echo '{{src}}' '{{bin}}' > '{seen}'; cat '{{bin}}' >> '{seen}'"
    config = CommandEvaluatorConfig("cp '{src}' '{bin}'", run, timeout_seconds=5.0,
                                    workdir=str(tmp_path))
    m = command_evaluate(config, SOURCE)
    assert m.status == "measured"
    paths, text = seen.read_text().split("\n", 1)
    src, bin_ = map(Path, paths.split(" "))
    assert src.parent == tmp_path and src.name.startswith("trial_") and src.suffix == ".c"
    assert bin_ == src.with_suffix(".bin")
    assert text == SOURCE
    assert not src.exists() and not bin_.exists()


def test_unwritable_trial_source_is_spawn_error(tmp_path):
    # the config checks its workdir once, when it is built, so one removed
    # since is where a trial source cannot be written
    workdir = tmp_path / "work"
    workdir.mkdir()
    config = CommandEvaluatorConfig("true", "true", timeout_seconds=5.0,
                                    workdir=str(workdir))
    workdir.rmdir()
    with pytest.raises(SpawnError, match="cannot write a trial source"):
        command_evaluate(config, SOURCE)


def test_unspawnable_step_is_spawn_error(tmp_path, monkeypatch):
    def no_shell(cmd, timeout, workdir):
        raise OSError("no shell")
    monkeypatch.setattr(evaluation, "run_shell", no_shell)
    config = CommandEvaluatorConfig("cc-stub {src}", "true", timeout_seconds=5.0,
                                    workdir=str(tmp_path))
    message = r"cannot spawn compile command 'cc-stub \S+/trial_\w+\.c': no shell"
    with pytest.raises(SpawnError, match=message):
        command_evaluate(config, SOURCE)
    assert not list(tmp_path.iterdir())


def test_step_that_exits_zero_past_the_timeout_is_timeout(monkeypatch):
    # a step that exits 0 after its deadline, but before run_shell saw it pass
    monkeypatch.setattr(evaluation, "run_shell", lambda cmd, timeout, workdir: (0, timeout + 0.5))
    m = command_evaluate(CommandEvaluatorConfig("true", "true", timeout_seconds=2.0), SOURCE)
    assert (m.status, m.seconds) == ("timeout", 2.5)


def test_step_that_exits_nonzero_past_the_timeout_is_timeout(monkeypatch):
    # the deadline is tested before the exit status: a step killed at its
    # deadline exits nonzero too, and one that fails just after it is as slow
    monkeypatch.setattr(evaluation, "run_shell", lambda cmd, timeout, workdir: (1, timeout + 0.5))
    m = command_evaluate(CommandEvaluatorConfig("true", "true", timeout_seconds=2.0), SOURCE)
    assert (m.status, m.seconds) == ("timeout", 2.5)


def test_trials_of_one_genome_get_distinct_sources(tmp_path):
    program, tree, accesses = analyze(ONE_LOOP)
    log = tmp_path / "log"
    trials = tmp_path / "trials"
    trials.mkdir()
    config = tmp_path / "cmd.json"
    config.write_text(json.dumps({"compile_cmd": f"echo '{{src}}' >> '{log}'",
                                  "run_cmd": "true", "workdir": str(trials)}))
    evaluate = build_evaluator(f"cmd:{config}", program, tree, accesses, GenomeMap((0,)),
                               {}, 5.0)
    assert evaluate("1").status == evaluate("1").status == "measured"
    first, second = log.read_text().splitlines()
    assert first != second
    assert not list(trials.iterdir())


def test_trial_in_relative_workdir(tmp_path, monkeypatch):
    # the commands run inside the workdir, so {src} must not be relative to it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trials").mkdir()
    config = CommandEvaluatorConfig("test -f '{src}'", "true", timeout_seconds=5.0,
                                    workdir="trials")
    assert command_evaluate(config, SOURCE).status == "measured"
    assert not list((tmp_path / "trials").iterdir())
