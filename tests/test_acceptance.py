"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v`; the conftest hook prints
`[acceptance] <test>: PASS|FAIL` per criterion.
"""

import itertools
import time
from dataclasses import dataclass

import pytest

import acctuner as at
from acctuner.analysis import ProfileEntry
from acctuner.cli import main
from acctuner.evaluation import (
    CommandEvaluatorConfig,
    CostModel,
    LoopCost,
    Measurement,
    command_evaluate,
)
from acctuner.ga import DEFAULT_PENALTY_SECONDS, GAConfig, fitness_from_time, run_ga
from acctuner.transfer import DataDirective, TransferPlan, plan_transfers

from conftest import FIXTURES, TUNE_FIXTURES, analyze, load_fixture, strip_pragmas

SEEDS = (1, 2, 3, 4, 5)


@dataclass
class SearchRun:
    fixture: object
    optimum_seconds: float
    results: dict          # seed -> SearchResult
    call_log: dict         # seed -> list of evaluated genomes
    wall_seconds: float


@pytest.fixture(scope="session")
def search_runs():
    """Criteria 3-5 share these runs: brute-force optimum plus GA over the
    five shipped fixtures and five seeds."""
    runs = {}
    started = time.time()
    for name in TUNE_FIXTURES:
        fixture = load_fixture(name)
        evaluate = fixture.evaluator()
        a = len(fixture.genome_map)
        assert a <= 10
        optimum = None
        for combo in itertools.product("01", repeat=a):
            bits = "".join(combo)
            if not at.check_genome_valid(bits, fixture.genome_map, fixture.tree):
                continue
            seconds = evaluate(bits).seconds
            if optimum is None or seconds < optimum:
                optimum = seconds
        results = {}
        call_log = {}
        for seed in SEEDS:
            calls = []

            def counting(bits, _evaluate=evaluate, _calls=calls):
                _calls.append(bits)
                return _evaluate(bits)

            config = GAConfig(population=30, generations=20, rng_seed=seed)
            results[seed] = run_ga(config, fixture.genome_map, fixture.tree,
                                   counting)
            call_log[seed] = calls
        runs[name] = SearchRun(fixture, optimum, results, call_log, 0.0)
    wall = time.time() - started
    for run in runs.values():
        run.wall_seconds = wall
    return runs


def test_criterion_01_fitness_formula():
    assert fitness_from_time(108.28) == pytest.approx(0.09610, abs=1e-4)
    # a failed trial counts as the 1000 s penalty (run_ga prices it)
    assert DEFAULT_PENALTY_SECONDS == 1000.0
    assert fitness_from_time(DEFAULT_PENALTY_SECONDS) == pytest.approx(0.0316228, abs=1e-6)


def test_criterion_02_gate_boundary():
    _, tree, _ = analyze("int main(){int i; for(i=0;i<10;i++){ i = i; }}")
    at_threshold = at.gate(tree, {0: ProfileEntry(1, 10_000_000)})
    below = at.gate(tree, {0: ProfileEntry(1, 9_999_999)})
    assert at_threshold.passed is True
    assert below.passed is False
    assert at_threshold.threshold == 10_000_000


def test_criterion_03_exhaustive_oracle_equivalence(search_runs):
    for name, run in search_runs.items():
        within = sum(
            1 for seed in SEEDS
            if run.results[seed].best.seconds <= run.optimum_seconds * 1.05)
        assert within >= 4, f"{name}: only {within}/5 seeds within 5% of optimum"
    assert next(iter(search_runs.values())).wall_seconds < 60.0


def test_criterion_04_elite_monotonicity(search_runs):
    for name, run in search_runs.items():
        for seed in SEEDS:
            history = run.results[seed].history
            fitnesses = [s.best_fitness for s in history]
            assert fitnesses == sorted(fitnesses), f"{name} seed {seed}"
            assert len(history) == 20


def test_criterion_05_dedup_cache(search_runs):
    any_hits = False
    for name, run in search_runs.items():
        for seed in SEEDS:
            calls = run.call_log[seed]
            result = run.results[seed]
            # every evaluator invocation is a distinct valid genome
            assert len(calls) == len(set(calls)), f"{name} seed {seed}"
            for bits in set(calls):
                assert at.check_genome_valid(bits, run.fixture.genome_map,
                                             run.fixture.tree)
            assert result.evaluations_performed == len(calls)
            if result.cache_hits > 0:
                any_hits = True
    assert any_hits


HOIST_BENEFIT_SOURCE = """int main() {
    int t;
    int i;
    float b[100];
    b[0] = 1.0;
    for (t = 0; t < 1000; t++) {
        for (i = 0; i < 100; i++) {
            float a[100];
            a[i] = b[i] + 1.0;
        }
    }
    return 0;
}
"""


def test_criterion_06_transfer_hoisting_benefit():
    program, tree, accesses = analyze(HOIST_BENEFIT_SOURCE)
    genome_map = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    assert genome_map.loop_ids == (1,)   # only the inner loop is offloadable
    profile = {0: ProfileEntry(1, 1000), 1: ProfileEntry(1000, 100_000)}
    # constants chosen so every intermediate is an exact binary fraction
    model = CostModel(
        loops={0: LoopCost(0.0, 1.0, 0.0), 1: LoopCost(0.15625, 1.0, 0.0)},
        var_bytes={"b": 15_989_760.0},
        transfer_fixed_us=10.0,
        transfer_us_per_kib=1.0,
    )
    plan = plan_transfers(program, tree, accesses, "1", genome_map)
    assert [(d.clause, d.vars, d.target_loop) for d in plan.directives] == \
        [("copyin", ("b",), 0)]

    # the same transfer left at its region loop, as without hoisting
    forced = TransferPlan((DataDirective(1, "copyin", ("b",), 1),))
    assert [profile[d.target_loop].entry_count for d in plan.directives] == [1]
    assert [profile[d.target_loop].entry_count for d in forced.directives] == [1000]

    hoisted_time = at.simulate_time(model, "1", genome_map, tree, profile, plan)
    forced_time = at.simulate_time(model, "1", genome_map, tree, profile, forced)
    per_directive_seconds = (10.0 + 15_989_760.0 / 1024.0 * 1.0) / 1e6
    assert forced_time.seconds - hoisted_time.seconds == 999 * per_directive_seconds


def test_criterion_07_transfer_plan_golden_rules():
    expectations = {
        "copyinout": [("copyin", ("b",), 0, 0), ("copyout", ("a",), 0, 0)],
        "hoist": [("copyin", ("b", "c"), 0, 1), ("copyout", ("a",), 1, 1)],
        "copymerge": [("copy", ("a",), 0, 1)],
    }
    for stem, expected in expectations.items():
        source = (FIXTURES / "golden" / f"{stem}.c").read_text()
        program, tree, accesses = analyze(source)
        genome_map = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
        plan = plan_transfers(program, tree, accesses, "1" * len(genome_map),
                              genome_map)
        got = [(d.clause, d.vars, d.target_loop, d.origin_region)
               for d in plan.directives]
        assert got == expected, stem


def test_criterion_08_emitter_golden_files():
    for stem in ("copyinout", "hoist", "copymerge"):
        source = (FIXTURES / "golden" / f"{stem}.c").read_text()
        program, tree, accesses = analyze(source)
        genome_map = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
        bits = "1" * len(genome_map)
        plan = plan_transfers(program, tree, accesses, bits, genome_map)
        annotated = at.emit_annotated(program, tree, bits, genome_map, plan)
        expected = (FIXTURES / "golden" / f"{stem}_expected.c").read_text()
        assert annotated.text == expected, stem
        assert strip_pragmas(annotated.text) == source, stem


ORACLE_CORPUS = [
    ("independent array",
     "int main(){int i; float a[100]; float b[100];"
     " for(i=0;i<100;i++){ a[i] = b[i] + 1.0; }}", 0, True),
    ("i-1 dependence",
     "int main(){int i; float a[100];"
     " for(i=1;i<100;i++){ a[i] = a[i-1] + 1.0; }}", 0, False),
    ("i+1 dependence",
     "int main(){int i; float a[100];"
     " for(i=0;i<99;i++){ a[i] = a[i+1]; }}", 0, False),
    ("scalar reduction",
     "int main(){int i; float s; float a[100]; s = 0.0;"
     " for(i=0;i<100;i++){ s += a[i]; }}", 0, False),
    ("while loop",
     "int main(){int i; i = 0; while(i < 10){ i = i + 1; }}", 0, False),
    ("do-while loop",
     "int main(){int i; i = 0; do { i = i + 1; } while(i < 10);}", 0, False),
    ("non-canonical for",
     "int main(){int i; float a[100]; for(i=1;i<100;i=i*2){ a[i] = 1.0; }}",
     0, False),
    ("2-D independent inner",
     "int main(){int i; int j; float m[10][10]; float b[10][10];"
     " for(i=0;i<10;i++){ for(j=0;j<10;j++){ m[i][j] = b[i][j]; }}}", 1, True),
    ("2-D independent outer",
     "int main(){int i; int j; float m[10][10]; float b[10][10];"
     " for(i=0;i<10;i++){ for(j=0;j<10;j++){ m[i][j] = b[i][j]; }}}", 0, True),
    ("same-element update",
     "int main(){int i; float a[100]; for(i=0;i<100;i++){ a[i] = a[i] * 2.0; }}",
     0, True),
    ("fixed-element accumulation",
     "int main(){int i; float a[4]; float b[100];"
     " for(i=0;i<100;i++){ a[0] += b[i]; }}", 0, False),
    ("overlapping writes",
     "int main(){int i; float a[101];"
     " for(i=0;i<100;i++){ a[i] = 1.0; a[i+1] = 2.0; }}", 0, False),
    ("array escapes to call",
     "int main(){int i; float a[100]; for(i=0;i<100;i++){ touch(a); }}",
     0, False),
    ("stride-2 canonical",
     "int main(){int i; float a[100]; float b[100];"
     " for(i=0;i<100;i+=2){ a[i] = b[i]; }}", 0, True),
    ("early return",
     "int main(){int i; int n; float a[100]; n = 100;"
     " for(i=0;i<n;i++){ if (a[i] > 0.0) return i; } return 0;}", 0, False),
    ("live-out scalar",
     "int main(){int i; float last; float a[100]; last = 0.0;"
     " for(i=0;i<100;i++){ last = a[i]; } return last;}", 0, False),
]


def test_criterion_09_builtin_oracle_corpus():
    assert len(ORACLE_CORPUS) >= 12
    for label, text, loop_index, expected in ORACLE_CORPUS:
        _, tree, accesses = analyze(text)
        verdict = at.check_all_parallelizable(tree, accesses)[loop_index]
        assert verdict.eligible is expected, label


def test_criterion_10_tune_determinism(tmp_path):
    import shutil
    for suffix in (".c", "_profile.json", "_model.json"):
        shutil.copy(FIXTURES / "tune" / f"deep3{suffix}", tmp_path)
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.c"
        report = tmp_path / f"{tag}.json"
        code = main([
            "tune",
            "--source", str(tmp_path / "deep3.c"),
            "--profile", str(tmp_path / "deep3_profile.json"),
            "--evaluator", f"sim:{tmp_path}/deep3_model.json",
            "--seed", "9",
            "--out", str(out),
            "--report", str(report),
        ])
        assert code == 0
        outputs.append((out.read_bytes(), report.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_criterion_11_invalid_genome_penalty_without_eval():
    import random

    source = ("int main(){int i; int j; float m[10][10]; float b[10][10];"
              " for(i=0;i<10;i++){ for(j=0;j<10;j++){ m[i][j] = b[i][j]; }}"
              " m[0][0] = 1.0;}")
    _, tree, accesses = analyze(source)
    genome_map = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    assert genome_map.loop_ids == (0, 1)
    assert not at.check_genome_valid("11", genome_map, tree)

    # seed 4 initializes the whole population to the nested genome 11, so
    # the first generation consists purely of invalid individuals
    assert at.init_population(2, 2, random.Random(4)) == ["11", "11"]

    calls = []

    def evaluate(bits):
        calls.append(bits)
        return Measurement(1.0, "measured")

    config = GAConfig(population=2, generations=1, rng_seed=4)
    result = run_ga(config, genome_map, tree, evaluate)
    assert calls == []                            # zero evaluator calls
    assert result.evaluations_performed == 0
    assert result.best.status == "invalid"
    assert result.best.fitness == 1000.0 ** -0.5  # exact penalty fitness
    assert result.history[0].best_fitness == 1000.0 ** -0.5


def test_criterion_12_command_evaluator_contract():
    started = time.time()
    src = "int main(){}\n"

    # a failed trial carries its status and the seconds its failing step ran
    failing = CommandEvaluatorConfig("false", "true", timeout_seconds=5.0)
    invalid = command_evaluate(failing, src)
    assert invalid.status == "invalid" and 0 < invalid.seconds < 5.0 + 1

    sleeper = CommandEvaluatorConfig("true", "sleep 2", timeout_seconds=1.0)
    timeout = command_evaluate(sleeper, src)
    assert timeout.status == "timeout" and 0 < timeout.seconds < 1.0 + 1

    noop = CommandEvaluatorConfig("true", "true", timeout_seconds=5.0)
    measured = command_evaluate(noop, src)
    assert measured.status == "measured" and measured.seconds > 0
    assert time.time() - started < 5.0


def test_criterion_13_darknet_scale_stress():
    started = time.time()
    fixture = load_fixture("stress75", "stress")
    assert len(fixture.genome_map) == 75
    evaluate = fixture.evaluator()
    baseline = evaluate("0" * 75).seconds
    improved = 0
    for seed in SEEDS:
        config = GAConfig(population=30, generations=20, rng_seed=seed)
        result = run_ga(config, fixture.genome_map, fixture.tree, evaluate)
        if result.best.seconds * 2.0 <= baseline:
            improved += 1
    elapsed = time.time() - started
    assert improved >= 4, f"only {improved}/5 seeds reached 2x"
    assert elapsed < 120.0, f"stress run took {elapsed:.1f}s"
