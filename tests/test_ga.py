import itertools
import random

import pytest

from acctuner import ga
from acctuner.analysis import GenomeMap
from acctuner.errors import DomainError, EmptyGenome, SpawnError
from acctuner.evaluation import Measurement
from acctuner.ga import (
    DEFAULT_PENALTY_SECONDS,
    EvaluatedIndividual,
    GAConfig,
    fitness_from_time,
    init_population,
    mutate,
    one_point_crossover,
    run_ga,
    select_next_parents,
)
from acctuner.loops import LoopNode, SourcePos


class ScriptedRng:
    """random.Random stand-in that replays scripted draws."""

    def __init__(self, randoms=(), ints=()):
        self._randoms = list(randoms)
        self._ints = list(ints)

    def random(self):
        return self._randoms.pop(0)

    def randint(self, lo, hi):
        value = self._ints.pop(0)
        assert lo <= value <= hi
        return value


def sibling_tree(count):
    nodes = [LoopNode(i, "for", (), "main", SourcePos(i + 1, 1), f"i{i}")
             for i in range(count)]
    return nodes


def table_evaluator(table):
    def evaluate(bits):
        return Measurement(table[bits], "measured")
    return evaluate


# ---- fitness ----

def test_fitness_paper_baseline():
    assert fitness_from_time(108.28) == pytest.approx(0.09610, abs=1e-4)


def test_fitness_timeout_penalty():
    # a failed trial is priced by run_ga, which passes the penalty time
    assert fitness_from_time(DEFAULT_PENALTY_SECONDS) == pytest.approx(0.0316228, abs=1e-6)
    with pytest.raises(TypeError):
        fitness_from_time(5.0, "invalid")


def test_fitness_identity_at_one_second():
    assert fitness_from_time(1.0) == 1.0


def test_fitness_rejects_nonpositive_measured():
    with pytest.raises(DomainError):
        fitness_from_time(0.0)
    with pytest.raises(DomainError):
        fitness_from_time(-3.0)


# ---- init ----

def test_init_population_deterministic():
    a = init_population(4, 3, random.Random(99))
    b = init_population(4, 3, random.Random(99))
    assert a == b
    assert all(len(g) == 3 for g in a)


def test_init_population_length_one_genes():
    pop = init_population(2, 1, random.Random(0))
    assert len(pop) == 2 and all(g in ("0", "1") for g in pop)


def test_init_population_zero_length_rejected():
    with pytest.raises(EmptyGenome):
        init_population(2, 0, random.Random(0))


def test_init_population_bit_balance():
    pop = init_population(100, 100, random.Random(7))
    ones = sum(g.count("1") for g in pop)
    assert 0.47 <= ones / 10_000 <= 0.53


# ---- selection ----

def individuals(fitnesses):
    return [EvaluatedIndividual(format(i, "03b"), 1.0, f, "measured")
            for i, f in enumerate(fitnesses)]


def test_roulette_probabilities_proportional():
    evaluated = individuals([0.3, 0.1, 0.1])
    counts = {ind.genome: 0 for ind in evaluated}
    rng = random.Random(123)
    draws = 30_000
    for _ in range(draws):
        parents = select_next_parents(evaluated, elite=0, rng=rng)
        for genome in parents[1:]:
            counts[genome] += 1
    total = sum(counts.values())
    assert counts["000"] / total == pytest.approx(0.6, abs=0.02)
    assert counts["001"] / total == pytest.approx(0.2, abs=0.02)
    assert counts["010"] / total == pytest.approx(0.2, abs=0.02)


def test_roulette_uniform_when_equal():
    evaluated = individuals([0.5, 0.5, 0.5, 0.5])
    counts = {ind.genome: 0 for ind in evaluated}
    rng = random.Random(5)
    for _ in range(20_000):
        for genome in select_next_parents(evaluated, elite=0, rng=rng)[1:]:
            counts[genome] += 1
    total = sum(counts.values())
    for genome in counts:
        assert counts[genome] / total == pytest.approx(0.25, abs=0.02)


# ---- crossover ----

def test_crossover_definitional_splice():
    rng = ScriptedRng(randoms=[0.0], ints=[4])
    assert one_point_crossover("110010", "001101", 0.9, rng) == ("110001", "001110")


def test_crossover_disabled_at_rate_zero():
    rng = random.Random(3)
    for _ in range(20):
        assert one_point_crossover("1100", "0011", 0.0, rng) == ("1100", "0011")


def test_crossover_forced_cut_length_two():
    rng = ScriptedRng(randoms=[0.5], ints=[1])
    c1, c2 = one_point_crossover("10", "01", 1.0, rng)
    assert (c1, c2) == ("11", "00")


def test_crossover_noop_below_length_two():
    assert one_point_crossover("1", "0", 1.0, random.Random(0)) == ("1", "0")


def test_crossover_rejects_parents_of_unequal_length():
    with pytest.raises(ValueError, match="equal length"):
        one_point_crossover("101", "10", 1.0, random.Random(0))


def test_crossover_preserves_multiset_per_position():
    rng = random.Random(11)
    p1, p2 = "110010", "001101"
    for _ in range(50):
        c1, c2 = one_point_crossover(p1, p2, 1.0, rng)
        for k in range(len(p1)):
            assert sorted((c1[k], c2[k])) == sorted((p1[k], p2[k]))


# ---- mutation ----

def test_mutate_rate_zero_identity():
    assert mutate("10110", 0.0, random.Random(0)) == "10110"


def test_mutate_rate_one_complement():
    assert mutate("10110", 1.0, random.Random(0)) == "01001"


def test_mutate_flip_fraction():
    rng = random.Random(21)
    genome = "0" * 10_000
    flipped = mutate(genome, 0.05, rng).count("1")
    assert 0.04 <= flipped / 10_000 <= 0.06


# ---- run_ga ----

def test_run_ga_finds_known_best_two_genes():
    tree = sibling_tree(2)
    gm = GenomeMap((0, 1))
    # exhaustive oracle over all four genomes: 10 is fastest
    table = {"00": 4.0, "01": 3.0, "10": 1.0, "11": 2.0}
    best_bits = min(table, key=table.get)
    config = GAConfig(population=4, generations=5, rng_seed=1)
    result = run_ga(config, gm, tree, table_evaluator(table))
    assert result.best.genome == best_bits
    assert result.best.seconds == table[best_bits]


def test_run_ga_all_zero_reports_cpu_baseline():
    tree = sibling_tree(2)
    gm = GenomeMap((0, 1))
    table = {"00": 7.5, "01": 9.0, "10": 9.0, "11": 9.5}

    seen = []

    def evaluate(bits):
        seen.append(bits)
        return Measurement(table[bits], "measured")

    config = GAConfig(population=2, generations=3, rng_seed=5)
    result = run_ga(config, gm, tree, evaluate)
    if "00" in seen:
        assert result.best.seconds == 7.5


def test_run_ga_dedup_cache_counts():
    tree = sibling_tree(2)
    gm = GenomeMap((0, 1))
    table = {"00": 4.0, "01": 3.0, "10": 1.0, "11": 2.0}
    calls = []

    def evaluate(bits):
        calls.append(bits)
        return Measurement(table[bits], "measured")

    config = GAConfig(population=4, generations=10, rng_seed=42)
    result = run_ga(config, gm, tree, evaluate)
    assert len(calls) == len(set(calls))            # never re-measured
    assert result.evaluations_performed == len(calls)
    assert result.cache_hits > 0                    # genomes recur across gens
    # every individual is either a fresh evaluation or a cache hit
    total_individuals = result.effective_population * 10
    assert result.evaluations_performed + result.cache_hits == total_individuals


def test_run_ga_history_counters_are_cumulative():
    tree = sibling_tree(2)
    gm = GenomeMap((0, 1))
    table = {"00": 4.0, "01": 3.0, "10": 1.0, "11": 2.0}
    config = GAConfig(population=4, generations=6, rng_seed=42)
    result = run_ga(config, gm, tree, table_evaluator(table))
    evals = [s.evals for s in result.history]
    hits = [s.cache_hits for s in result.history]
    assert evals == sorted(evals)
    assert hits == sorted(hits)
    assert evals[-1] <= 4   # only four distinct genomes exist
    # once every genome is known, later generations add only cache hits
    assert hits[-1] > 0


def test_run_ga_invalid_nested_selection_penalized_without_eval():
    # loop 1 nests inside loop 0: genome 11 is invalid
    outer = LoopNode(0, "for", (), "main", SourcePos(1, 1), "t")
    inner = LoopNode(1, "for", (0,), "main", SourcePos(2, 1), "i")
    tree = [outer, inner]
    gm = GenomeMap((0, 1))
    table = {"00": 4.0, "01": 3.0, "10": 2.0}
    calls = []

    def evaluate(bits):
        calls.append(bits)
        assert bits != "11"
        return Measurement(table[bits], "measured")

    config = GAConfig(population=4, generations=8, rng_seed=1)
    result = run_ga(config, gm, tree, evaluate)
    assert "11" not in calls
    assert result.best.genome == "10"
    # the penalty keeps invalid genomes out of the best slot
    assert result.best.status != "invalid"


def recorded_search(monkeypatch, config, gene_length, evaluate):
    """run_ga's result plus every individual it scored, in order."""
    scored = []

    def recording_individual(*args):
        scored.append(EvaluatedIndividual(*args))
        return scored[-1]

    monkeypatch.setattr(ga, "EvaluatedIndividual", recording_individual)
    result = run_ga(config, GenomeMap(tuple(range(gene_length))),
                    sibling_tree(gene_length), evaluate)
    return result, scored


def test_run_ga_prices_every_failed_trial(monkeypatch):
    # the evaluator reports a failed trial with the seconds its step ran;
    # run_ga alone prices it, at every copy, at the configured penalty
    failed = {}

    def evaluate(bits):
        value = int(bits, 2)
        if value % 3 == 0:
            failed[bits] = "invalid"
            return Measurement(0.01, "invalid")
        if value % 3 == 1:
            failed[bits] = "timeout"
            return Measurement(0.02, "timeout")
        return Measurement(1.0 + value / 100, "measured")

    config = GAConfig(population=4, generations=10, penalty_seconds=50.0, rng_seed=2)
    result, scored = recorded_search(monkeypatch, config, 4, evaluate)

    seen = set()
    statuses = set()
    for individual in scored:
        if individual.genome in failed:
            first = individual.genome not in seen
            status = failed[individual.genome] if first else "cachehit"
            assert individual.status == status
            assert individual.seconds == 50.0
            assert individual.fitness == 50.0 ** -0.5
            statuses.add(status)
        seen.add(individual.genome)
    assert statuses == {"invalid", "timeout", "cachehit"}
    assert result.best.genome not in failed and result.best.seconds < 50.0


def test_run_ga_all_invalid_trials_report_an_invalid_best():
    # every trial fails; the elite copy of generation 2 is a cache hit, which
    # must not outrank the failed first copy it repeats
    def evaluate(bits):
        return Measurement(0.01, "invalid")

    config = GAConfig(population=2, generations=3, rng_seed=0)
    result = run_ga(config, GenomeMap((0, 1)), sibling_tree(2), evaluate)
    assert result.cache_hits > 0
    assert result.best.status == "invalid"
    assert result.best.seconds == config.penalty_seconds


def test_run_ga_elite_is_argmax_with_low_index_ties(monkeypatch):
    # two distinct genomes of generation 1, neither at index 0, tie for the
    # best time; generation 2 opens with the one at the lower index
    config = GAConfig(population=6, generations=2, rng_seed=3)
    first = init_population(6, 6, random.Random(3))
    tied = [bits for bits in dict.fromkeys(first[1:]) if bits != first[0]][:2]
    assert len(tied) == 2

    def evaluate(bits):
        return Measurement(1.0 if bits in tied else 2.0, "measured")

    _, scored = recorded_search(monkeypatch, config, 6, evaluate)
    assert [ind.genome for ind in scored[:6]] == first
    assert scored[6].genome == tied[0]


@pytest.mark.parametrize("seed", range(50))
def test_run_ga_best_is_earliest_least_failed_then_seconds(monkeypatch, seed):
    # a seeded third of the 6-gene genomes fail; the others are measured at
    # distinct times, some slower than the penalty
    rng = random.Random(seed)
    genomes = ["".join(bits) for bits in itertools.product("01", repeat=6)]
    times = [t / 10 for t in rng.sample(range(1, 200), len(genomes))]
    outcome = {bits: Measurement(time, "measured") for bits, time in zip(genomes, times)}
    for bits in rng.sample(genomes, len(genomes) // 3):
        outcome[bits] = Measurement(0.01, rng.choice(("invalid", "timeout")))
    config = GAConfig(population=6, generations=4, penalty_seconds=10.0, rng_seed=seed)
    result, scored = recorded_search(monkeypatch, config, 6, outcome.__getitem__)

    def failed(individual):
        return outcome[individual.genome].status != "measured"

    expected = min(range(len(scored)),
                   key=lambda i: (failed(scored[i]), scored[i].seconds, i))
    assert result.best is scored[expected]
    assert expected == [ind.genome for ind in scored].index(result.best.genome)
    some_measured = any(not failed(ind) for ind in scored)
    assert (result.best.status == "measured") == some_measured


def test_run_ga_elite_monotonicity(tune_fixtures):
    for fixture in tune_fixtures.values():
        evaluate = fixture.evaluator()
        for seed in (1, 2):
            result = run_ga(GAConfig(rng_seed=seed), fixture.genome_map,
                            fixture.tree, evaluate)
            best = [s.best_fitness for s in result.history]
            assert best == sorted(best)
            assert len(result.history) == 20


def test_run_ga_population_clamped_and_reported():
    tree = sibling_tree(3)
    gm = GenomeMap((0, 1, 2))
    table = {"".join(c): 1.0 + i for i, c in
             enumerate(itertools.product("01", repeat=3))}
    config = GAConfig(population=30, generations=2, rng_seed=0)
    result = run_ga(config, gm, tree, table_evaluator(table))
    assert result.effective_population == 3


def test_run_ga_deterministic_and_worker_independent(tune_fixtures):
    fixture = tune_fixtures["mix10"]
    results = []
    for workers in (1, 1, 4):
        config = GAConfig(rng_seed=77, workers=workers)
        results.append(run_ga(config, fixture.genome_map, fixture.tree,
                              fixture.evaluator()))
    assert results[0] == results[1]
    assert results[0] == results[2]


def test_run_ga_empty_genome_map():
    tree = sibling_tree(1)
    with pytest.raises(EmptyGenome):
        run_ga(GAConfig(rng_seed=0), GenomeMap(()), tree, table_evaluator({}))


def test_run_ga_propagates_evaluator_errors():
    tree = sibling_tree(2)
    gm = GenomeMap((0, 1))

    def evaluate(bits):
        raise SpawnError("no shell")

    with pytest.raises(SpawnError):
        run_ga(GAConfig(rng_seed=0), gm, tree, evaluate)


def test_gaconfig_validation():
    with pytest.raises(ValueError):
        GAConfig(population=1)
    with pytest.raises(ValueError):
        GAConfig(generations=0)
    with pytest.raises(ValueError):
        GAConfig(crossover_rate=1.5)
    with pytest.raises(ValueError):
        GAConfig(mutation_rate=-0.1)
    with pytest.raises(ValueError):
        GAConfig(workers=0)
    for bad in (float("nan"), float("inf"), -float("inf"), 0.0):
        with pytest.raises(ValueError):
            GAConfig(timeout_seconds=bad)
        with pytest.raises(ValueError):
            GAConfig(penalty_seconds=bad)
    # past threading.TIMEOUT_MAX, a command's wait would overflow
    with pytest.raises(ValueError):
        GAConfig(timeout_seconds=1e10)
