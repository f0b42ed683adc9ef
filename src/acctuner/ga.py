"""Genetic search over offload genomes.

A genome is a '0'/'1' string over the genome map: bit k decides whether
eligible loop genome_map.loop_ids[k] runs on the GPU.  Each generation is
evaluate -> roulette selection with one preserved elite -> one-point
crossover -> per-gene mutation.  Fitness is seconds**(-1/2), so
a fast individual cannot crowd out the rest of the search.  run_ga alone
prices a failed trial: a timeout, an invalid build or run, and a nested
genome all count as the fixed penalty time.

All randomness flows through one seeded random.Random in a fixed order:
population init (one draw per gene), then per generation the roulette
draws (one per non-elite slot), the per-pair crossover draws (one
probability draw, plus one cut-point draw when crossing), and the mutation
draws (one per gene of every non-elite individual).  Evaluations consume
no randomness, so results do not depend on evaluation parallelism.
"""

from __future__ import annotations

import itertools
import math
import random
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

from .analysis import GenomeMap
from .errors import DomainError, EmptyGenome
from .evaluation import DEFAULT_TIMEOUT_SECONDS, INVALID, MEASURED, Measurement, kill_running
from .loops import LoopNode
from .transfer import check_genome_valid

CACHE_HIT = "cachehit"

FITNESS_EXPONENT = -0.5
DEFAULT_PENALTY_SECONDS = 1000.0     # what a failed trial counts as


@dataclass
class GAConfig:
    population: int = 30
    generations: int = 20
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS
    penalty_seconds: float = DEFAULT_PENALTY_SECONDS
    rng_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        # NaN fails every comparison, so the bounds reject it too; a command's
        # wait (evaluation.run_shell) cannot hold a timeout past threading.TIMEOUT_MAX
        if not (0 < self.penalty_seconds < math.inf
                and 0 < self.timeout_seconds <= threading.TIMEOUT_MAX):
            raise ValueError("penalty must be positive and finite, and timeout positive"
                             f" and at most {threading.TIMEOUT_MAX:g} seconds")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


# The report writes EvaluatedIndividual (its `best`) and GenerationStats (each
# of its `generations`) with dataclasses.asdict: field names and order are
# report keys.

@dataclass(frozen=True)
class EvaluatedIndividual:
    genome: str
    seconds: float
    fitness: float
    status: str     # 'measured' | 'timeout' | 'invalid' | 'cachehit'


@dataclass(frozen=True)
class GenerationStats:
    gen: int                    # 1-based
    best_seconds: float
    best_fitness: float
    mean_fitness: float
    evals: int                  # cumulative evaluator invocations
    cache_hits: int             # cumulative individuals served from the cache


@dataclass
class SearchResult:
    best: EvaluatedIndividual
    history: list[GenerationStats]
    effective_population: int
    evaluations_performed: int
    cache_hits: int


def fitness_from_time(seconds: float) -> float:
    """seconds**FITNESS_EXPONENT; run_ga passes the penalty time for a
    failed trial."""
    if not 0 < seconds < math.inf:
        raise DomainError(f"measured time must be positive and finite, got {seconds}")
    return seconds ** FITNESS_EXPONENT


def init_population(size: int, gene_length: int, rng: random.Random) -> list[str]:
    """size genomes with each gene drawn uniformly from {0, 1}."""
    if gene_length < 1:
        raise EmptyGenome("cannot build genomes of length 0")
    return ["".join("1" if rng.random() < 0.5 else "0" for _ in range(gene_length))
            for _ in range(size)]


def select_next_parents(evaluated: list[EvaluatedIndividual], elite: int,
                        rng: random.Random) -> list[str]:
    """Slot 0 holds a verbatim copy of evaluated[elite]; the remaining slots
    are fitness-proportional draws with replacement, one rng.random() each,
    scaled by the running total's last entry (random.choices)."""
    genomes = [ind.genome for ind in evaluated]
    cumulative = list(itertools.accumulate(ind.fitness for ind in evaluated))
    return [genomes[elite], *rng.choices(genomes, cum_weights=cumulative, k=len(genomes) - 1)]


def one_point_crossover(parent1: str, parent2: str, crossover_rate: float,
                        rng: random.Random) -> tuple[str, str]:
    """With probability crossover_rate, swap suffixes at a cut drawn
    uniformly from 1..len-1; genomes shorter than 2 pass through."""
    if len(parent1) != len(parent2):
        raise ValueError("crossover parents must have equal length")
    if len(parent1) < 2:
        return parent1, parent2
    if rng.random() < crossover_rate:
        cut = rng.randint(1, len(parent1) - 1)
        return (parent1[:cut] + parent2[cut:], parent2[:cut] + parent1[cut:])
    return parent1, parent2


def mutate(genome: str, mutation_rate: float, rng: random.Random) -> str:
    """Flip each gene independently with probability mutation_rate."""
    return "".join(
        ("0" if bit == "1" else "1") if rng.random() < mutation_rate else bit
        for bit in genome
    )


def _evaluate_all(pool, evaluate, genomes: list[str]) -> dict[str, Measurement]:
    """Each genome's measurement, from the search's pool of worker threads,
    which runs every trial.  When the wait raises (an interrupt reaches only
    this thread), the trials not yet started are dropped and the commands of
    those running are killed until each trial has ended: the pool's exit
    waits for them, and a command may run for its whole timeout."""
    futures = [pool.submit(evaluate, bits) for bits in genomes]
    try:
        # Wait in 0.1 s slices: on a loaded host a SIGINT was seen not to wake
        # one untimed wait until the trials ended.  A wake-up per trial
        # instead would take the GIL from a worker each time.
        pending = futures
        while pending:
            done, pending = wait(pending, timeout=0.1, return_when=FIRST_EXCEPTION)
            if any(future.exception() is not None for future in done):
                break
        return {bits: future.result() for bits, future in zip(genomes, futures)}
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        # a trial between its compile and its run starts a command late
        while not all(future.done() for future in futures):
            kill_running()
            wait(futures, timeout=0.05)
        raise


def run_ga(config: GAConfig, genome_map: GenomeMap, tree: list[LoopNode],
           evaluate) -> SearchResult:
    """Run the full generation loop and return the best individual ever seen
    plus the per-generation history.

    Each distinct genome has one outcome: nested (never evaluated), a failed
    trial (status timeout or invalid), both priced at the penalty, or
    measured.  Every copy reads it: each copy of a nested genome is invalid,
    the first copy of an evaluated genome carries its trial's status, and
    later copies are cache hits.  The best is the earliest individual with
    the least (failed, seconds): always a first copy, and measured whenever
    some trial was.  The population is clamped to the gene length (never
    below 2) so tiny search spaces do not drown in duplicates; the
    effective size is reported in the result.
    """
    gene_length = len(genome_map)
    size = min(config.population, max(2, gene_length))
    rng = random.Random(config.rng_seed)
    nested = Measurement(config.penalty_seconds, INVALID)   # shared by every nested genome
    outcomes: dict[str, Measurement] = {}   # the dedup cache, failures at the penalty

    population = init_population(size, gene_length, rng)

    best: EvaluatedIndividual | None = None
    best_key = (True, math.inf)     # (failed, seconds) of best
    history: list[GenerationStats] = []
    evaluations = 0
    hits = 0

    # one pool per search: sim: evaluations ran slower on a thread per generation
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        for generation in range(1, config.generations + 1):
            # evaluate the distinct valid genomes this generation adds, then
            # score every individual from its genome's outcome
            fresh = []
            for bits in dict.fromkeys(population):
                if bits not in outcomes:
                    if check_genome_valid(bits, genome_map, tree):
                        fresh.append(bits)
                    else:
                        outcomes[bits] = nested
            new = _evaluate_all(pool, evaluate, fresh)
            for bits, measurement in new.items():
                outcomes[bits] = (measurement if measurement.status == MEASURED
                                  else Measurement(config.penalty_seconds, measurement.status))
            evaluations += len(new)

            evaluated: list[EvaluatedIndividual] = []
            for bits in population:
                outcome = outcomes[bits]
                if outcome is nested or new.pop(bits, None) is not None:
                    status = outcome.status
                else:
                    status = CACHE_HIT
                    hits += 1
                individual = EvaluatedIndividual(
                    bits, outcome.seconds, fitness_from_time(outcome.seconds), status)
                evaluated.append(individual)
                key = (outcome.status != MEASURED, outcome.seconds)
                if key < best_key:
                    best, best_key = individual, key

            # the fittest, the lower index among equals, is also the next elite
            gen_best = max(range(size), key=lambda i: (evaluated[i].fitness, -i))
            history.append(GenerationStats(
                gen=generation,
                best_seconds=evaluated[gen_best].seconds,
                best_fitness=evaluated[gen_best].fitness,
                mean_fitness=sum(ind.fitness for ind in evaluated) / size,
                evals=evaluations,
                cache_hits=hits,
            ))

            if generation == config.generations:
                break

            parents = select_next_parents(evaluated, gen_best, rng)
            offspring = [parents[0]]  # the elite skips crossover and mutation
            for index in range(1, size, 2):
                pair = (one_point_crossover(parents[index], parents[index + 1],
                                            config.crossover_rate, rng)
                        if index + 1 < size else (parents[index],))
                offspring.extend(mutate(child, config.mutation_rate, rng) for child in pair)
            population = offspring

    return SearchResult(
        best=best,
        history=history,
        effective_population=size,
        evaluations_performed=evaluations,
        cache_hits=hits,
    )
