"""End-to-end tuning pipeline: analyze, gate, eligibility, GA search, emit.

Every way a run stops has its own exit code, so scripts can branch on why:
an error type declares its own (errors.py), and the other results are here.
Reports are plain JSON built in a fixed order; two runs with the same
inputs and seed produce byte-identical reports and annotated sources.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .analysis import (
    DEFAULT_GATE_THRESHOLD,
    ELIGIBLE,
    EXTERNAL_COMPILE_ERROR,
    EXTERNAL_COMPILE_TIMEOUT,
    GateDecision,
    GenomeMap,
    ParallelizabilityVerdict,
    Profile,
    build_genome_map,
    check_all_parallelizable,
    check_loop_ids,
    gate,
    load_profile,
)
from .emitter import emit_annotated, kernels_only_annotation
from .errors import (EmptyGenome, ModelError, OutputError, ParseError, _read_input,
                     _write_output)
from .evaluation import (
    DEFAULT_TIMEOUT_SECONDS,
    INVALID,
    MEASURED,
    TIMEOUT,
    CommandEvaluatorConfig,
    Measurement,
    command_evaluate,
    load_command_config,
    load_cost_model,
    simulate_time,
)
from .ga import FITNESS_EXPONENT, GAConfig, run_ga
from .loops import LoopNode, build_loop_tree, extract_accesses
from .parser import parse
from .transfer import TransferPlan, plan_transfers

EXIT_OK = 0
EXIT_GATE_REJECT = 12
EXIT_NO_OFFLOADABLE_LOOPS = EmptyGenome.exit_code


@dataclass
class PipelineConfig:
    source: str
    profile: str
    evaluator: str                  # 'sim:<costmodel.json>' or 'cmd:<config.json>'
    ga: GAConfig
    out: str                        # annotated best source
    report: str                     # JSON report
    gate_threshold: int = DEFAULT_GATE_THRESHOLD


def _write(path: str | None, text: str):
    """Write an output as UTF-8 to path, or to standard output when None."""
    _write_output(path, text, OutputError)


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def gate_dict(decision: GateDecision) -> dict:
    return {
        "pass": decision.passed,
        "max_total_iterations": decision.max_total_iterations,
        "threshold": decision.threshold,
        "loop_id": decision.loop_id,
    }


def _config_dict(cfg: PipelineConfig) -> dict:
    return {
        "source": str(cfg.source),
        "profile": str(cfg.profile),
        "evaluator": cfg.evaluator,
        "population": cfg.ga.population,
        "generations": cfg.ga.generations,
        "crossover_rate": cfg.ga.crossover_rate,
        "mutation_rate": cfg.ga.mutation_rate,
        "timeout_seconds": cfg.ga.timeout_seconds,
        "penalty_seconds": cfg.ga.penalty_seconds,
        "seed": cfg.ga.rng_seed,
        "fitness_exponent": FITNESS_EXPONENT,
        "gate_threshold": cfg.gate_threshold,
    }


def load_program(path: str):
    """Parse a source file; returns (program, loop tree, accesses)."""
    text = _read_input(path, "source", lambda message: ParseError(message, 1, 1, str(path)),
                       as_json=False)
    program = parse(text, str(path))
    return program, build_loop_tree(program), extract_accesses(program)


_PROBE_REASONS = {MEASURED: ELIGIBLE, INVALID: EXTERNAL_COMPILE_ERROR,
                  TIMEOUT: EXTERNAL_COMPILE_TIMEOUT}


def probe_parallelizable(config: CommandEvaluatorConfig, program,
                         tree: list[LoopNode]) -> list[ParallelizabilityVerdict]:
    """External oracle, by loop_id: one command_evaluate with no run step per
    loop, its text the input plus one kernels line before that loop.  A clean
    compile means eligible; a failed or timed-out one means not."""
    verdicts = []
    for node in tree:
        text = kernels_only_annotation(program, tree, node.loop_id)
        reason = _PROBE_REASONS[command_evaluate(config, text).status]
        verdicts.append(ParallelizabilityVerdict(node.loop_id, reason == ELIGIBLE, reason))
    return verdicts


def build_evaluator(spec: str, program, tree: list[LoopNode], accesses,
                    genome_map: GenomeMap, profile: Profile,
                    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS):
    """Resolve an evaluator spec into an evaluate(bits) that plans the
    genome's transfers, then prices the plan: `sim:<model.json>` with a cost
    model that names each loop of the tree and no other (checked here), or
    `cmd:<config.json>` by a trial of the annotated source under the timeout."""
    if spec.startswith("sim:"):
        model = load_cost_model(spec[4:])
        check_loop_ids(model.loops, tree, f"cost model {spec[4:]}", ModelError)

        def price(bits: str, plan: TransferPlan) -> Measurement:
            return simulate_time(model, bits, genome_map, tree, profile, plan)
    elif spec.startswith("cmd:"):
        config = load_command_config(spec[4:], timeout_seconds)

        def price(bits: str, plan: TransferPlan) -> Measurement:
            annotated = emit_annotated(program, tree, bits, genome_map, plan)
            return command_evaluate(config, annotated.text)
    else:
        raise ModelError(f"evaluator spec {spec!r} must start with 'sim:' or 'cmd:'")

    def evaluate(bits: str) -> Measurement:
        return price(bits, plan_transfers(program, tree, accesses, bits, genome_map))
    return evaluate


def _run_stages(cfg: PipelineConfig, report: dict) -> tuple[int, str]:
    """Run the stages in order, adding each one's section to the report, up
    to the first that ends the run; returns (exit code, result)."""
    program, tree, accesses = load_program(cfg.source)
    profile = load_profile(cfg.profile, tree)

    decision = gate(tree, profile, cfg.gate_threshold)
    report["gate"] = gate_dict(decision)
    if not decision.passed:
        return EXIT_GATE_REJECT, "gate-reject"

    verdicts = check_all_parallelizable(tree, accesses)
    report["verdicts"] = [asdict(v) for v in verdicts]
    genome_map = build_genome_map(verdicts)
    if not genome_map:
        return EXIT_NO_OFFLOADABLE_LOOPS, "no-offloadable-loops"

    evaluate = build_evaluator(cfg.evaluator, program, tree, accesses,
                               genome_map, profile, cfg.ga.timeout_seconds)
    result = run_ga(cfg.ga, genome_map, tree, evaluate)
    report["config"]["effective_population"] = result.effective_population
    report["genome_map"] = list(genome_map.loop_ids)
    report["generations"] = [asdict(s) for s in result.history]
    report["best"] = asdict(result.best)
    if result.best.status != MEASURED:
        # no trial was measured: every individual was nested or its trial
        # failed, so there is no code worth emitting
        return EXIT_NO_OFFLOADABLE_LOOPS, "no-valid-genome-evaluated"

    best_plan = plan_transfers(program, tree, accesses, result.best.genome, genome_map)
    annotated = emit_annotated(program, tree, result.best.genome, genome_map, best_plan)
    _write(cfg.out, annotated.text)
    return EXIT_OK, "ok"


def run_pipeline(cfg: PipelineConfig) -> tuple[int, dict]:
    """Full tuning run.  Returns (exit_code, report dict).

    The report is written to cfg.report on every path that produces a
    verdict (gate reject, no offloadable loops, success); hard errors such
    as unparseable input or a broken evaluator leave no partial report and
    surface through their exception, whose type carries the CLI's exit code.
    """
    report = {"config": _config_dict(cfg)}
    code, report["result"] = _run_stages(cfg, report)
    _write(cfg.report, render_report(report))
    return code, report
