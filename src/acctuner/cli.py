"""Command-line interface.

Subcommands mirror the pipeline stages so each step can run on its own:

    acctuner analyze        loop tree and access dump
    acctuner gate           profiling gate verdict
    acctuner check          per-loop parallelizability verdicts
    acctuner plan-transfers data-directive plan for a genome bitstring
    acctuner emit           annotated source for a genome bitstring
    acctuner tune           the full search pipeline

Genome bitstrings are written most-significant-first in genome-map order:
the leftmost character controls the lowest eligible loop id.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from dataclasses import asdict

from .analysis import (
    DEFAULT_GATE_THRESHOLD,
    build_genome_map,
    check_all_parallelizable,
    gate,
    load_profile,
)
from .emitter import emit_annotated
from .errors import AutotunerError, EmptyGenome, Interrupted, SpawnError, UsageError
from .evaluation import load_command_config
from .ga import GAConfig
from .pipeline import (
    EXIT_GATE_REJECT,
    EXIT_OK,
    PipelineConfig,
    _write,
    gate_dict,
    load_program,
    probe_parallelizable,
    render_report,
    run_pipeline,
)
from .transfer import plan_transfers

def _emit_json(data: dict, out: str | None):
    _write(out or None, render_report(data))


def _add_source(p: argparse.ArgumentParser):
    p.add_argument("--source", required=True, help="C-like source file")


# tune flag -> (GAConfig field, help); each default is the field's own
_GA_FLAGS = {
    "pop": ("population", "population size M"),
    "gens": ("generations", "generation count T"),
    "pc": ("crossover_rate", "crossover rate"),
    "pm": ("mutation_rate", "mutation rate"),
    "timeout": ("timeout_seconds", "per-measurement timeout in seconds"),
    "penalty": ("penalty_seconds", "assumed seconds for timed-out or invalid individuals"),
    "seed": ("rng_seed", "random seed"),
    "workers": ("workers", "concurrent evaluations per generation"),
}


def _add_ga_flags(p: argparse.ArgumentParser):
    defaults = GAConfig()
    for flag, (field, help_) in _GA_FLAGS.items():
        default = getattr(defaults, field)
        p.add_argument(f"--{flag}", type=type(default), default=default, help=help_)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acctuner",
        description="GPU-offload autotuner for C-like sources")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="dump the loop tree and variable accesses")
    _add_source(p)
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("gate", help="profiling gate on loop iteration counts")
    _add_source(p)
    p.add_argument("--profile", required=True, help="loop-count profile JSON")
    p.add_argument("--gate-threshold", type=int, default=DEFAULT_GATE_THRESHOLD)
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("check", help="per-loop parallelizability verdicts")
    _add_source(p)
    p.add_argument("--oracle", default="builtin",
                   help="'builtin' or cmd:<config.json> with a compile_cmd template")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("plan-transfers", help="data-directive plan for a genome")
    _add_source(p)
    p.add_argument("--genome", required=True, help="0/1 bitstring over eligible loops")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("emit", help="annotated source for a genome")
    _add_source(p)
    p.add_argument("--genome", required=True, help="0/1 bitstring over eligible loops")
    p.add_argument("--out", help="write the annotated source here instead of stdout")

    p = sub.add_parser("tune", help="full pipeline: gate, search, emit, report")
    _add_source(p)
    p.add_argument("--profile", required=True, help="loop-count profile JSON")
    p.add_argument("--evaluator", required=True,
                   help="sim:<costmodel.json> or cmd:<config.json>")
    p.add_argument("--gate-threshold", type=int, default=DEFAULT_GATE_THRESHOLD)
    _add_ga_flags(p)
    p.add_argument("--out", required=True, help="annotated best source path")
    p.add_argument("--report", required=True, help="JSON report path")

    return parser


def _cmd_analyze(args) -> int:
    program, tree, accesses = load_program(args.source)
    data = {
        "functions": [fn.name for fn in program.functions],
        "loops": [
            {
                "loop_id": n.loop_id,
                "kind": n.kind,
                "parent": n.ancestors[0] if n.ancestors else None,
                "function": n.function,
                "line": n.header_pos.line,
                "col": n.header_pos.col,
                "canonical": n.counter is not None,
            }
            for n in tree
        ],
        "accesses": [
            {
                "var": a.var,
                "kind": a.kind,
                "is_array": a.is_array,
                "line": a.pos.line,
                "col": a.pos.col,
                "loop_path": list(a.loop_path),
                "function": a.function,
            }
            for a in accesses
        ],
    }
    _emit_json(data, args.out)
    return EXIT_OK


def _cmd_gate(args) -> int:
    _, tree, _ = load_program(args.source)
    profile = load_profile(args.profile, tree)
    decision = gate(tree, profile, args.gate_threshold)
    _emit_json(gate_dict(decision), args.out)
    return EXIT_OK if decision.passed else EXIT_GATE_REJECT


def _cmd_check(args) -> int:
    program, tree, accesses = load_program(args.source)
    if args.oracle == "builtin":
        verdicts = check_all_parallelizable(tree, accesses)
    elif args.oracle.startswith("cmd:"):
        config = load_command_config(args.oracle[4:], run_step=False)
        verdicts = probe_parallelizable(config, program, tree)
    else:
        raise SpawnError(
            f"--oracle must be 'builtin' or cmd:<config.json>, got {args.oracle!r}")
    genome_map = build_genome_map(verdicts)
    _emit_json({
        "verdicts": [asdict(v) for v in verdicts],
        "genome_map": list(genome_map.loop_ids),
        "gene_length": len(genome_map),
    }, args.out)
    return EXIT_OK


def _genome_context(source: str):
    program, tree, accesses = load_program(source)
    genome_map = build_genome_map(check_all_parallelizable(tree, accesses))
    if not genome_map:
        raise EmptyGenome("no offloadable loops")
    return program, tree, accesses, genome_map


def _cmd_plan_transfers(args) -> int:
    program, tree, accesses, genome_map = _genome_context(args.source)
    plan = plan_transfers(program, tree, accesses, args.genome, genome_map)
    _emit_json(asdict(plan), args.out)
    return EXIT_OK


def _cmd_emit(args) -> int:
    program, tree, accesses, genome_map = _genome_context(args.source)
    plan = plan_transfers(program, tree, accesses, args.genome, genome_map)
    annotated = emit_annotated(program, tree, args.genome, genome_map, plan)
    _write(args.out or None, annotated.text)
    return EXIT_OK


def _cmd_tune(args) -> int:
    try:
        ga = GAConfig(**{field: getattr(args, flag)
                         for flag, (field, _) in _GA_FLAGS.items()})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cfg = PipelineConfig(
        source=args.source,
        profile=args.profile,
        evaluator=args.evaluator,
        ga=ga,
        gate_threshold=args.gate_threshold,
        out=args.out,
        report=args.report,
    )
    code, report = run_pipeline(cfg)
    _write(None, f"{report['result']}\n")
    return code


_COMMANDS = {
    "analyze": _cmd_analyze,
    "gate": _cmd_gate,
    "check": _cmd_check,
    "plan-transfers": _cmd_plan_transfers,
    "emit": _cmd_emit,
    "tune": _cmd_tune,
}


def _fail(exc: AutotunerError) -> int:
    error = {"type": type(exc).__name__, "message": str(exc), "exit_code": exc.exit_code}
    sys.stderr.write(json.dumps({"error": error}) + "\n")
    return exc.exit_code


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    # SIGTERM (kill, timeout) stops a run as SIGINT does; only the main
    # thread may set a handler, and a caller's own handler stays
    term = (threading.current_thread() is threading.main_thread()
            and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL)
    if term:
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        # the pipeline writes its files after the search, so an interrupt in it leaves none
        return _fail(Interrupted("interrupted"))
    except AutotunerError as exc:
        return _fail(exc)
    finally:
        if term:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


if __name__ == "__main__":
    raise SystemExit(main())
