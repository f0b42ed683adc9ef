"""Spans around acctuner's layer calls, recorded from the benchmark's side.

A Tracer replaces the named functions in `acctuner.pipeline`'s namespace
with wrappers for the duration of a `with` block, so `run_pipeline` calls
them through the wrappers; the evaluator that `run_ga` receives is wrapped
too.  Spans stay in memory (name, start, end, parent, tune id, thread and a
few counts read off the call) and are written out when the run ends.

Timed runs wrap only `run_ga` and the evaluator: one span per search and
one per evaluator call, which is what set-up time and evaluations per
second need.  Traced runs wrap every layer in LAYERS.  A set-up-only
Tracer raises SetupDone in place of the first evaluator call, which ends
the tune once its set-up is timed.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

SEARCH = ("run_ga",)
LAYERS = ("parse", "build_loop_tree", "extract_accesses", "load_profile", "gate",
          "check_all_parallelizable", "build_genome_map", "build_evaluator",
          "run_ga", "plan_transfers", "simulate_time", "command_evaluate",
          "emit_annotated", "render_report", "_write")

# counts read off a call's arguments and result
_INFO = {
    "parse": lambda args, result: {"bytes": len(args[0].encode())},
    "extract_accesses": lambda args, result: {"accesses": len(result)},
    "build_genome_map": lambda args, result: {"eligible": len(result)},
    "plan_transfers": lambda args, result: {
        "directives": len(result.directives),
        "hoisted": sum(d.target_loop != d.origin_region for d in result.directives)},
    "run_ga": lambda args, result: {
        "evals": result.evaluations_performed,
        "cache_hits": result.cache_hits,
        "scored": result.effective_population * len(result.history)},
    "evaluate": lambda args, result: {"status": result.status},
}


class SetupDone(Exception):
    """Raised in place of the evaluator by a set-up-only Tracer."""


def _stop(*args, **kwargs):
    raise SetupDone


@dataclass
class Span:
    id: int
    parent: int | None
    tune: int
    name: str
    thread: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, module, names=SEARCH, setup_only=False):
        self.module = module
        self.setup_only = setup_only
        # a layer the pipeline no longer calls through its namespace is skipped,
        # and its figures read 0
        self.names = [n for n in names if hasattr(module, n)]
        self.spans: list[Span] = []     # appended from worker threads too
        self.tune = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._search: Span | None = None
        self._saved: dict = {}

    def __enter__(self):
        for name in self.names:
            original = getattr(self.module, name)
            self._saved[name] = original
            setattr(self.module, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(self.module, name, original)
        self._saved.clear()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # evaluator calls on pool threads belong to the search that spawned them
        parent = stack[-1] if stack else self._search
        span = Span(next(self._ids), parent.id if parent else None, self.tune,
                    name, threading.get_ident(), time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn):
        info = _INFO.get(name)

        def traced(*args, **kwargs):
            if name == "run_ga":
                args, kwargs = self._wrap_evaluator(args, kwargs)
            span = self.open(name)
            if name == "run_ga":
                self._search = span
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
                if name == "run_ga":
                    self._search = None
            if info is not None:
                span.info = info(args, result)
            return result
        return traced

    def _wrap_evaluator(self, args, kwargs):
        """run_ga(config, genome_map, tree, evaluate, cache)"""
        def wrap(evaluate):
            return self._wrap("evaluate", _stop if self.setup_only else evaluate)
        if "evaluate" in kwargs:
            kwargs = {**kwargs, "evaluate": wrap(kwargs["evaluate"])}
        elif len(args) > 3:
            args = (*args[:3], wrap(args[3]), *args[4:])
        return args, kwargs

    @contextmanager
    def tune_span(self):
        """Span around one whole tune, under a fresh tune id."""
        self.tune += 1
        span = self.open("tune")
        try:
            yield span
        finally:
            self.close(span)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def search_summary(spans: list[Span]) -> dict:
    """Set-up time, search time and evaluator calls of one tune."""
    tune = next(s for s in spans if s.name == "tune")
    search = [s for s in spans if s.name == "run_ga"]
    evals = [s for s in spans if s.name == "evaluate"]
    first = min((s.start for s in evals), default=search[0].start if search else tune.end)
    return {
        "tune_s": tune.seconds,
        "setup_s": first - tune.start,
        "search_s": sum(s.seconds for s in search),
        "evals": len(evals),
        "failed_evals": sum(s.info.get("status") in ("invalid", "timeout") for s in evals),
    }


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced tune."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.seconds for s in by_name.get(name, ()))

    def mean_ms(name: str) -> float:
        calls = by_name.get(name, ())
        return 1000 * total(name) / len(calls) if calls else 0.0

    def info_mean(name: str, key: str) -> float:
        calls = by_name.get(name, ())
        return sum(s.info.get(key, 0) for s in calls) / len(calls) if calls else 0.0

    def info_sum(name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in by_name.get(name, ()))

    parse_s = total("parse")
    evals = by_name.get("evaluate", [])
    commands = by_name.get("command_evaluate", [])
    ga_self = sum(run.seconds - _covered([(e.start, e.end) for e in evals if e.parent == run.id],
                                         run.start, run.end)
                  for run in by_name.get("run_ga", ()))
    command_by_eval: dict[int, float] = {}
    for c in commands:
        command_by_eval[c.parent] = command_by_eval.get(c.parent, 0.0) + c.seconds
    overhead = [e.seconds - command_by_eval.get(e.id, 0.0) for e in evals]
    scored = info_sum("run_ga", "scored")
    n_evals = info_sum("run_ga", "evals")
    hits = info_sum("run_ga", "cache_hits")
    return {
        "parser.parse_s": parse_s,
        "parser.kb_per_s": info_sum("parse", "bytes") / 1024 / parse_s if parse_s else 0.0,
        "loops.tree_s": total("build_loop_tree"),
        "loops.accesses_s": total("extract_accesses"),
        "loops.accesses": info_sum("extract_accesses", "accesses"),
        "analysis.profile_s": total("load_profile"),
        "analysis.gate_s": total("gate"),
        "analysis.oracle_s": total("check_all_parallelizable"),
        "analysis.eligible": info_sum("build_genome_map", "eligible"),
        "transfer.plan_s": total("plan_transfers"),
        "transfer.plan_ms": mean_ms("plan_transfers"),
        "transfer.directives": info_mean("plan_transfers", "directives"),
        "transfer.hoisted": info_mean("plan_transfers", "hoisted"),
        "evaluation.simulate_s": total("simulate_time"),
        "evaluation.simulate_ms": mean_ms("simulate_time"),
        "evaluation.command_ms": mean_ms("command_evaluate"),
        "evaluation.trial_overhead_ms":
            1000 * sum(overhead) / len(overhead) if commands and overhead else 0.0,
        "emitter.emit_ms": mean_ms("emit_annotated"),
        "ga.self_s": ga_self,
        "ga.evals": n_evals,
        "ga.invalid": scored - n_evals - hits,
        "ga.cache_hits": hits,
        "ga.useful_ratio": n_evals / scored if scored else 0.0,
        "pipeline.report_s": total("render_report") + total("_write"),
    }
