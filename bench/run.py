"""Benchmark of `acctuner tune` on three workloads.

    python3 bench/run.py --workload sim-stress75 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                  # every workload, one fresh process each

Each run tunes the workload's inputs in this process, back to back, for
about --seconds, through `acctuner.pipeline.run_pipeline` imported from
src/ of this checkout.  Each tune's outputs are checked against
computations made apart from acctuner (checks.py).  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end figures, each a
median over the run's tunes; with --trace 1 the run alternates untimed
traced tunes with plain ones and reports per-layer figures (spans.py).

An operation is one tune or one evaluator call.  A failure is a tune that
raised or exited nonzero, a tune whose output failed a check, or an
evaluator call that returned `invalid` or `timeout`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen_large
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = BENCH / "inputs"
OUT = BENCH / "out"

END_TO_END = {"tune_s": "s", "setup_s": "s", "evals_per_s": "1/s",
              "best_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "parser.parse_s": "s", "parser.kb_per_s": "KB/s",
    "loops.tree_s": "s", "loops.accesses_s": "s", "loops.accesses": "count",
    "analysis.profile_s": "s", "analysis.gate_s": "s", "analysis.oracle_s": "s",
    "analysis.eligible": "count",
    "transfer.plan_s": "s", "transfer.plan_ms": "ms", "transfer.directives": "count",
    "transfer.hoisted": "count",
    "evaluation.simulate_s": "s", "evaluation.simulate_ms": "ms",
    "evaluation.command_ms": "ms", "evaluation.trial_overhead_ms": "ms",
    "emitter.emit_ms": "ms",
    "ga.self_s": "s", "ga.evals": "count", "ga.invalid": "count",
    "ga.cache_hits": "count", "ga.useful_ratio": "ratio",
    "pipeline.report_s": "s", "trace.overhead_s": "s",
}
WORKLOADS = ("sim-stress75", "sim-large", "cmd-mix10")
# The stub's own processes (sh, cp, grep, cmp, sleep) take about 15 ms per
# trial, and that cost swings by half with the host's load.  A wait several
# times longer keeps the swing a small share of a trial.
STUB_WAIT_S = 0.1
# share of a timed run spent on set-up-only tunes: a full tune gives one
# set-up sample in up to several seconds, and setup_s is their median
SETUP_SHARE = 0.05


@dataclass
class Workload:
    source: Path
    profile: Path
    evaluator: str
    eligible: list[int]
    loops: list[dict]                   # {"line", "parent"} per loop id
    ga_seeds: list[int]
    ga: dict = field(default_factory=dict)
    deterministic: bool = True          # same seed, same report bytes
    extra_check: Callable[[dict, str], list[str]] | None = None


def ga_seeds(seed: int, count: int) -> list[int]:
    """Run seed n tunes with GA seeds count*(n-1)+1 .. count*n."""
    return [count * (seed - 1) + 1 + k for k in range(count)]


def stress75(seed: int, work: Path) -> Workload:
    profile = json.loads((INPUTS / "stress75_profile.json").read_text())
    model = json.loads((INPUTS / "stress75_model.json").read_text())
    eligible = [slot for slot in range(90) if slot % 6 != 5]
    costs = checks.stress75_costs(profile, model, eligible)
    source = INPUTS / "stress75.c"
    return Workload(
        source, INPUTS / "stress75_profile.json",
        f"sim:{INPUTS / 'stress75_model.json'}", eligible,
        checks.scan_loops(source.read_text()), ga_seeds(seed, 5),
        extra_check=lambda report, annotated: checks.check_stress75_seconds(report, costs))


def large(seed: int, work: Path) -> Workload:
    paths = gen_large.write(seed, work)
    record = json.loads(paths["record"].read_text())
    loops = [{"line": loop["line"], "parent": loop["parent"]} for loop in record["loops"]]
    return Workload(
        paths["source"], paths["profile"], f"sim:{paths['model']}",
        [loop["id"] for loop in record["loops"] if loop["eligible"]], loops,
        ga_seeds(seed, 16), ga={"population": 30, "generations": 1},
        extra_check=lambda report, annotated: checks.check_transfers(report, annotated, record))


def mix10(seed: int, work: Path) -> Workload:
    """mix10 under a stub toolchain: the compile copies the trial, the run
    checks that the trial minus its pragma lines is the input and then
    waits STUB_WAIT_S without using the CPU."""
    source = INPUTS / "mix10.c"
    config = {
        "compile_cmd": "cp '{src}' '{bin}'",
        "run_cmd": (f"grep -v '^[[:space:]]*#pragma acc' '{{bin}}' | "
                    f"cmp -s - {shlex.quote(str(source))} && sleep {STUB_WAIT_S}"),
        "workdir": str(work),
    }
    config_path = work / "stub.json"
    config_path.write_text(json.dumps(config))
    return Workload(
        source, INPUTS / "mix10_profile.json", f"cmd:{config_path}", list(range(10)),
        checks.scan_loops(source.read_text()), ga_seeds(seed, 16),
        ga={"workers": 2, "generations": 5}, deterministic=False)


PREPARE = {"sim-stress75": stress75, "sim-large": large, "cmd-mix10": mix10}


@dataclass
class Tune:
    ga_seed: int
    summary: dict                       # spans.search_summary of the tune
    ran: bool                           # returned exit code 0
    errors: list[str]                   # failed output checks
    report: bytes = b""
    best_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.ran and not self.errors


def import_acctuner():
    if not (ROOT / "src" / "acctuner" / "__init__.py").is_file():
        sys.exit(f"bench: no acctuner sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import acctuner.pipeline as pipeline
    from acctuner.ga import GAConfig
    return pipeline, GAConfig


def pipeline_config(pipeline, GAConfig, wl: Workload, work: Path, ga_seed: int):
    out, report_path = work / "best.c", work / "report.json"
    for path in (out, report_path):
        path.unlink(missing_ok=True)
    return pipeline.PipelineConfig(
        source=str(wl.source), profile=str(wl.profile), evaluator=wl.evaluator,
        ga=GAConfig(rng_seed=ga_seed, **wl.ga), out=str(out), report=str(report_path))


def run_tune(pipeline, GAConfig, wl: Workload, work: Path, ga_seed: int,
             tracer: spans.Tracer) -> Tune:
    """One tune under the tracer's wrappers, then its output checks."""
    out, report_path = work / "best.c", work / "report.json"
    cfg = pipeline_config(pipeline, GAConfig, wl, work, ga_seed)
    first = len(tracer.spans)
    with tracer, tracer.tune_span():
        try:
            code, _ = pipeline.run_pipeline(cfg)
        except Exception as exc:  # a tune that raises is a failed operation
            print(f"bench: GA seed {ga_seed}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = None
    summary = spans.search_summary(tracer.spans[first:])
    if code != 0:
        print(f"bench: GA seed {ga_seed}: exit code {code}", file=sys.stderr)
        return Tune(ga_seed, summary, False, [])
    report_bytes = report_path.read_bytes()
    report = json.loads(report_bytes)
    annotated = out.read_text()
    errors = (checks.check_roundtrip(annotated, wl.source.read_text())
              + checks.check_genome_map(report, wl.eligible)
              + checks.check_best(report, annotated, wl.loops))
    if wl.extra_check is not None and not errors:
        errors += wl.extra_check(report, annotated)
    return Tune(ga_seed, summary, True, errors, report_bytes, report["best"]["seconds"])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pipeline, GAConfig = import_acctuner()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
    try:
        wl = PREPARE[workload](seed, work)
        setups, plain, traced, tracer = run_tunes(pipeline, GAConfig, wl, work, seconds,
                                                  trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tunes = plain + traced
    attempted = len(tunes) + sum(t.summary["evals"] for t in tunes)
    failed = sum(not t.ok for t in tunes) + sum(t.summary["failed_evals"] for t in tunes)
    errors = [f"GA seed {t.ga_seed}: {e}" for t in tunes for e in t.errors]
    if wl.deterministic:
        errors += determinism_errors(tunes)
    for e in errors:
        print(f"bench: {workload}: {e}", file=sys.stderr)

    if trace:
        tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
        per_tune = [spans.layer_metrics([s for s in tracer.spans if s.tune == t])
                    for t in {s.tune for s in tracer.spans}]
        metrics = {name: statistics.median(m[name] for m in per_tune)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        # each traced tune against the plain tune of the same seed just before it
        metrics["trace.overhead_s"] = statistics.median(
            t.summary["tune_s"] - p.summary["tune_s"] for p, t in zip(plain, traced))
        units = PER_LAYER
    else:
        metrics = end_to_end(setups, plain, wl.deterministic)
        units = END_TO_END
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def sample_setups(pipeline, GAConfig, wl: Workload, work: Path, seconds: float) -> list[float]:
    """Set-up times of tunes stopped at their first evaluator call, back to
    back for `seconds` and at least 3 of them.  A tune that ends otherwise
    stops the sampling; the full tunes report what went wrong."""
    tracer = spans.Tracer(pipeline, spans.SEARCH, setup_only=True)
    deadline = time.perf_counter() + seconds
    samples: list[float] = []
    while len(samples) < 3 or time.perf_counter() < deadline:
        cfg = pipeline_config(pipeline, GAConfig, wl, work, wl.ga_seeds[0])
        first = len(tracer.spans)
        with tracer, tracer.tune_span():
            try:
                pipeline.run_pipeline(cfg)
                return samples
            except spans.SetupDone:
                pass
            except Exception:
                return samples
        samples.append(spans.search_summary(tracer.spans[first:])["setup_s"])
    return samples


def run_tunes(pipeline, GAConfig, wl: Workload, work: Path, seconds: float, trace: bool
              ) -> tuple[list[float], list[Tune], list[Tune], spans.Tracer]:
    """Set-up-only tunes for SETUP_SHARE of the run (not when tracing), then
    full tunes back to back, cycling through the GA seeds, until the next
    tune would end past the deadline.  Every GA seed runs at least once, and
    a deterministic workload repeats its first seed.  With trace, each plain
    tune is followed by a traced tune of the same seed."""
    deadline = time.perf_counter() + seconds
    setups = [] if trace else sample_setups(pipeline, GAConfig, wl, work,
                                            SETUP_SHARE * seconds)
    light = spans.Tracer(pipeline, spans.SEARCH)
    full = spans.Tracer(pipeline, spans.LAYERS)
    plain: list[Tune] = []
    traced: list[Tune] = []
    at_least = 1 if trace else len(wl.ga_seeds) + wl.deterministic
    while True:
        ga_seed = wl.ga_seeds[len(plain) % len(wl.ga_seeds)]
        plain.append(run_tune(pipeline, GAConfig, wl, work, ga_seed, light))
        if trace:
            traced.append(run_tune(pipeline, GAConfig, wl, work, ga_seed, full))
        step = sum(statistics.median(t.summary["tune_s"] for t in ts)
                   for ts in (plain, traced) if ts)
        if len(plain) >= at_least and time.perf_counter() + step > deadline:
            return setups, plain, traced, full


def determinism_errors(tunes: list[Tune]) -> list[str]:
    first: dict[int, bytes] = {}
    return [f"GA seed {t.ga_seed}: report differs from an earlier tune with the same seed"
            for t in tunes if t.ran and first.setdefault(t.ga_seed, t.report) != t.report]


def end_to_end(setups: list[float], plain: list[Tune], deterministic: bool
               ) -> dict[str, float]:
    good = [t for t in plain if t.ok]
    if deterministic:
        # the best is a function of the GA seed and bunches at a few values:
        # the mean over the run's GA seeds moves less between runs than a median
        per_seed = list({t.ga_seed: t.best_s for t in good}.values())
        best_s = statistics.fmean(per_seed) if per_seed else 0.0
    else:
        best_s = statistics.median(t.best_s for t in good) if good else 0.0
    rates = [t.summary["evals"] / t.summary["search_s"] for t in plain
             if t.summary["search_s"] > 0]
    return {
        "tune_s": statistics.median(t.summary["tune_s"] for t in plain),
        "setup_s": statistics.median(setups + [t.summary["setup_s"] for t in plain]),
        "evals_per_s": statistics.median(rates) if rates else 0.0,
        "best_s": best_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:30s} {metric['value']:14.6g} {metric['unit']}")
            combined["metrics"][f"{workload}/{name}"] = metric
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of acctuner tune.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
