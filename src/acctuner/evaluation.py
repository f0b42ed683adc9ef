"""Genome performance measurement.

Two evaluators sit behind one interface: a deterministic cost-model
simulator for desk-scale testing, and an external-command evaluator whose
one call per trial writes the annotated source, compiles and runs it, each
command under a wall-clock timeout (run_shell), and removes it.  Each
reports a status and the seconds it measured; what a failed trial costs the
search is the search's own decision (ga.run_ga).
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from string import Formatter

from .analysis import GenomeMap, Profile
from .errors import ModelError, SpawnError, _quote, _read_input, _write_output
from .loops import LoopNode
from .transfer import TransferPlan, regions

MEASURED = "measured"
TIMEOUT = "timeout"
INVALID = "invalid"


@dataclass(frozen=True)
class Measurement:
    seconds: float
    status: str                 # 'measured' | 'timeout' | 'invalid'


@dataclass(frozen=True)
class LoopCost:
    cpu_us_per_iter: float      # cost of the loop's immediate body, nested loops excluded
    gpu_speedup: float
    kernel_launch_us: float


@dataclass(frozen=True)
class CostModel:
    loops: dict[int, LoopCost]
    var_bytes: dict[str, float]
    transfer_fixed_us: float
    transfer_us_per_kib: float


def load_cost_model(path: str | Path) -> CostModel:
    """Load a cost model:
    {"loops":{"0":{"cpu_us_per_iter":1.0,"gpu_speedup":10.0,"kernel_launch_us":100.0}},
     "vars":{"a":{"size_bytes":4194304}},
     "transfer_fixed_us":10.0,"transfer_us_per_kib":1.0}
    """
    data = _read_input(path, f"cost model {path}", ModelError)
    try:
        loops = {int(key): LoopCost(float(rec["cpu_us_per_iter"]),
                                    float(rec["gpu_speedup"]),
                                    float(rec["kernel_launch_us"]))
                 for key, rec in data["loops"].items()}
        var_bytes = {name: float(rec["size_bytes"])
                     for name, rec in data.get("vars", {}).items()}
        fixed = float(data["transfer_fixed_us"])
        per_kib = float(data["transfer_us_per_kib"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"cost model {path}: malformed entry: {_quote(exc)}") from exc
    # int() also reads "1_0", " 2" and "01", so two keys could price one loop
    for key in data["loops"]:
        if str(int(key)) != key:
            raise ModelError(
                f"cost model {path}: loop key {_quote(key)} is not a loop id in decimal")
    # NaN fails every comparison, so each bound below also rejects it
    for key, cost in loops.items():
        if not (0 <= cost.cpu_us_per_iter < math.inf and 0 <= cost.kernel_launch_us < math.inf):
            raise ModelError(f"cost model {path}: loop {key} needs finite, non-negative costs")
        if not 0 < cost.gpu_speedup < math.inf:
            raise ModelError(f"cost model {path}: loop {key} needs a finite gpu_speedup > 0")
    if not all(0 <= x < math.inf for x in (fixed, per_kib, *var_bytes.values())):
        raise ModelError(f"cost model {path}: costs must be finite and non-negative")
    return CostModel(loops, var_bytes, fixed, per_kib)


def directive_cost_us(model: CostModel, directive_vars: tuple[str, ...]) -> float:
    """One execution of one data directive, in microseconds."""
    total = model.transfer_fixed_us
    for var in directive_vars:
        if var not in model.var_bytes:
            raise ModelError(f"cost model has no size for variable {_quote(var)}")
        total += model.var_bytes[var] / 1024.0 * model.transfer_us_per_kib
    return total


def simulate_time(model: CostModel, genome_bits: str, genome_map: GenomeMap,
                  tree: list[LoopNode], profile: Profile,
                  plan: TransferPlan) -> Measurement:
    """Deterministic cost-model time for a valid genome.

    CPU loops cost iterations x per-iteration weight; each selected region
    runs its whole subtree cost divided by its speedup plus one kernel
    launch per region entry; each planned directive pays its transfer cost
    once per execution.  The model covers the loop tree, which
    pipeline.build_evaluator checks once, before the search.
    """
    region_of = regions(genome_bits, genome_map, tree)
    total_us = 0.0
    # region -> its subtree's work; each enters at its own loop, so keys ascend
    region_work: dict[int, float] = {}
    for node, region in zip(tree, region_of):
        work = profile[node.loop_id].total_iterations * model.loops[node.loop_id].cpu_us_per_iter
        if region is None:
            total_us += work
        else:
            region_work[region] = region_work.get(region, 0.0) + work

    for region, work in region_work.items():
        cost = model.loops[region]
        total_us += work / cost.gpu_speedup
        total_us += profile[region].entry_count * cost.kernel_launch_us

    # a directive's transfer runs once per arrival at its target loop's header
    for directive in plan.directives:
        total_us += (profile[directive.target_loop].entry_count
                     * directive_cost_us(model, directive.vars))

    return Measurement(total_us / 1e6, MEASURED)


# Each command runs in its own session, and when it ends, however it ends,
# its whole process group is killed, so nothing it started outlives it.  An
# interrupt reaches only the main thread, so kill_running lets it kill the
# groups that other threads are waiting on.

DEFAULT_TIMEOUT_SECONDS = 180.0

_running: set[int] = set()      # process groups started and not yet killed
_running_lock = threading.Lock()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass    # every process of the group has already exited


def kill_running() -> None:
    """Kill the process group of every command that run_shell is running in
    this process."""
    with _running_lock:
        for pgid in _running:
            _kill_group(pgid)


def run_shell(cmd: str, timeout_seconds: float,
              cwd: str | Path | None = None) -> tuple[int | None, float]:
    """Run `cmd` through the shell with its output discarded.

    Returns its exit status, or None when it runs past timeout_seconds,
    and the seconds from its spawn to its exit.  Raises OSError when the
    shell cannot be spawned.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, shell=True, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, cwd=cwd, start_new_session=True)
    with _running_lock:
        _running.add(proc.pid)
    exited = []

    def reap():
        proc.wait()
        exited.append(time.perf_counter())

    # A blocking wait in a thread wakes the moment the shell exits;
    # Popen.wait(timeout) would poll with sleeps of 1 ms and more.
    reaper = threading.Thread(target=reap, daemon=True)
    reaper.start()
    try:
        reaper.join(timeout_seconds)
        timed_out = reaper.is_alive()
    finally:
        # the shell leads its own process group; this also kills what it
        # left in the background, or everything on a timeout or interrupt
        with _running_lock:
            _kill_group(proc.pid)
            _running.discard(proc.pid)
        reaper.join()
    return (None if timed_out else proc.returncode), exited[0] - start


def _check_template(name: str, template) -> None:
    """Reject at load any field but a bare {src} or {bin}."""
    if not isinstance(template, str) or not template:
        raise ValueError(f"{name} must be a non-empty string")
    try:
        bad = [_quote(field) for _, field, spec, conversion in Formatter().parse(template)
               if field is not None and (field not in ("src", "bin") or spec or conversion)]
    except ValueError as exc:
        bad = [str(exc)]
    if bad:
        raise ValueError(f"{name} {_quote(template)} has a bad field ({bad[0]}): only {{src}} and "
                         "{bin} are filled in, and a literal brace is written {{ or }}")


@dataclass
class CommandEvaluatorConfig:
    compile_cmd: str            # shell template with {src} and {bin}
    run_cmd: str | None         # likewise; None for a compile probe, which has no run step
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS
    workdir: str | None = None

    def __post_init__(self):
        _check_template("compile_cmd", self.compile_cmd)
        if self.run_cmd is not None:
            _check_template("run_cmd", self.run_cmd)
        workdir = self.workdir
        if workdir is not None and not (isinstance(workdir, str) and os.path.isdir(workdir)):
            raise ValueError(f"workdir {_quote(workdir)} is not an existing directory")


def load_command_config(path: str | Path, timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS,
                        run_step: bool = True) -> CommandEvaluatorConfig:
    """Read compile_cmd, run_cmd (ignored without a run step) and an optional
    workdir from the file, which may hold no other key; the timeout is the
    caller's."""
    data = _read_input(path, f"command config {path}", SpawnError)
    try:
        config = CommandEvaluatorConfig(
            compile_cmd=data["compile_cmd"],
            run_cmd=data["run_cmd"] if run_step else None,
            timeout_seconds=timeout_seconds,
            workdir=data.get("workdir"),
        )
    except KeyError as exc:
        raise SpawnError(f"cannot load command config {path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SpawnError(f"cannot load command config {path}: {exc}") from exc
    # a misspelled workdir would otherwise run every trial somewhere else
    unknown = [key for key in data if key not in ("compile_cmd", "run_cmd", "workdir")]
    if unknown:
        raise SpawnError(f"cannot load command config {path}: unknown key {_quote(unknown[0])}")
    return config


def command_evaluate(config: CommandEvaluatorConfig, text: str) -> Measurement:
    """Compile and run one annotated source text, timing only the run.

    The text goes to a new trial_*.c in the config's workdir (default: the
    system temp directory), removed with its .bin however the trial ends;
    the templates get the two as {src} and {bin}.  The deadline is tested
    first: a compile or a run that exceeds the timeout yields Timeout,
    whatever its exit status.  Otherwise a failed compile or a nonzero run
    exit yields Invalid.  Both carry the seconds the failing step ran.
    Without a run step, a clean compile is measured by its own time.
    Each command's process group is killed when it ends (run_shell).  A
    source that cannot be written or a shell that cannot be spawned raises
    SpawnError instead, so infrastructure trouble never looks like a slow
    genome.
    """
    try:
        fd, name = tempfile.mkstemp(".c", "trial_",
                                    os.path.abspath(config.workdir) if config.workdir else None)
        os.close(fd)
    except OSError as exc:
        raise SpawnError(f"cannot write a trial source: {exc}") from exc
    src = Path(name)
    try:
        _write_output(src, text, SpawnError)
        for step, template in (("compile", config.compile_cmd), ("run", config.run_cmd)):
            if template is None:
                break
            cmd = template.format(src=src, bin=src.with_suffix(".bin"))
            try:
                status, elapsed = run_shell(cmd, config.timeout_seconds, config.workdir)
            except OSError as exc:
                raise SpawnError(f"cannot spawn {step} command {cmd!r}: {exc}") from exc
            if status is None or elapsed > config.timeout_seconds:
                return Measurement(elapsed, TIMEOUT)
            if status != 0:
                return Measurement(elapsed, INVALID)
        return Measurement(elapsed, MEASURED)
    finally:
        src.unlink(missing_ok=True)
        src.with_suffix(".bin").unlink(missing_ok=True)
