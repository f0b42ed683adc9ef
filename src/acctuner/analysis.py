"""Profiling gate, per-loop parallelizability checks, and the genome map.

The built-in parallelizability oracle is deliberately conservative: a loop
is eligible only when it is a canonical counted for-loop without a return,
no cross-iteration conflict can be constructed from its array index
patterns or scalar write/read pairs, and no scalar its body writes is read
elsewhere in its function.  A false "no" costs performance; a false "yes"
would produce wrong code.  When a real OpenACC compiler is available the
external oracle delegates the same question to a compile probe.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyGenome, ExternalOracleError, ProfileError
from .loops import REF, SET, LoopNode, LoopTree, VarAccess
from .nodes import Program
from .shell import DEFAULT_TIMEOUT_SECONDS, run_shell

DEFAULT_GATE_THRESHOLD = 10_000_000

ELIGIBLE = "eligible"
NOT_CANONICAL_FOR = "not_canonical_for"
LOOP_CARRIED_DEPENDENCE = "loop_carried_dependence"
SCALAR_REDUCTION = "scalar_reduction"
EARLY_EXIT = "early_exit"
LIVE_OUT_SCALAR = "live_out_scalar"
EXTERNAL_COMPILE_ERROR = "external_compile_error"
EXTERNAL_COMPILE_TIMEOUT = "external_compile_timeout"


@dataclass(frozen=True)
class ProfileEntry:
    entry_count: int
    total_iterations: int


@dataclass
class Profile:
    entries: dict[int, ProfileEntry]

    def entry_count(self, loop_id: int) -> int:
        return self.entries[loop_id].entry_count

    def total_iterations(self, loop_id: int) -> int:
        return self.entries[loop_id].total_iterations


def load_profile(path: str | Path, tree: LoopTree | None = None) -> Profile:
    """Load a loop-count profile:
    {"loops":[{"id":0,"entry_count":1,"total_iterations":10000000}, ...]}

    With a tree, every loop id must be covered; counts must be non-negative
    integers.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ProfileError(f"cannot read profile {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("loops"), list):
        raise ProfileError(f"profile {path}: expected a top-level 'loops' list")

    entries: dict[int, ProfileEntry] = {}
    for rec in data["loops"]:
        if not isinstance(rec, dict):
            raise ProfileError(f"profile {path}: malformed record {rec!r}")
        try:
            loop_id = rec["id"]
            entry_count = rec["entry_count"]
            total = rec["total_iterations"]
        except KeyError as exc:
            raise ProfileError(f"profile {path}: record missing key {exc}") from exc
        for name, value in (("id", loop_id), ("entry_count", entry_count),
                            ("total_iterations", total)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ProfileError(
                    f"profile {path}: {name}={value!r} must be a non-negative integer")
        if loop_id in entries:
            raise ProfileError(f"profile {path}: duplicate record for loop {loop_id}")
        entries[loop_id] = ProfileEntry(entry_count, total)

    if tree is not None:
        missing = sorted(n.loop_id for n in tree.nodes if n.loop_id not in entries)
        if missing:
            raise ProfileError(f"profile {path}: missing loop ids {missing}")
    return Profile(entries)


@dataclass(frozen=True)
class GateDecision:
    passed: bool
    max_total_iterations: int
    threshold: int
    loop_id: int | None      # qualifying loop when passed, busiest loop otherwise


def gate(tree: LoopTree, profile: Profile,
         threshold: int = DEFAULT_GATE_THRESHOLD) -> GateDecision:
    """Pass iff some loop's total iteration count reaches the threshold
    (inclusive).  Programs with no loops never pass."""
    best_id = None
    best = 0
    for node in tree.nodes:
        total = profile.total_iterations(node.loop_id)
        if best_id is None or total > best:
            best_id = node.loop_id
            best = total
    return GateDecision(best_id is not None and best >= threshold, best, threshold, best_id)


@dataclass(frozen=True)
class ParallelizabilityVerdict:
    loop_id: int
    eligible: bool
    reason: str


def _pair_disjoint(write: VarAccess, other: VarAccess, counter: str) -> bool:
    """True when two accesses of one array provably never touch the same
    element in two different iterations of the candidate loop."""
    wi, oi = write.indices, other.indices
    if wi is None or oi is None or len(wi) != len(oi):
        return False
    for wd, od in zip(wi, oi):
        if wd is None or od is None:
            continue
        wvar, woff = wd
        ovar, ooff = od
        if wvar is None and ovar is None and woff != ooff:
            return True   # distinct fixed elements
        if wvar == ovar == counter and woff == ooff:
            return True   # distinct iterations index distinct elements
    return False


def _builtin_verdict(loop: LoopNode, inside: list[VarAccess],
                     read_functions: set[tuple[str, str]]) -> ParallelizabilityVerdict:
    """Verdict of one loop from the accesses that lie inside it and the
    (function, variable) pairs read anywhere."""
    if loop.kind != "for" or not loop.canonical:
        return ParallelizabilityVerdict(loop.loop_id, False, NOT_CANONICAL_FOR)
    if loop.early_exit:
        return ParallelizabilityVerdict(loop.loop_id, False, EARLY_EXIT)

    counter = loop.counter

    by_var: dict[str, list[VarAccess]] = {}
    for a in inside:
        by_var.setdefault(a.var, []).append(a)

    # arrays: any write/read or write/write pair that may alias across
    # iterations (including a write against itself) is a carried dependence
    for var in sorted(by_var):
        accs = by_var[var]
        if not any(a.is_array for a in accs):
            continue
        writes = [a for a in accs if a.kind == SET]
        reads = [a for a in accs if a.kind == REF]
        for w in writes:
            for other in writes + reads:
                if not _pair_disjoint(w, other, counter):
                    return ParallelizabilityVerdict(
                        loop.loop_id, False, LOOP_CARRIED_DEPENDENCE)

    # scalars written in the body: a read inside the loop means a value
    # crosses iterations; with no such read, a read elsewhere in the function
    # sees whichever iteration wrote last.  Induction variables, which only
    # loop headers write, are exempt (a header access inside the loop
    # belongs to the loop or one nested in it).
    live_out = False
    for var in sorted(by_var):
        accs = by_var[var]
        if any(a.is_array for a in accs):
            continue
        if all(a.kind != SET or a.header_of is not None for a in accs):
            continue
        if any(a.kind == REF for a in accs):
            return ParallelizabilityVerdict(loop.loop_id, False, SCALAR_REDUCTION)
        live_out = live_out or (loop.function, var) in read_functions
    if live_out:
        return ParallelizabilityVerdict(loop.loop_id, False, LIVE_OUT_SCALAR)

    return ParallelizabilityVerdict(loop.loop_id, True, ELIGIBLE)


class ExternalOracle:
    """Compile-probe oracle: insert a single kernels directive before the
    candidate loop and run the configured compiler; exit 0 means eligible,
    and a probe that runs past DEFAULT_TIMEOUT_SECONDS means not eligible.

    compile_cmd is a shell template with a {src} placeholder.
    """

    def __init__(self, program: Program, tree: LoopTree, compile_cmd: str,
                 workdir: str | Path | None = None):
        self.program = program
        self.tree = tree
        self.compile_cmd = compile_cmd
        self.workdir = Path(workdir) if workdir else None

    def trial_source(self, loop_id: int) -> str:
        from .emitter import kernels_only_annotation
        return kernels_only_annotation(self.program, self.tree, loop_id)

    def verdict(self, loop: LoopNode) -> ParallelizabilityVerdict:
        source = self.trial_source(loop.loop_id)
        with tempfile.NamedTemporaryFile(
                "w", suffix=".c", prefix=f"trial_loop{loop.loop_id}_",
                dir=self.workdir, delete=False) as handle:
            handle.write(source)
            src_path = handle.name
        cmd = self.compile_cmd.format(src=src_path)
        try:
            status, _ = run_shell(cmd, DEFAULT_TIMEOUT_SECONDS, self.workdir)
        except OSError as exc:
            raise ExternalOracleError(f"cannot spawn {cmd!r}: {exc}") from exc
        finally:
            Path(src_path).unlink(missing_ok=True)
        if status is None:
            return ParallelizabilityVerdict(loop.loop_id, False, EXTERNAL_COMPILE_TIMEOUT)
        if status == 0:
            return ParallelizabilityVerdict(loop.loop_id, True, ELIGIBLE)
        return ParallelizabilityVerdict(loop.loop_id, False, EXTERNAL_COMPILE_ERROR)


def load_external_oracle(path: str | Path, program: Program,
                         tree: LoopTree) -> ExternalOracle:
    """Build the compile-probe oracle from {"compile_cmd": ..., "workdir": ...};
    the workdir is optional and must be an existing directory."""
    try:
        data = json.loads(Path(path).read_text())
        compile_cmd = data["compile_cmd"]
        if not isinstance(compile_cmd, str) or not compile_cmd:
            raise ValueError("compile_cmd must be a non-empty string")
        workdir = data.get("workdir")
        if workdir is not None and not (isinstance(workdir, str) and os.path.isdir(workdir)):
            raise ValueError(f"workdir {workdir!r} is not an existing directory")
        return ExternalOracle(program, tree, compile_cmd, workdir)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ExternalOracleError(f"cannot load oracle config {path}: {exc}") from exc


def check_all_parallelizable(tree: LoopTree, accesses: list[VarAccess],
                             oracle: ExternalOracle | None = None,
                             ) -> list[ParallelizabilityVerdict]:
    """Eligibility of every loop, via the built-in rules or an external
    probe, ordered by loop_id."""
    if oracle is not None:
        return [oracle.verdict(node) for node in tree.nodes]
    inside: list[list[VarAccess]] = [[] for _ in tree.nodes]
    read_functions: set[tuple[str, str]] = set()
    for a in accesses:
        if a.kind == REF:
            read_functions.add((a.function, a.var))
        for loop_id in a.loop_path:
            inside[loop_id].append(a)
    return [_builtin_verdict(node, inside[node.loop_id], read_functions)
            for node in tree.nodes]


@dataclass(frozen=True)
class GenomeMap:
    """Gene position -> loop id, ascending; gene length is len(map)."""
    loop_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.loop_ids)


def build_genome_map(verdicts: list[ParallelizabilityVerdict]) -> GenomeMap:
    eligible = tuple(sorted(v.loop_id for v in verdicts if v.eligible))
    if not eligible:
        raise EmptyGenome("no offloadable loops")
    return GenomeMap(eligible)
