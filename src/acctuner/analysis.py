"""Profiling gate, per-loop parallelizability checks, and the genome map.

The built-in parallelizability oracle is deliberately conservative: a loop
is eligible only when it is a canonical counted for-loop without a return,
no cross-iteration conflict can be constructed from its array index
patterns (a function's array parameters of one rank may be one array),
scalar write/read pairs or a nested header that resets its counter, and no
other scalar written inside it is read outside it.  A false "no" costs
performance; a false "yes" would produce wrong code.  The compile probe
(pipeline.probe_parallelizable) asks a real compiler instead.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass
from pathlib import Path

from .errors import AutotunerError, ProfileError, _quote, _read_input
from .loops import REF, SET, LoopNode, VarAccess

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


Profile = dict[int, ProfileEntry]    # by loop id


def load_profile(path: str | Path, tree: list[LoopNode]) -> Profile:
    """Load a loop-count profile:
    {"loops":[{"id":0,"entry_count":1,"total_iterations":10000000}, ...]}

    The records must name each loop id of the tree and no other; ids and
    counts must be integers from 0 to 2**63 - 1.
    """
    data = _read_input(path, f"profile {path}", ProfileError)
    if not isinstance(data, dict) or not isinstance(data.get("loops"), list):
        raise ProfileError(f"profile {path}: expected a top-level 'loops' list")

    entries: Profile = {}
    for rec in data["loops"]:
        if not isinstance(rec, dict):
            raise ProfileError(f"profile {path}: malformed record {_quote(rec)}")
        try:
            loop_id = rec["id"]
            entry_count = rec["entry_count"]
            total = rec["total_iterations"]
        except KeyError as exc:
            raise ProfileError(f"profile {path}: record missing key {exc}") from exc
        for name, value in (("id", loop_id), ("entry_count", entry_count),
                            ("total_iterations", total)):
            if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 2**63:
                raise ProfileError(
                    f"profile {path}: {name}={_quote(value)} must be an integer in [0, 2**63 - 1]")
        if loop_id in entries:
            raise ProfileError(f"profile {path}: duplicate record for loop {loop_id}")
        entries[loop_id] = ProfileEntry(entry_count, total)
    check_loop_ids(entries, tree, f"profile {path}", ProfileError)
    return entries


def check_loop_ids(ids: Collection[int], tree: list[LoopNode], what: str,
                   error: type[AutotunerError]) -> None:
    """Raise error, its message led by what, unless ids name each loop of the tree and no other."""
    missing = [n.loop_id for n in tree if n.loop_id not in ids]
    if missing:
        raise error(f"{what}: missing loop ids {missing}")
    unknown = sorted(set(ids).difference(n.loop_id for n in tree))
    if unknown:
        raise error(f"{what}: loop ids {unknown} are not in the program")


@dataclass(frozen=True)
class GateDecision:
    passed: bool
    max_total_iterations: int
    threshold: int
    loop_id: int | None      # qualifying loop when passed, busiest loop otherwise


def gate(tree: list[LoopNode], profile: Profile,
         threshold: int = DEFAULT_GATE_THRESHOLD) -> GateDecision:
    """Pass iff some loop's total iteration count reaches the threshold
    (inclusive).  Programs with no loops never pass."""
    best_id = None
    best = 0
    for node in tree:
        total = profile[node.loop_id].total_iterations
        if best_id is None or total > best:
            best_id = node.loop_id
            best = total
    return GateDecision(best_id is not None and best >= threshold, best, threshold, best_id)


@dataclass(frozen=True)
class ParallelizabilityVerdict:
    """One loop's verdict; a report's `verdicts` are dataclasses.asdict of these."""
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


def _builtin_reason(loop: LoopNode, inside: list[VarAccess],
                    read_counts: Counter[tuple[str, str]]) -> str:
    """The reason one loop is eligible (ELIGIBLE) or not, from the accesses
    inside it and the number of reads of each (function, variable) pair.
    The array parameters of one rank count as one array."""
    counter = loop.counter
    if counter is None:
        return NOT_CANONICAL_FOR
    if loop.early_exit:
        return EARLY_EXIT

    # array parameters of one rank may all name one array, as in f(a, a), so
    # their accesses are filed as one, under a name that no variable has
    by_var: dict[str, list[VarAccess]] = {}
    for a in inside:
        by_var.setdefault("[]" * a.param_rank or a.var, []).append(a)

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
                    return LOOP_CARRIED_DEPENDENCE

    # scalars written inside: a read of a body-written scalar inside the loop
    # means a value crosses iterations, and a read outside the loop sees
    # whichever iteration wrote last.  Induction variables, which only loop
    # headers write (a header access inside the loop belongs to the loop or
    # one nested in it), are exempt from the first rule; a nested header that
    # writes the candidate's own counter changes its iteration space.
    live_out = False
    for var in sorted(by_var):
        accs = by_var[var]
        if any(a.is_array for a in accs):
            continue
        writes = [a for a in accs if a.kind == SET]
        if not writes:
            continue
        n_reads = sum(a.kind == REF for a in accs)
        if all(a.header_of is not None for a in writes):
            if var == counter:
                if any(a.header_of != loop.loop_id for a in writes):
                    return LOOP_CARRIED_DEPENDENCE
                continue
        elif n_reads:
            return SCALAR_REDUCTION
        live_out = live_out or read_counts[loop.function, var] > n_reads
    return LIVE_OUT_SCALAR if live_out else ELIGIBLE


def check_all_parallelizable(tree: list[LoopNode],
                             accesses: list[VarAccess]) -> list[ParallelizabilityVerdict]:
    """Eligibility of every loop by the built-in rules, ordered by loop_id.
    The accesses are the parse's list, which each loop's run indexes."""
    read_counts = Counter((a.function, a.var) for a in accesses if a.kind == REF)
    verdicts = []
    for node in tree:
        reason = _builtin_reason(node, accesses[node.access_start:node.access_stop], read_counts)
        verdicts.append(ParallelizabilityVerdict(node.loop_id, reason == ELIGIBLE, reason))
    return verdicts


@dataclass(frozen=True)
class GenomeMap:
    """Gene position -> loop id, ascending; gene length is len(map)."""
    loop_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.loop_ids)


def build_genome_map(verdicts: list[ParallelizabilityVerdict]) -> GenomeMap:
    """The eligible loops' ids, ascending; the map is empty (and false) when
    no loop is eligible, and each caller decides what that ends."""
    return GenomeMap(tuple(sorted(v.loop_id for v in verdicts if v.eligible)))
