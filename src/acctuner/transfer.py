"""Data-transfer planning for a given offload genome.

For every selected loop (a GPU region) the planner decides which variables
must move host->device (copyin), device->host (copyout) or both (copy),
then hoists each directive to the topmost enclosing loop that contains no
conflicting CPU-side access, so the transfer runs as few times as possible.

Necessity rules, per region G and variable v:
  copyin  - v is set or defined by CPU-side code and read inside G.
  copyout - v is set inside G and the CPU side touches v at all; plain
            CPU-side sets count because they may sit behind an `if` and
            not execute on a given run.
Hoisting walks the ancestor chain of G upward and stops below the first
loop whose body contains a blocking CPU-side access of v (set/define for
copyin; ref/set/define for copyout).  Accesses inside any selected region
never block.  When both directions fire for one (v, G) the two directives
merge into a single copy placed at the copyout target, which is the inner
of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import GenomeMap, Profile
from .errors import InvalidGenome
from .loops import DEFINE, REF, SET, LoopTree, VarAccess
from .nodes import Program

COPY = "copy"
COPYIN = "copyin"
COPYOUT = "copyout"
CLAUSE_ORDER = (COPY, COPYIN, COPYOUT)

_COPYIN_BLOCKERS = (SET, DEFINE)
_COPYOUT_BLOCKERS = (REF, SET, DEFINE)


@dataclass(frozen=True)
class DataDirective:
    target_loop: int            # directive text goes immediately before this loop
    clause: str                 # 'copy' | 'copyin' | 'copyout'
    vars: tuple[str, ...]       # sorted, duplicate-free
    origin_region: int          # the selected loop that needed the transfer


@dataclass(frozen=True)
class TransferPlan:
    directives: tuple[DataDirective, ...]


def selected_loops(genome_bits: str, genome_map: GenomeMap) -> set[int]:
    if len(genome_bits) != len(genome_map):
        raise InvalidGenome(
            f"genome length {len(genome_bits)} != gene length {len(genome_map)}")
    if any(b not in "01" for b in genome_bits):
        raise InvalidGenome(f"genome {genome_bits!r} must be a 0/1 string")
    return {genome_map.loop_ids[k] for k, bit in enumerate(genome_bits) if bit == "1"}


def _nested(chosen: set[int], tree: LoopTree) -> bool:
    return any(chosen.intersection(tree.ancestors(loop_id)) for loop_id in chosen)


def check_genome_valid(genome_bits: str, genome_map: GenomeMap, tree: LoopTree) -> bool:
    """A genome is invalid when two selected loops nest inside each other."""
    return not _nested(selected_loops(genome_bits, genome_map), tree)


def _hoist_target(tree: LoopTree, region: int, cpu_accesses: list[VarAccess],
                  blockers: tuple[str, ...]) -> int:
    target = region
    for ancestor in tree.ancestors(region):
        blocked = any(ancestor in a.loop_path and a.kind in blockers
                      for a in cpu_accesses)
        if blocked:
            break
        target = ancestor
    return target


def plan_transfers(program: Program, tree: LoopTree, accesses: list[VarAccess],
                   genome_bits: str, genome_map: GenomeMap) -> TransferPlan:
    """Apply the transfer rules to every selected region of a valid genome.

    The result is canonically ordered (target loop, then clause, then first
    variable), so identical inputs always produce identical plans.
    """
    chosen = selected_loops(genome_bits, genome_map)
    if _nested(chosen, tree):
        raise InvalidGenome(
            f"nested selected loops: {sorted(chosen)} contains an ancestor pair")

    # (origin, clause, target) -> set of vars
    grouped: dict[tuple[int, str, int], set[str]] = {}

    # per-function access lists and the genome's CPU side, computed once
    by_function: dict[str, list[VarAccess]] = {}
    for a in accesses:
        by_function.setdefault(a.function, []).append(a)
    cpu_by_function: dict[str, list[VarAccess]] = {
        fn: [a for a in fn_accesses if not chosen.intersection(a.loop_path)]
        for fn, fn_accesses in by_function.items()
    }

    for region in sorted(chosen):
        function = tree.node(region).function
        inside = [a for a in by_function.get(function, []) if region in a.loop_path]
        cpu_side = cpu_by_function.get(function, [])

        # a set in a loop header inside the region writes a counter of the
        # region's own loops, which lives entirely on the GPU
        counters = {a.var for a in inside if a.kind == SET and a.header_of is not None}

        for var in sorted({a.var for a in inside} - counters):
            var_inside = [a for a in inside if a.var == var]
            var_cpu = [a for a in cpu_side if a.var == var]
            need_in = (any(a.kind == REF for a in var_inside)
                       and any(a.kind in (SET, DEFINE) for a in var_cpu))
            # copyout's blockers include copyin's, so its hoist target is
            # never above copyin's: a copy for both directions lands there
            if var_cpu and any(a.kind == SET for a in var_inside):
                clause, blockers = (COPY if need_in else COPYOUT), _COPYOUT_BLOCKERS
            elif need_in:
                clause, blockers = COPYIN, _COPYIN_BLOCKERS
            else:
                continue
            target = _hoist_target(tree, region, var_cpu, blockers)
            grouped.setdefault((region, clause, target), set()).add(var)

    directives = [
        DataDirective(target, clause, tuple(sorted(vars_)), origin)
        for (origin, clause, target), vars_ in grouped.items()
    ]
    directives.sort(key=lambda d: (d.target_loop, d.clause, d.vars[0]))
    return TransferPlan(tuple(directives))


def directive_exec_counts(plan: TransferPlan, tree: LoopTree,
                          profile: Profile) -> dict[DataDirective, int]:
    """How many times each directive's transfer runs: once per arrival at
    its target loop's header."""
    return {d: profile.entry_count(d.target_loop) for d in plan.directives}


def unhoisted(plan: TransferPlan) -> TransferPlan:
    """The same plan with every directive forced back to its region loop
    (what the emitted code would do without hoisting)."""
    directives = tuple(
        DataDirective(d.origin_region, d.clause, d.vars, d.origin_region)
        for d in plan.directives
    )
    return TransferPlan(directives)


def plan_to_dict(plan: TransferPlan) -> dict:
    return {
        "directives": [
            {
                "target_loop": d.target_loop,
                "clause": d.clause,
                "vars": list(d.vars),
                "origin_region": d.origin_region,
            }
            for d in plan.directives
        ]
    }
