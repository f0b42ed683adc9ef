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
of the two.  A construct names each variable once: directives of sibling
regions hoisted to one loop merge per variable into the union of their
directions (copyin and copyout make copy), kept by the lowest region.
No variable is named at a loop and again at a loop nested in it, since a
clause for a variable already on the device transfers nothing: a transfer
of v stays at its own region, its unhoisted and always sound place, when
its hoist target contains the region of a transfer of v with another target.

A genome is read once, by `regions`, into a region map: each loop id maps
to the selected loop it lies in (itself included), or None on the CPU
side.  It is the one nesting check too.  A region's accesses are its
loop's run of the access list (loops.py); the planner files only the others,
the CPU side, each under its function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import GenomeMap
from .errors import InvalidGenome
from .loops import DEFINE, REF, SET, LoopNode, Program, VarAccess

COPY = "copy"
COPYIN = "copyin"
COPYOUT = "copyout"
CLAUSE_ORDER = (COPY, COPYIN, COPYOUT)

_COPYIN_BLOCKERS = (SET, DEFINE)
_COPYOUT_BLOCKERS = (REF, SET, DEFINE)


# The plan-transfers output is dataclasses.asdict of a TransferPlan: field
# names and order are its keys.

@dataclass(frozen=True)
class DataDirective:
    target_loop: int            # directive text goes immediately before this loop
    clause: str                 # 'copy' | 'copyin' | 'copyout'
    vars: tuple[str, ...]       # sorted, duplicate-free
    origin_region: int          # the selected loop that needed the transfer


@dataclass(frozen=True)
class TransferPlan:
    directives: tuple[DataDirective, ...]


def regions(genome_bits: str, genome_map: GenomeMap, tree: list[LoopNode]) -> list[int | None]:
    """Entry k is the selected loop that loop k lies in, itself included, or
    None.  A wrong length, a character not 0/1 or a selected loop inside
    another raises InvalidGenome."""
    if len(genome_bits) != len(genome_map):
        raise InvalidGenome(f"genome length {len(genome_bits)} != gene length {len(genome_map)}")
    selected = [False] * len(tree)
    for loop_id, bit in zip(genome_map.loop_ids, genome_bits):
        if bit not in "01":
            raise InvalidGenome(f"genome {genome_bits!r} must be a 0/1 string")
        selected[loop_id] = bit == "1"
    # the tree is in pre-order, so each parent is mapped before its children
    region_of: list[int | None] = []
    for node in tree:
        region = region_of[node.ancestors[0]] if node.ancestors else None
        if selected[node.loop_id]:
            if region is not None:
                raise InvalidGenome(
                    f"genome {genome_bits} selects loop {node.loop_id} inside loop {region}")
            region = node.loop_id
        region_of.append(region)
    return region_of


def check_genome_valid(genome_bits: str, genome_map: GenomeMap, tree: list[LoopNode]) -> bool:
    """Whether `regions` accepts the genome: no two selected loops nest."""
    try:
        regions(genome_bits, genome_map, tree)
    except InvalidGenome:
        return False
    return True


def _hoist_target(region: LoopNode, cpu_accesses: list[VarAccess],
                  blockers: tuple[str, ...]) -> int:
    target = region.loop_id
    for ancestor in region.ancestors:
        if any(ancestor in a.loop_path and a.kind in blockers for a in cpu_accesses):
            break
        target = ancestor
    return target


def plan_transfers(program: Program, tree: list[LoopNode], accesses: list[VarAccess],
                   genome_bits: str, genome_map: GenomeMap) -> TransferPlan:
    """Apply the transfer rules to every selected region of a valid genome.
    The accesses are the parse's list, which each loop's run indexes.

    The result is canonically ordered (target loop, then clause, then first
    variable), so identical inputs always produce identical plans.
    """
    region_of = regions(genome_bits, genome_map, tree)

    # the accesses outside every region, filed under their function
    cpu_by_function: dict[str, list[VarAccess]] = {}
    for a in accesses:
        if not a.loop_path or region_of[a.loop_path[-1]] is None:
            cpu_by_function.setdefault(a.function, []).append(a)

    # (region, var, clause, hoist target) per transfer, regions ascending
    needs: list[tuple[int, str, str, int]] = []
    for node, region in zip(tree, region_of):
        if region != node.loop_id:
            continue
        inside = accesses[node.access_start:node.access_stop]
        cpu_side = cpu_by_function.get(node.function, [])

        # a set in a loop header inside the region writes a counter of the
        # region's own loops, which lives entirely on the GPU
        counters = {a.var for a in inside if a.kind == SET and a.header_of is not None}

        for var in sorted({a.var for a in inside} - counters):
            var_inside = [a for a in inside if a.var == var]
            var_cpu = [a for a in cpu_side if a.var == var]
            need_in = (any(a.kind == REF for a in var_inside)
                       and any(a.kind in _COPYIN_BLOCKERS for a in var_cpu))
            # copyout's blockers include copyin's, so its hoist target is
            # never above copyin's: a copy for both directions lands there
            if var_cpu and any(a.kind == SET for a in var_inside):
                clause, blockers = (COPY if need_in else COPYOUT), _COPYOUT_BLOCKERS
            elif need_in:
                clause, blockers = COPYIN, _COPYIN_BLOCKERS
            else:
                continue
            needs.append((region, var, clause, _hoist_target(node, var_cpu, blockers)))

    # a (loop, var) is lowered when it is the hoist target of one transfer of
    # var and contains the region of another with another target
    hoisted = {(target, var) for region, var, _, target in needs if target != region}
    crossed = {(outer, var) for region, var, _, target in needs
               for outer in tree[region].ancestors if outer != target}
    lowered = hoisted & crossed

    # (place, var) -> (origin, clause); the first need merged is the lowest
    merged: dict[tuple[int, str], tuple[int, str]] = {}
    for region, var, clause, target in needs:
        place = region if (target, var) in lowered else target
        origin, had = merged.setdefault((place, var), (region, clause))
        merged[place, var] = (origin, clause if had == clause else COPY)

    # (origin, clause, target) -> vars
    grouped: dict[tuple[int, str, int], set[str]] = {}
    for (target, var), (origin, clause) in merged.items():
        grouped.setdefault((origin, clause, target), set()).add(var)
    directives = [
        DataDirective(target, clause, tuple(sorted(vars_)), origin)
        for (origin, clause, target), vars_ in grouped.items()
    ]
    directives.sort(key=lambda d: (d.target_loop, d.clause, d.vars[0]))
    return TransferPlan(tuple(directives))
