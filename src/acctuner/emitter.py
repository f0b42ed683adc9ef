"""Annotated-source emission.

Directives are inserted as whole lines immediately before their target
loop's first line, reusing that line's indentation; every other byte of the
source passes through untouched, so deleting exactly the inserted lines
recovers the input.  Line order at one loop: the data directive (clauses in
copy, copyin, copyout order, variables sorted, no internal spaces), then
`#pragma acc kernels` when the loop itself is selected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import GenomeMap
from .errors import PlanMismatch
from .loops import LoopTree
from .nodes import Program
from .transfer import CLAUSE_ORDER, TransferPlan, regions

KERNELS_LINE = "#pragma acc kernels"


@dataclass(frozen=True)
class InsertedLine:
    line_no: int    # 1-based line number in the annotated output
    content: str    # full line text without the trailing newline


@dataclass(frozen=True)
class AnnotatedSource:
    text: str
    inserted_lines: tuple[InsertedLine, ...]


def _indent_of(line: str) -> str:
    stripped = line.lstrip(" \t")
    return line[: len(line) - len(stripped)]


def _data_line(directives) -> str | None:
    by_clause: dict[str, set[str]] = {}
    for d in directives:
        by_clause.setdefault(d.clause, set()).update(d.vars)
    if not by_clause:
        return None
    clauses = [f"{clause}({','.join(sorted(by_clause[clause]))})"
               for clause in CLAUSE_ORDER if clause in by_clause]
    return "#pragma acc data " + " ".join(clauses)


def _render(program: Program, tree: LoopTree, selected: set[int],
            directives) -> AnnotatedSource:
    known = {node.loop_id for node in tree.nodes}
    for d in directives:
        if d.target_loop not in known:
            raise PlanMismatch(f"directive targets unknown loop {d.target_loop}")

    by_target: dict[int, list] = {}
    for d in directives:
        by_target.setdefault(d.target_loop, []).append(d)

    # original 1-based line -> pragma lines to insert before it
    insertions: dict[int, list[str]] = {}
    for loop_id in sorted(set(by_target) | selected):
        node = tree.node(loop_id)
        line_no = node.header_pos.line
        lines = insertions.setdefault(line_no, [])
        data = _data_line(by_target.get(loop_id, ()))
        if data is not None:
            lines.append(data)
        if loop_id in selected:
            lines.append(KERNELS_LINE)

    source_lines = program.source_text.splitlines(keepends=True)
    out: list[str] = []
    inserted: list[InsertedLine] = []
    for original_no, line in enumerate(source_lines, start=1):
        for pragma in insertions.get(original_no, ()):
            content = _indent_of(line) + pragma
            out.append(content + "\n")
            inserted.append(InsertedLine(len(out), content))
        out.append(line)
    return AnnotatedSource("".join(out), tuple(inserted))


def emit_annotated(program: Program, tree: LoopTree, genome_bits: str,
                   genome_map: GenomeMap, plan: TransferPlan) -> AnnotatedSource:
    """Render the source for a valid genome and its transfer plan.

    An all-zero genome with an empty plan reproduces the input byte for
    byte.  Emission is pure: the same inputs always give the same bytes.
    """
    region_of = regions(genome_bits, genome_map, tree)
    selected = {loop_id for loop_id, region in enumerate(region_of) if region == loop_id}
    return _render(program, tree, selected, plan.directives)


def kernels_only_annotation(program: Program, tree: LoopTree, loop_id: int) -> str:
    """A probe source that differs from the original by exactly one kernels
    line before the given loop (used by the external compile oracle)."""
    return _render(program, tree, {loop_id}, ()).text


def strip_annotations(annotated: AnnotatedSource) -> str:
    """Delete exactly the inserted lines; the result is the original text."""
    skip = {ins.line_no for ins in annotated.inserted_lines}
    lines = annotated.text.splitlines(keepends=True)
    return "".join(line for no, line in enumerate(lines, start=1) if no not in skip)
