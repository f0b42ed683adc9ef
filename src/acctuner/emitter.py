"""Annotated-source emission.

Directive lines go before their target loop's line, with that line's
indentation; lines end only at '\\n', as the tokenizer counts them.  A loop
that shares its line with earlier code first gets a line of its own: that
code keeps its bytes and ends the line, then come the directive lines, then
the indentation and the loop with the rest of the line.  Each line break
added takes the line end of the loop's line, '\\r\\n' or '\\n', or of the
line before when the loop's line is the last and has none ('\\n' for a
one-line source), so a CRLF source stays CRLF.  No other byte changes, so
deleting the directive lines recovers the input whenever every annotated
loop starts its line.  At one loop: the data directive (clauses in copy,
copyin, copyout order, variables sorted, no internal spaces), then
`#pragma acc kernels` when the loop itself is selected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import GenomeMap
from .loops import LoopNode, Program
from .transfer import CLAUSE_ORDER, TransferPlan, regions

KERNELS_LINE = "#pragma acc kernels"


@dataclass(frozen=True)
class AnnotatedSource:
    text: str


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


def _render(program: Program, tree: list[LoopNode], selected: set[int], directives) -> str:
    by_target: dict[int, list] = {}
    for d in directives:
        by_target.setdefault(d.target_loop, []).append(d)

    # 0-based line -> 0-based column of a loop keyword -> pragma lines before it
    insertions: dict[int, dict[int, list[str]]] = {}
    for loop_id in set(by_target) | selected:
        pos = tree[loop_id].header_pos
        data = _data_line(by_target.get(loop_id, ()))
        pragmas = [data] if data is not None else []
        if loop_id in selected:
            pragmas.append(KERNELS_LINE)
        insertions.setdefault(pos.line - 1, {})[pos.col - 1] = pragmas

    lines = program.source_text.split("\n")
    last = len(lines) - 1
    for index, at_col in insertions.items():
        line = lines[index]
        # the line's own end; the last line has none and takes the one before
        ending = line if index < last else lines[index - 1] if index else ""
        indent = _indent_of(line)
        out: list[str] = []
        start, lead = 0, ""
        for col in sorted(at_col):
            if col > len(indent):       # code before the loop ends its line here
                out.append(lead + line[start:col])
                start, lead = col, indent
            out.extend(indent + pragma for pragma in at_col[col])
        out.append(lead + line[start:])
        lines[index] = ("\r\n" if ending.endswith("\r") else "\n").join(out)
    return "\n".join(lines)


def emit_annotated(program: Program, tree: list[LoopNode], genome_bits: str,
                   genome_map: GenomeMap, plan: TransferPlan) -> AnnotatedSource:
    """Render the source for a valid genome and its transfer plan.

    An all-zero genome with an empty plan reproduces the input byte for
    byte.  Emission is pure: the same inputs always give the same bytes.
    """
    region_of = regions(genome_bits, genome_map, tree)
    selected = {loop_id for loop_id, region in enumerate(region_of) if region == loop_id}
    return AnnotatedSource(_render(program, tree, selected, plan.directives))


def kernels_only_annotation(program: Program, tree: list[LoopNode], loop_id: int) -> str:
    """A probe source with one kernels line before the given loop (used by
    the external compile oracle)."""
    return _render(program, tree, {loop_id}, ())
