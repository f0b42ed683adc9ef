"""The loop tree and the variable accesses of a program.

The loop tree is a list with one LoopNode per for/while/do-while statement,
`tree[k]` for loop k, numbered in textual pre-order so genome positions stay
stable across runs.  The node is the statement in its enclosing body, with
its header and body; it also records its ancestors, nearest first, so that
its parent is `ancestors[0]`, and its run of accesses.
Each access classifies one identifier occurrence as define/set/ref together
with its enclosing-loop chain; those records drive both the
parallelizability checks and the data-transfer planner.  The parser records
both as it reads the source (parser.py says in what order), so
`build_loop_tree` and `extract_accesses` only hand them out, and the two
helpers at the end read AST nodes for the parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .nodes import Assign, BinaryExpr, NumLit, Program, SourcePos, VarExpr

DEFINE = "define"
SET = "set"
REF = "ref"


@dataclass
class LoopNode:
    loop_id: int
    kind: str                   # 'for' | 'while' | 'dowhile'
    ancestors: tuple[int, ...]  # the enclosing loops, nearest first: [0] is the parent
    function: str
    header_pos: SourcePos
    counter: str | None         # loop variable; set only for a canonical loop
    early_exit: bool = False    # its body holds a return
    # the statement; only a for loop has an init and a step, or may lack a cond
    init: Assign | None = None
    cond: object | None = None
    step: Assign | None = None
    body: list = field(default_factory=list)
    # left out of the repr and of equality: the slice of the access list that
    # holds every access inside the loop
    access_start: int = field(default=0, repr=False, compare=False)
    access_stop: int = field(default=0, repr=False, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class VarAccess:
    """One identifier occurrence.  Not frozen, so that construction stays
    cheap; nothing assigns to a field after it is built."""

    var: str
    is_array: bool
    kind: str                       # 'define' | 'set' | 'ref'
    pos: SourcePos
    loop_path: tuple[int, ...]      # outermost..innermost enclosing loop ids
    function: str
    header_of: int | None = None    # loop whose header contains this access
    indices: tuple | None = None    # per-dimension (var|None, offset), or None
    # left out of the repr and of equality: the rank of the array parameter
    # that the name resolves to, 0 for any other name
    param_rank: int = field(default=0, repr=False, compare=False)


def build_loop_tree(program: Program) -> list[LoopNode]:
    """The program's loops in pre-order, as the parse recorded them."""
    return program.loop_nodes


def extract_accesses(program: Program) -> list[VarAccess]:
    """Every identifier occurrence classified as define/set/ref, in the
    order the parse recorded them (parser.py's docstring).

    Compound assignments produce both a set and a ref at the same position.
    Whole arrays passed to calls are conservatively marked ref and set.
    """
    return program.accesses


# -- what the parser reads off AST nodes --

def _canonical_counter(loop: LoopNode) -> str | None:
    """The counter of a canonical counted loop, read off its header, else None.

    Canonical: a for loop with `i = e`; `i < e` or `i <= e`; `i += c` with
    c a positive integer literal, which covers `i++` since the parser reads
    it as `i += 1`.  A while or do-while loop has no init, so it is never
    canonical.
    """
    init, cond, step = loop.init, loop.cond, loop.step
    if not (isinstance(init, Assign) and init.op == "=" and isinstance(init.target, VarExpr)):
        return None
    name = init.target.name
    if not (isinstance(cond, BinaryExpr) and cond.op in ("<", "<=")
            and isinstance(cond.left, VarExpr) and cond.left.name == name):
        return None
    if (isinstance(step, Assign) and step.op == "+=" and isinstance(step.target, VarExpr)
            and step.target.name == name and isinstance(step.value, NumLit)
            and not step.value.is_float and step.value.value > 0):
        return name
    return None


def _normalize_index(expr) -> tuple | None:
    """Reduce an index expression to (var, offset) where possible.

    `i` -> (i, 0); `i + 2` / `2 + i` -> (i, 2); `i - 1` -> (i, -1);
    integer literal c -> (None, c); anything else -> None (unanalyzable).
    """
    if isinstance(expr, VarExpr):
        return (expr.name, 0)
    if isinstance(expr, NumLit) and not expr.is_float:
        return (None, int(expr.value))
    if isinstance(expr, BinaryExpr) and expr.op in ("+", "-"):
        left, right = expr.left, expr.right
        if isinstance(left, VarExpr) and isinstance(right, NumLit) and not right.is_float:
            off = int(right.value)
            return (left.name, off if expr.op == "+" else -off)
        if (expr.op == "+" and isinstance(left, NumLit) and not left.is_float
                and isinstance(right, VarExpr)):
            return (right.name, int(left.value))
    return None
