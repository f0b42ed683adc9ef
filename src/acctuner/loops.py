"""The loop tree and the variable accesses of a program.

The loop tree is a list with one LoopNode per for/while/do-while statement,
`tree[k]` for loop k, numbered in textual pre-order so genome positions stay
stable across runs.  The node is the statement in its enclosing body, with
its header and body; it also records its ancestors, nearest first, so that
its parent is `ancestors[0]`, and its run of accesses.
Each access classifies one identifier occurrence as define/set/ref together
with its enclosing-loop chain; those records drive both the
parallelizability checks and the data-transfer planner.  The parser records
both as it reads the source (parser.py says in what order, and how it
finds a loop's counter and reduces an index), so `build_loop_tree` and
`extract_accesses` only hand them out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .nodes import Assign, Program, SourcePos

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
