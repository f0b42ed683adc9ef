"""The program model: the AST of the C-like subset language, its loop tree
and its variable accesses.  The parser records all three in one pass over
the tokens (parser.py says in what order, and how it finds a loop's counter
and reduces an index); `build_loop_tree` and `extract_accesses` only hand
the records out, and no later pass walks the AST again.

The AST has no wrapper nodes: a block, and a loop, if or function body, is
a plain list of statements, in which a nested braced block is a list of its
own; a call statement is its CallExpr; `i++` and `i--` are the Assigns
`i += 1` and `i -= 1`.  In an expression, a variable is its name, a str,
and a numeric literal its value: a float if its token holds '.', 'e' or
'E', else the int that C reads.  Of the AST only a loop statement keeps a
position, its keyword's; the parser gives each access its token's.

The loop tree is a list with one LoopNode per for/while/do-while statement,
`tree[k]` for loop k, numbered in textual pre-order so genome positions stay
stable across runs.  The node is the statement, with its header and body;
it also records its ancestors, nearest first, so that its parent is
`ancestors[0]`, and its run: the slice of the access list that holds every
access inside the loop.  Each access classifies one identifier occurrence
as define/set/ref with its enclosing-loop chain; the parallelizability
checks and the data-transfer planner both read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

DEFINE = "define"
SET = "set"
REF = "ref"


class SourcePos(NamedTuple):
    """A light record: the parser builds one for every token."""
    line: int      # 1-based
    col: int       # 1-based


# ---- expressions ----
# Besides a name (str) and a literal (int or float), an expression is one of
# these.  Slotted and not frozen, so that the parser builds them cheaply;
# like the statements below, nothing assigns to their fields after the parse.

@dataclass(slots=True, unsafe_hash=True)
class IndexExpr:
    name: str
    indices: tuple          # 1 or 2 index expressions


@dataclass(slots=True, unsafe_hash=True)
class UnaryExpr:
    op: str                 # '!' or '-'
    operand: object


@dataclass(slots=True, unsafe_hash=True)
class BinaryExpr:
    op: str
    left: object
    right: object


@dataclass(slots=True, unsafe_hash=True)
class CallExpr:
    name: str
    args: tuple


# ---- statements ----
# A loop statement is its LoopNode, below.

@dataclass
class Decl:
    name: str
    dims: tuple             # () scalar, 1 or 2 element-count expressions
    init: object | None


@dataclass
class Assign:
    target: str | IndexExpr
    op: str                 # '=' '+=' '-=' '*=' '/='
    value: object


@dataclass
class If:
    cond: object
    then_body: list
    else_body: list | None


@dataclass
class Return:
    value: object | None


@dataclass
class Function:
    name: str
    params: list[Decl]
    body: list


@dataclass
class Program:
    functions: list[Function] = field(default_factory=list)
    source_text: str = ""
    # what the parser records along the way; left out of the repr and of
    # equality, which stay the AST's
    loop_nodes: list = field(default_factory=list, repr=False, compare=False)
    accesses: list = field(default_factory=list, repr=False, compare=False)


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
