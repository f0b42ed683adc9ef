"""AST node types for the C-like subset language.

Every node carries one position, a (line, col) pair: where its keyword,
brace, literal or first name is (a declaration's is its declared name), or
an operator's own token.  Later passes need no more: loops are numbered,
accesses are classified by kind, and the emitter inserts whole lines
before a loop's header line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class SourcePos(NamedTuple):
    """A light record: the parser builds one for every node and token."""
    line: int      # 1-based
    col: int       # 1-based


# ---- expressions ----
# Slotted and not frozen, so that the parser builds them cheaply; like the
# statements below, nothing assigns to their fields after the parse.

@dataclass(slots=True, unsafe_hash=True)
class NumLit:
    value: float
    is_float: bool
    pos: SourcePos


@dataclass(slots=True, unsafe_hash=True)
class VarExpr:
    name: str
    pos: SourcePos


@dataclass(slots=True, unsafe_hash=True)
class IndexExpr:
    name: str
    indices: tuple          # 1 or 2 index expressions
    pos: SourcePos


@dataclass(slots=True, unsafe_hash=True)
class UnaryExpr:
    op: str                 # '!' or '-'
    operand: object
    pos: SourcePos


@dataclass(slots=True, unsafe_hash=True)
class BinaryExpr:
    op: str
    left: object
    right: object
    pos: SourcePos


@dataclass(slots=True, unsafe_hash=True)
class CallExpr:
    name: str
    args: tuple
    pos: SourcePos


# ---- statements ----

@dataclass
class Decl:
    name: str
    dims: tuple             # () scalar, 1 or 2 element-count expressions
    init: object | None
    pos: SourcePos

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass
class Assign:
    target: object          # VarExpr or IndexExpr
    op: str                 # '=' '+=' '-=' '*=' '/='
    value: object
    pos: SourcePos


@dataclass
class IncDec:
    target: VarExpr
    op: str                 # '++' or '--'
    pos: SourcePos


@dataclass
class If:
    cond: object
    then_body: "Block"
    else_body: "Block | None"
    pos: SourcePos


@dataclass
class ForLoop:
    init: Assign | None
    cond: object | None
    step: Assign | IncDec | None
    body: "Block"
    loop_id: int
    pos: SourcePos


@dataclass
class WhileLoop:
    cond: object
    body: "Block"
    loop_id: int
    pos: SourcePos


@dataclass
class DoWhileLoop:
    body: "Block"
    cond: object
    loop_id: int
    pos: SourcePos


@dataclass
class CallStmt:
    call: CallExpr
    pos: SourcePos


@dataclass
class Return:
    value: object | None
    pos: SourcePos


@dataclass
class Block:
    statements: list
    pos: SourcePos


@dataclass
class Function:
    name: str
    params: list[Decl]
    body: Block
    pos: SourcePos


@dataclass
class Program:
    functions: list[Function] = field(default_factory=list)
    source_text: str = ""


LOOP_STMTS = (ForLoop, WhileLoop, DoWhileLoop)

LOOP_KIND = {ForLoop: "for", WhileLoop: "while", DoWhileLoop: "dowhile"}
