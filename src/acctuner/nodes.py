"""AST node types for the C-like subset language.

Every statement carries a byte-offset span into the original source text so
later passes can locate and annotate code without reformatting anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class SourcePos(NamedTuple):
    """A light record: the parser builds one for every node and token."""
    line: int      # 1-based
    col: int       # 1-based
    offset: int    # 0-based byte offset into the source text


Span = tuple[int, int]  # (start_offset, end_offset), end exclusive


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
    type_name: str          # 'int' | 'float' | 'double'
    name: str
    dims: tuple             # () scalar, 1 or 2 element-count expressions
    init: object | None
    pos: SourcePos
    span: Span

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass
class Assign:
    target: object          # VarExpr or IndexExpr
    op: str                 # '=' '+=' '-=' '*=' '/='
    value: object
    pos: SourcePos
    span: Span


@dataclass
class IncDec:
    target: VarExpr
    op: str                 # '++' or '--'
    pos: SourcePos
    span: Span


@dataclass
class If:
    cond: object
    then_body: "Block"
    else_body: "Block | None"
    pos: SourcePos
    span: Span


@dataclass
class ForLoop:
    init: Assign | None
    cond: object | None
    step: Assign | IncDec | None
    body: "Block"
    loop_id: int
    pos: SourcePos
    span: Span


@dataclass
class WhileLoop:
    cond: object
    body: "Block"
    loop_id: int
    pos: SourcePos
    span: Span


@dataclass
class DoWhileLoop:
    body: "Block"
    cond: object
    loop_id: int
    pos: SourcePos
    span: Span


@dataclass
class CallStmt:
    call: CallExpr
    pos: SourcePos
    span: Span


@dataclass
class Return:
    value: object | None
    pos: SourcePos
    span: Span


@dataclass
class Block:
    statements: list
    pos: SourcePos
    span: Span


@dataclass
class Function:
    name: str
    return_type: str
    params: list[Decl]
    body: Block
    pos: SourcePos
    span: Span


@dataclass
class Program:
    functions: list[Function] = field(default_factory=list)
    source_text: str = ""


LOOP_STMTS = (ForLoop, WhileLoop, DoWhileLoop)

LOOP_KIND = {ForLoop: "for", WhileLoop: "while", DoWhileLoop: "dowhile"}
