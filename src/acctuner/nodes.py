"""AST node types for the C-like subset language.

A node holds what a later pass reads.  A loop statement of any kind is its
LoopNode in the loop tree (loops.py), which also holds the (line, col) of
its keyword; no node here carries a position, since the parser gives each
access its token's.  There are no wrapper nodes: a block, and a loop, if or
function body, is a plain list of statements, in which a nested braced
block is a list of its own; a call statement is its CallExpr; `i++` and
`i--` are read as the Assigns `i += 1` and `i -= 1`.  In an expression, a
variable is its name, a str, and a numeric literal is its value: a float if
its token holds '.', 'e' or 'E', else the int that C reads (parser.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


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
    # what the parser records along the way (loops.py); left out of the
    # repr and of equality, which stay the AST's
    loop_nodes: list = field(default_factory=list, repr=False, compare=False)
    accesses: list = field(default_factory=list, repr=False, compare=False)

