"""Loop-tree construction and variable-access extraction.

The loop tree numbers every for/while/do-while statement in textual
pre-order and records nesting, so genome positions stay stable across runs.
Access extraction classifies every identifier occurrence as define/set/ref
together with its enclosing-loop chain; those records drive both the
parallelizability checks and the data-transfer planner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .nodes import (
    Assign,
    BinaryExpr,
    Block,
    CallExpr,
    CallStmt,
    Decl,
    Function,
    If,
    IncDec,
    IndexExpr,
    Loop,
    NumLit,
    Program,
    Return,
    SourcePos,
    UnaryExpr,
    VarExpr,
)

DEFINE = "define"
SET = "set"
REF = "ref"


@dataclass
class LoopNode:
    loop_id: int
    kind: str                   # 'for' | 'while' | 'dowhile'
    parent: int | None
    function: str
    header_pos: SourcePos
    counter: str | None         # loop variable; set only for a canonical loop
    early_exit: bool = False    # its body holds a return


@dataclass
class LoopTree:
    nodes: list[LoopNode] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, loop_id: int) -> LoopNode:
        return self.nodes[loop_id]

    def ancestors(self, loop_id: int) -> tuple[int, ...]:
        """Ancestor chain of a loop, nearest first."""
        out = []
        parent = self.nodes[loop_id].parent
        while parent is not None:
            out.append(parent)
            parent = self.nodes[parent].parent
        return tuple(out)


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


def _canonical_counter(loop: Loop) -> str | None:
    """The counter of a canonical counted loop, else None.

    Canonical: a for loop with `i = e`; `i < e` or `i <= e`; `i++` or
    `i += c` with c a positive integer literal.  A while or do-while loop
    has no init, so it is never canonical.
    """
    init, cond, step = loop.init, loop.cond, loop.step
    if not (isinstance(init, Assign) and init.op == "=" and isinstance(init.target, VarExpr)):
        return None
    name = init.target.name
    if not (isinstance(cond, BinaryExpr) and cond.op in ("<", "<=")
            and isinstance(cond.left, VarExpr) and cond.left.name == name):
        return None
    if isinstance(step, IncDec):
        return name if step.op == "++" and step.target.name == name else None
    if (isinstance(step, Assign) and step.op == "+=" and isinstance(step.target, VarExpr)
            and step.target.name == name and isinstance(step.value, NumLit)
            and not step.value.is_float and step.value.value > 0):
        return name
    return None


def build_loop_tree(program: Program) -> LoopTree:
    """Collect all loop statements into a pre-order-numbered tree."""
    nodes: list[LoopNode] = []

    def walk(stmt, parent: int | None, function: str) -> bool:
        """Add the loops in stmt; return whether stmt holds a return."""
        if isinstance(stmt, Loop):
            node = LoopNode(stmt.loop_id, stmt.kind, parent, function, stmt.pos,
                            _canonical_counter(stmt))
            nodes.append(node)
            node.early_exit = walk(stmt.body, stmt.loop_id, function)
            return node.early_exit
        if isinstance(stmt, Block):
            returns = False
            for child in stmt.statements:
                returns = walk(child, parent, function) or returns
            return returns
        if isinstance(stmt, If):
            returns = walk(stmt.then_body, parent, function)
            if stmt.else_body is not None:
                returns = walk(stmt.else_body, parent, function) or returns
            return returns
        # Decl/Assign/IncDec/CallStmt contain no loops
        return isinstance(stmt, Return)

    for fn in program.functions:
        walk(fn.body, None, fn.name)

    tree = LoopTree(nodes)
    assert [n.loop_id for n in tree.nodes] == list(range(len(tree.nodes)))
    return tree


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


class _AccessWalker:
    def __init__(self, fn: Function, out: list[VarAccess]):
        self.fn = fn
        self.out = out
        self.scopes: list[dict[str, bool]] = [{}]   # name -> is_array, innermost last
        self.loop_path: tuple[int, ...] = ()    # shared by every access it covers
        self.header_of: int | None = None

    def run(self):
        for param in self.fn.params:
            self.scopes[-1][param.name] = param.is_array
            self.emit(param.name, DEFINE, param.pos, is_array=param.is_array)
        self.stmt(self.fn.body)

    def lookup(self, name: str) -> bool | None:
        """Whether the innermost declaration of name is an array; None if undeclared."""
        for names in reversed(self.scopes):
            if name in names:
                return names[name]
        return None

    def emit(self, name: str, kind: str, pos: SourcePos,
             is_array: bool | None = None, indices: tuple | None = None):
        if is_array is None:
            declared = self.lookup(name)
            is_array = bool(indices) if declared is None else declared
        self.out.append(VarAccess(name, is_array, kind, pos, self.loop_path,
                                  self.fn.name, self.header_of, indices))

    # -- expressions: everything read --

    def expr(self, e):
        """Emit in source order off a stack: only a call recurses, so chains stay flat."""
        pending = [e]
        while pending:
            e = pending.pop()
            kind = type(e)
            if kind is VarExpr:
                self.emit(e.name, REF, e.pos)
            elif kind is BinaryExpr:
                pending += (e.right, e.left)
            elif kind is IndexExpr:
                norm = tuple(_normalize_index(ix) for ix in e.indices)
                self.emit(e.name, REF, e.pos, is_array=True, indices=norm)
                pending += reversed(e.indices)
            elif kind is UnaryExpr:
                pending.append(e.operand)
            elif kind is CallExpr:
                self.call(e)

    def call(self, e: CallExpr):
        # An array passed whole to a call may be read and written inside the
        # callee; record both, with unknown element indices.
        for arg in e.args:
            if isinstance(arg, VarExpr) and self.lookup(arg.name):
                self.emit(arg.name, REF, arg.pos, is_array=True)
                self.emit(arg.name, SET, arg.pos, is_array=True)
            else:
                self.expr(arg)

    # -- statements --

    def assign(self, stmt: Assign):
        target = stmt.target
        if isinstance(target, IndexExpr):
            norm = tuple(_normalize_index(ix) for ix in target.indices)
            self.emit(target.name, SET, target.pos, is_array=True, indices=norm)
            if stmt.op != "=":
                self.emit(target.name, REF, target.pos, is_array=True, indices=norm)
            for ix in target.indices:
                self.expr(ix)
        else:
            self.emit(target.name, SET, target.pos)
            if stmt.op != "=":
                self.emit(target.name, REF, target.pos)
        self.expr(stmt.value)

    def incdec(self, stmt: IncDec):
        self.emit(stmt.target.name, SET, stmt.target.pos)
        self.emit(stmt.target.name, REF, stmt.target.pos)

    def header(self, loop_id: int, *parts):
        prev = self.header_of
        self.header_of = loop_id
        for part in parts:      # a missing part is None, which expr skips
            if isinstance(part, Assign):
                self.assign(part)
            elif isinstance(part, IncDec):
                self.incdec(part)
            else:
                self.expr(part)
        self.header_of = prev

    def stmt(self, s):
        if isinstance(s, Decl):
            self.scopes[-1][s.name] = s.is_array
            self.emit(s.name, DEFINE, s.pos, is_array=s.is_array)
            for dim in s.dims:
                self.expr(dim)
            self.expr(s.init)
        elif isinstance(s, Assign):
            self.assign(s)
        elif isinstance(s, IncDec):
            self.incdec(s)
        elif isinstance(s, If):
            self.expr(s.cond)
            self.stmt(s.then_body)
            if s.else_body is not None:
                self.stmt(s.else_body)
        elif isinstance(s, Loop):
            outer = self.loop_path
            self.loop_path = outer + (s.loop_id,)
            if s.kind == "dowhile":     # the condition follows the body
                self.stmt(s.body)
                self.header(s.loop_id, s.cond)
            else:                       # a while loop has no init or step
                self.header(s.loop_id, s.init, s.cond, s.step)
                self.stmt(s.body)
            self.loop_path = outer
        elif isinstance(s, CallStmt):
            self.call(s.call)
        elif isinstance(s, Return):
            self.expr(s.value)
        elif isinstance(s, Block):
            self.scopes.append({})
            for child in s.statements:
                self.stmt(child)
            self.scopes.pop()


def extract_accesses(program: Program) -> list[VarAccess]:
    """Classify every identifier occurrence as define/set/ref.

    Compound assignments produce both a set and a ref at the same position.
    Whole arrays passed to calls are conservatively marked ref and set.
    """
    out: list[VarAccess] = []
    for fn in program.functions:
        _AccessWalker(fn, out).run()
    return out
