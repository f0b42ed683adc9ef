"""Recursive-descent parser for the C-like subset language.

Grammar (informal):

    unit      = { function }
    function  = type IDENT '(' [ param { ',' param } ] ')' block
    param     = type IDENT [ dims ]
    block     = '{' { stmt } '}'
    stmt      = decl | assign ';' | call ';' | if | for | while | dowhile
              | return | block
    decl      = type declarator { ',' declarator } ';'
    declarator= IDENT [ dims ] [ '=' expr ]
    dims      = '[' [ expr ] ']' [ '[' [ expr ] ']' ]
    assign    = lvalue ( '=' | '+=' | '-=' | '*=' | '/=' ) expr
              | IDENT ( '++' | '--' )
    for       = 'for' '(' [ assign ] ';' [ expr ] ';' [ assign ] ')' body
    while     = 'while' '(' expr ')' body
    dowhile   = 'do' body 'while' '(' expr ')' ';'

Expressions support || && comparisons + - * / % unary !/- literals,
identifiers, indexing and calls.  In the AST a name is its string and a
literal its number: a float if its token holds '.', 'e' or 'E', else the int
that C reads, octal after a leading 0.  An 8 or 9 after a leading 0, or a
value past 2**64 - 1, which no C type holds, is a ParseError.  Comments are
// and /* */; lines starting with '#' (inserted pragmas) are skipped like
comments.  Pointers, goto, switch/break/continue and the preprocessor are
outside the subset and are rejected with a ParseError, as is nesting deeper
than MAX_NESTING levels: the cap keeps every recursive pass over the tree far
from Python's stack limit.

Tokens, and the loops and accesses recorded from them, carry only the
(line, col) where they start, both 1-based; a tab or a carriage return
counts as one column.  Of the AST, only a loop statement has one (loops.py).

The one pass over the tokens also records, on the Program, the loop tree and
every variable access (loops.py holds the types of all three), so no later
pass walks the AST again.  A loop statement is its LoopNode, numbered at its
keyword, before the loops in its body; its ancestors are the open loops,
nearest first, and a `return` marks every open loop as left early.  Accesses
follow the source, one per identifier occurrence and two (at one position)
for a compound assignment's target, `i++` being `i += 1`, and for an array
passed whole to a call, which gets a ref then a set.  Where a record needs
what comes later, its list slot is reserved first: an indexed name's access
goes ahead of its subscripts' reads, and an assignment target's set, then a
compound operator's ref, ahead of the target's subscript reads.  A
declarator's define, as an array if `[` follows the name, goes ahead of its
dims and initializer; a parameter's dims record nothing.  Each block, braced
or a lone loop or if body, opens a scope, and a name's access is an array's
when its innermost declaration is; when that is an array parameter, the
access also records its rank.  No record moves out of its statement, so a
loop's accesses are the run of the list that it adds, from its keyword to
the end of its body or do-while condition.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError, _quote
from .loops import (DEFINE, REF, SET, Assign, BinaryExpr, CallExpr, Decl, Function, If,
                    IndexExpr, LoopNode, Program, Return, SourcePos, UnaryExpr, VarAccess)

TYPE_KEYWORDS = ("int", "float", "double")
KEYWORDS = TYPE_KEYWORDS + ("if", "else", "for", "while", "do", "return")

# Constructs the subset deliberately leaves out; seeing one is a parse error
# at that token rather than a confusing failure later.
UNSUPPORTED_KEYWORDS = frozenset(
    "goto switch case default break continue struct union enum typedef "
    "void char long short unsigned signed static extern const sizeof".split()
)

ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=")
# braces, unbraced loop and if bodies, parentheses, a subscript's brackets
# and unary operators each open a level, a declaration's size brackets none;
# one past the cap fails at its opening token
MAX_NESTING = 128
# binary operators, loosest-binding first
BINARY_LEVELS = (("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="),
                 ("+", "-"), ("*", "/", "%"))
_LEVEL_OF = {op: level for level, ops in enumerate(BINARY_LEVELS) for op in ops}
# the largest integer constant that a C type holds: 22 digits in octal
MAX_INT_CONSTANT = 2**64 - 1    # unsigned long long

# One token per match, after any blanks.  `\w` is exactly str.isalnum() or
# '_'; an identifier starting outside ASCII must also pass str.isalpha().
# Numbers are ASCII digits only.  A line comment or a '#' line runs to the
# end of the line, and on past each newline after a backslash and any blanks
# or '\r': C joins those lines first (translation phase 2; gcc and clang
# allow the blanks).  So a block comment ends at a '*' and a '/' with any
# such joins between them, and a '/*' without its end matches alone.  `bad`
# takes any other character that is not a blank, so finditer skips only
# trailing blanks.
_TOKEN_RE = re.compile(r"""
    [ \t\r]*
    (?:
      (?P<ident>[A-Za-z_]\w*)
    | (?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
    | (?P<nl>\n)
    | (?P<line_comment>(?://|\#)[^\\\n]*(?:\\(?:[ \t\r]*\n)?[^\\\n]*)*)
    | (?P<block_comment>/\*(?:[\s\S]*?\*(?:\\[ \t\r]*\n)*/)?)
    | (?P<punct>\+\+|--|[-+*/=!<>]=|&&|\|\||[-+*/%<>=!(){}\[\];,])
    | (?P<uident>[^\W\d_]\w*)
    | (?P<bad>[^ \t\r\n])
    )""", re.VERBOSE)


_tuple_new = tuple.__new__     # a NamedTuple from one tuple, without its __new__


class Token(NamedTuple):
    kind: str       # 'ident' | 'num' | 'punct' | 'eof'
    text: str
    line: int
    col: int

    @property
    def pos(self) -> SourcePos:
        return _tuple_new(SourcePos, self[2:])      # (line, col)


def tokenize(text: str, path: str = "<source>") -> list[Token]:
    """Split text into tokens, ending with one EOF token.  Raises ParseError
    at a character outside the subset or an unterminated block comment."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0          # index of the first character of `line`
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "ident" or kind == "punct" or kind == "num":
            append(_tuple_new(Token, (kind, m.group(kind), line, start - line_start + 1)))
        elif kind == "nl":
            line += 1
            line_start = start + 1
        elif kind == "line_comment" or kind == "block_comment":
            comment = m.group(kind)
            if comment == "/*":
                raise ParseError("unterminated block comment", line,
                                 start - line_start + 1, path)
            newlines = comment.count("\n")
            if newlines:
                line += newlines
                line_start = start + comment.rfind("\n") + 1
        elif kind == "uident" and text[start].isalpha():
            append(Token("ident", m.group(kind), line, start - line_start + 1))
        else:
            raise ParseError(f"unexpected character {text[start]!r}", line,
                             start - line_start + 1, path)
    append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# -- what the parse reads off AST nodes --

def _canonical_counter(loop: LoopNode) -> str | None:
    """The counter of a canonical counted loop, read off its header, else None.

    Canonical: a for loop with `i = e`; `i < e` or `i <= e`; `i += c` with
    c a positive integer literal, which covers `i++` since the parser reads
    it as `i += 1`.  A while or do-while loop has no init, so it is never
    canonical.
    """
    init, cond, step = loop.init, loop.cond, loop.step
    name = init.target if init is not None and init.op == "=" else None
    if (type(name) is str and type(cond) is BinaryExpr and cond.op in ("<", "<=")
            and cond.left == name and step is not None and step.op == "+="
            and step.target == name and type(step.value) is int and step.value > 0):
        return name
    return None


def _normalize_index(expr) -> tuple | None:
    """Reduce an index expression to (var, offset) where possible.

    `i` -> (i, 0); `i + 2` / `2 + i` -> (i, 2); `i - 1` -> (i, -1);
    integer literal c -> (None, c); anything else -> None (unanalyzable).
    """
    if type(expr) is str:
        return (expr, 0)
    if type(expr) is int:
        return (None, expr)
    if type(expr) is BinaryExpr and expr.op in ("+", "-"):
        left, right = expr.left, expr.right
        if type(left) is str and type(right) is int:
            return (left, right if expr.op == "+" else -right)
        if expr.op == "+" and type(left) is int and type(right) is str:
            return (right, left)
    return None


class _Parser:
    def __init__(self, text: str, path: str = "<source>"):
        self.text = text
        self.path = path
        self.tokens = tokenize(text, path)
        self.i = 0
        self.depth = 0          # open nesting levels, at most MAX_NESTING
        # what the parse records besides the AST (module docstring)
        self.loop_nodes: list[LoopNode] = []
        self.accesses: list[VarAccess] = []
        self.function = ""                          # the function being parsed
        # name -> (is_array, rank if an array parameter else 0), innermost last
        self.scopes: list[dict[str, tuple[bool, int]]] = []
        self.loop_path: tuple[int, ...] = ()        # open loops, outermost first
        self.header_of: int | None = None           # loop whose header is being read

    # -- token plumbing --
    # The last token is EOF: advance() never moves past it, and its empty
    # text matches no expected text, so self.tokens[self.i] always exists.

    def peek(self, k: int = 0) -> Token:
        return self.tokens[self.i + k]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        """Whether the current token is the punctuator or keyword `text`
        (no number token spells one)."""
        return self.tokens[self.i].text == text

    def accept(self, text: str) -> Token | None:
        tok = self.tokens[self.i]
        if tok.text == text:
            self.i += 1
            return tok
        return None

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.i]
        if tok.text != text:
            self.unexpected(repr(text), tok)
        self.i += 1
        return tok

    def error(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col, self.path)

    def unexpected(self, what: str, tok: Token):
        """Fail at tok, where `what` was expected; a keyword outside the
        subset fails as an unsupported construct instead."""
        if tok.kind == "ident" and tok.text in UNSUPPORTED_KEYWORDS:
            self.error(f"unsupported construct {tok.text!r}", tok)
        found = "end of input" if tok.kind == "eof" else _quote(tok.text)
        self.error(f"expected {what}, found {found}", tok)

    def nest(self, tok: Token):
        """Open a level at tok; the caller closes it (a ParseError needs no closing)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels", tok)

    # -- loop and access records --

    def declared(self, name: str) -> tuple[bool, int]:
        """(is_array, param_rank) of the innermost declaration of name:
        param_rank is an array parameter's rank, else 0; (False, 0) if undeclared."""
        for names in reversed(self.scopes):
            if name in names:
                return names[name]
        return False, 0

    def access(self, name: str, kind: str, pos: SourcePos, is_array: bool,
               param_rank: int = 0, indices: tuple | None = None) -> VarAccess:
        return VarAccess(name, is_array, kind, pos, self.loop_path, self.function,
                         self.header_of, indices, param_rank)

    def declare(self, name: Token, is_array: bool, param_rank: int = 0):
        self.scopes[-1][name.text] = (is_array, param_rank)
        self.accesses.append(self.access(name.text, DEFINE, name.pos, is_array, param_rank))

    # -- grammar --

    def parse_program(self) -> Program:
        functions = []
        while self.peek().kind != "eof":
            functions.append(self.parse_function())
        return Program(functions, self.text, self.loop_nodes, self.accesses)

    def parse_function(self) -> Function:
        self.expect_type("a function definition")
        name = self.expect_ident()
        self.function = name.text
        self.scopes = [{}]      # the parameters'; the body opens its own
        self.expect("(")
        params: list[Decl] = []
        if not self.at(")"):
            params.append(self.parse_param())
            while self.accept(","):
                params.append(self.parse_param())
        self.expect(")")
        return Function(name.text, params, self.parse_block())

    def expect_type(self, what: str):
        tok = self.peek()
        if tok.text not in TYPE_KEYWORDS:
            self.unexpected(what, tok)
        self.advance()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS or tok.text in UNSUPPORTED_KEYWORDS:
            self.unexpected("identifier", tok)
        return self.advance()

    def parse_param(self) -> Decl:
        self.expect_type("parameter type")
        name = self.expect_ident()
        recorded = len(self.accesses)
        dims = self.parse_dims(allow_empty=True)
        del self.accesses[recorded:]    # a parameter's dims record nothing
        self.declare(name, bool(dims), len(dims))
        return Decl(name.text, dims, None)

    def parse_dims(self, allow_empty: bool) -> tuple:
        dims = []
        while self.at("["):
            self.advance()
            if self.at("]"):
                if not allow_empty:
                    self.error("array dimension requires a size expression")
                dims.append(None)
            else:
                dims.append(self.parse_expr())
            self.expect("]")
            if len(dims) > 2:
                self.error("arrays of more than two dimensions are not supported")
        return tuple(dims)

    def parse_block(self) -> list:
        self.nest(self.expect("{"))
        self.scopes.append({})
        statements = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                self.error("unterminated block; expected '}'")
            self.parse_stmt(statements)
        self.expect("}")
        self.scopes.pop()
        self.depth -= 1
        return statements

    def parse_stmt(self, block: list):
        """Append the next statement to block.  A declaration appends one
        Decl per declarator, so a comma list stays a flat run of Decls."""
        tok = self.peek()
        if tok.text in TYPE_KEYWORDS:
            self.advance()
            block.append(self.parse_declarator())
            while self.accept(","):
                block.append(self.parse_declarator())
            self.expect(";")
        elif tok.text == "if":
            block.append(self.parse_if())
        elif tok.text in ("for", "while", "do"):
            block.append(self.parse_loop())
        elif tok.text == "return":
            block.append(self.parse_return())
        elif tok.text == "{":
            block.append(self.parse_block())
        elif tok.kind == "ident":
            # a call statement, which is its CallExpr, or an assignment
            call = self.peek(1).text == "("
            block.append(self.parse_primary() if call else self.parse_assign())
            self.expect(";")
        else:
            self.unexpected("a statement", tok)

    def parse_declarator(self) -> Decl:
        name = self.expect_ident()
        self.declare(name, self.at("["))
        dims = self.parse_dims(allow_empty=False)
        init = None
        if self.accept("="):
            if dims:
                self.error("array initializers are not supported", name)
            init = self.parse_expr()
        return Decl(name.text, dims, init)

    def parse_assign(self) -> Assign:
        """An assignment, with `i++` and `i--` read as `i += 1` and `i -= 1`.
        The target's set, then a compound operator's ref, take the slot of
        the target's ref, ahead of its subscripts' reads."""
        name = self.expect_ident()
        accesses = self.accesses
        slot = len(accesses)
        if self.at("["):
            target = self.parse_index(name)     # records its ref in the slot
        else:
            target = name.text
            accesses.append(self.access(name.text, REF, name.pos, *self.declared(name.text)))
        ref = accesses[slot]
        op_tok = self.advance()
        op = op_tok.text
        incdec = op in ("++", "--") and type(target) is str
        if incdec:
            op = op[0] + "="
        elif op not in ASSIGN_OPS:
            self.unexpected("an assignment operator", op_tok)
        set_ = self.access(name.text, SET, ref.pos, ref.is_array, ref.param_rank, ref.indices)
        accesses[slot:slot + 1] = (set_,) if op == "=" else (set_, ref)
        return Assign(target, op, 1 if incdec else self.parse_expr())

    def parse_index(self, name: Token) -> IndexExpr:
        """name's subscripts, with the array's ref recorded ahead of their reads."""
        accesses = self.accesses
        slot = len(accesses)
        accesses.append(None)
        indices = []
        while self.at("["):
            self.nest(self.advance())
            indices.append(self.parse_expr())
            self.expect("]")
            self.depth -= 1
        if len(indices) > 2:
            self.error("arrays of more than two dimensions are not supported", name)
        accesses[slot] = self.access(name.text, REF, name.pos, True, self.declared(name.text)[1],
                                     tuple(_normalize_index(ix) for ix in indices))
        return IndexExpr(name.text, tuple(indices))

    def parse_if(self) -> If:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = self.parse_body()
        else_body = None
        if self.accept("else"):
            else_body = self.parse_body()
        return If(cond, then_body, else_body)

    def parse_body(self) -> list:
        """A loop/if body: a braced block, or a single statement in a list
        of its own, which opens a scope like a block."""
        if self.at("{"):
            return self.parse_block()
        self.nest(self.peek())
        self.scopes.append({})
        body = []
        self.parse_stmt(body)
        self.scopes.pop()
        self.depth -= 1
        return body

    def parse_loop(self) -> LoopNode:
        """A for, while or do-while loop, the LoopNode it appends to the tree,
        numbered before the loops in its body.  A do-while's body comes first."""
        start = self.advance()
        kind = "dowhile" if start.text == "do" else start.text
        outer = self.loop_path
        loop = LoopNode(len(self.loop_nodes), kind, outer[::-1], self.function, start.pos,
                        None, access_start=len(self.accesses))
        self.loop_nodes.append(loop)
        self.loop_path = outer + (loop.loop_id,)
        if kind == "dowhile":
            loop.body = self.parse_body()
            self.expect("while")
        self.expect("(")
        self.header_of = loop.loop_id
        if kind == "for":
            if not self.at(";"):
                incdec = self.peek(1).text in ("++", "--")
                loop.init = self.parse_assign()
                if incdec:      # parsed first, so that its own errors come first
                    self.error("for-loop initializer must be an assignment", start)
            self.expect(";")
            loop.cond = None if self.at(";") else self.parse_expr()
            self.expect(";")
            if not self.at(")"):
                loop.step = self.parse_assign()
        else:
            loop.cond = self.parse_expr()
        self.expect(")")
        self.header_of = None
        if kind == "dowhile":
            self.expect(";")
        else:
            loop.body = self.parse_body()
        self.loop_path = outer
        loop.access_stop = len(self.accesses)
        loop.counter = _canonical_counter(loop)
        return loop

    def parse_return(self) -> Return:
        self.expect("return")
        for loop_id in self.loop_path:      # the return leaves every open loop
            self.loop_nodes[loop_id].early_exit = True
        value = None
        if not self.at(";"):
            value = self.parse_expr()
        self.expect(";")
        return Return(value)

    # -- expressions, operator precedence --

    def parse_expr(self):
        """Operands joined by binary operators, folded on an operator stack
        by BINARY_LEVELS; every level is left-associative.  Only a nested
        operand recurses, so a long chain costs no stack depth."""
        tokens = self.tokens
        operands = [self.parse_primary()]
        pending: list[tuple[int, str]] = []     # (level, operator), levels ascending
        while True:
            op = tokens[self.i].text
            level = _LEVEL_OF.get(op)
            while pending and (level is None or pending[-1][0] >= level):
                right = operands.pop()
                operands[-1] = BinaryExpr(pending.pop()[1], operands[-1], right)
            if level is None:
                return operands[0]
            self.i += 1
            pending.append((level, op))
            operands.append(self.parse_primary())

    def parse_primary(self):
        """An operand: a literal, name, index, call or parenthesized
        expression, after any unary '!' and '-'."""
        tok = self.tokens[self.i]
        kind = tok.kind
        if kind == "ident":
            text = tok.text
            if text not in KEYWORDS and text not in UNSUPPORTED_KEYWORDS:
                self.i += 1
                after = self.tokens[self.i].text
                if after == "(":
                    self.nest(self.advance())
                    args = []
                    if not self.at(")"):
                        args.append(self.parse_arg())
                        while self.accept(","):
                            args.append(self.parse_arg())
                    self.expect(")")
                    self.depth -= 1
                    return CallExpr(text, tuple(args))
                if after == "[":
                    return self.parse_index(tok)
                self.accesses.append(self.access(text, REF, tok.pos, *self.declared(text)))
                return text
        elif kind == "num":
            self.i += 1
            return self.number(tok)
        elif kind == "punct":
            text = tok.text
            if text == "(" or text == "!" or text == "-":
                self.i += 1
                self.nest(tok)
                if text == "(":
                    inner = self.parse_expr()
                    self.expect(")")
                else:
                    inner = UnaryExpr(text, self.parse_primary())
                self.depth -= 1
                return inner
        self.unexpected("an expression", tok)

    def number(self, tok: Token) -> int | float:
        """A literal's value: a float if it holds '.', 'e' or 'E', else the
        int that C reads, octal after a leading 0, and MAX_INT_CONSTANT at most."""
        text = tok.text
        if "." in text or "e" in text or "E" in text:
            return float(text)
        octal = text[0] == "0"
        digit = octal and next((c for c in text if c in "89"), None)
        if digit:
            self.error(f"invalid digit {digit!r} in octal constant", tok)
        if len(text.lstrip("0")) <= 22:     # a longer one is too large, unconverted
            value = int(text, 8 if octal else 10)
            if value <= MAX_INT_CONSTANT:
                return value
        self.error(f"integer constant larger than {MAX_INT_CONSTANT}", tok)

    def parse_arg(self):
        """A call argument.  An array passed whole may be read and written
        inside the callee, so its ref, the last access a bare name records,
        is followed by a set at its position, with unknown element indices."""
        arg = self.parse_expr()
        if type(arg) is str and self.accesses[-1].is_array:
            ref = self.accesses[-1]
            self.accesses.append(self.access(arg, SET, ref.pos, True, ref.param_rank))
        return arg


def parse(text: str, path: str = "<source>") -> Program:
    """Parse source text into a Program.

    Loop statements, each its LoopNode, are numbered 0..n-1 in textual
    (pre-order) appearance; the Program also lists them and every VarAccess
    (module docstring).  Empty input yields a Program with zero functions.  Any construct outside
    the subset grammar raises ParseError at the offending token.
    """
    return _Parser(text, path).parse_program()
