import pytest

import acctuner as at
from acctuner.errors import ParseError
from acctuner.loops import Assign, Decl, If, LoopNode
from acctuner.parser import KEYWORDS, UNSUPPORTED_KEYWORDS, parse, tokenize


def test_minimal_program():
    program = parse("int main(){int i; for(i=0;i<10;i++){}}")
    assert len(program.functions) == 1
    tree = at.build_loop_tree(program)
    assert len(tree) == 1
    node = tree[0]
    assert node.kind == "for" and node.counter == "i" and node.loop_id == 0


def test_empty_input():
    program = parse("")
    assert program.functions == []
    assert at.build_loop_tree(program) == []


def test_goto_rejected():
    with pytest.raises(ParseError) as exc:
        parse("int main(){goto L;}")
    assert "goto" in str(exc.value)


@pytest.mark.parametrize("text", [
    "int main(){int *p;}",          # pointers
    "int main(){break;}",
    "int main(){switch(x){}}",
    "void f(){}",                   # unsupported type keyword
    "int main(){int a[2][2][2];}",  # 3-D array
])
def test_outside_subset_rejected(text):
    with pytest.raises(ParseError):
        parse(text)


# Bad inputs and the (message, line, column) of the ParseError each raises.
ERROR_CORPUS = [
    ('int main(){\n  /* never closed\n',
     'unterminated block comment', 2, 3),
    ('int main(){ float x; x = .5; return 0; }',
     "unexpected character '.'", 1, 26),
    ('int main(){ int x; x = 1 @ 2; }',
     "unexpected character '@'", 1, 26),
    ('int main(){ float x; x = 1e; return 0; }',
     "expected ';', found 'e'", 1, 27),
    ('int main(){ float x; x = 1e+y; return 0; }',
     "expected ';', found 'e'", 1, 27),
    ('int main(){ float x; x = 1.; }',
     "unexpected character '.'", 1, 27),
    ('int main(){\n  goto L;\n}',
     "unsupported construct 'goto'", 2, 3),
    ('int main(){ int a[2][2][2]; }',
     'arrays of more than two dimensions are not supported', 1, 27),
    ('int main(){ int a[2][2]; a[0][0][0] = 1; }',
     'arrays of more than two dimensions are not supported', 1, 26),
    ('int main(){ int i; for(i=0;i<4;i++){ i = i; }',
     "unterminated block; expected '}'", 1, 46),
    ('int main(){ int i; // no close',
     "unterminated block; expected '}'", 1, 31),
    ('int main(){ int x; x = 3 $ 1; }',
     "unexpected character '$'", 1, 26),
    ('int main(){ int x; x = (1 + 2; }',
     "expected ')', found ';'", 1, 30),
    ('int main(',
     'expected parameter type, found end of input', 1, 10),
    ('int main(){ int a[]; }',
     'array dimension requires a size expression', 1, 19),
    ('int main(){ int x; x = ; }',
     "expected an expression, found ';'", 1, 24),
    ('int main(){ int x; x == 1; }',
     "expected an assignment operator, found '=='", 1, 22),
    ('int main(){ int a[2] = 1; }',
     'array initializers are not supported', 1, 17),
    ('void f(){}',
     "unsupported construct 'void'", 1, 1),
    ('int main(){ int i; for(i++;i<2;i++){} }',
     'for-loop initializer must be an assignment', 1, 20),
    ('int main(){ f(1) + 2; }',
     "expected ';', found '+'", 1, 18),
    ('int main(){ 5; }',
     "expected a statement, found '5'", 1, 13),
    ('\n\n  int main(){\n\tint x;\n\tx = 1 # 2;\n}',
     "expected ';', found '}'", 6, 1),
    ('/* a\n b */ int main(){ @ }',
     "unexpected character '@'", 2, 19),
    ('int main(){\r\n\tint x;\r\n\tx = 1 ~ 2;\r\n}',
     "unexpected character '~'", 3, 8),
    ('int main(){ int \u00bd; }',
     "unexpected character '\u00bd'", 1, 17),
    ('int main(){ int x; x = 1; } }',
     "expected a function definition, found '}'", 1, 29),
    ('int 5(){}',
     "expected identifier, found '5'", 1, 5),
    ('int main(){ int if; }',
     "expected identifier, found 'if'", 1, 17),
    ('int main(){ float x\xa0; }',
     "unexpected character '\\xa0'", 1, 20),
    ('int main(){ int x;\x0c}',
     "unexpected character '\\x0c'", 1, 19),
    ('int main(){ int x; break; }',
     "unsupported construct 'break'", 1, 20),
    # numbers are ASCII digits only
    ('int main(){ int x; x = \u00b2; return 0; }',
     "unexpected character '\u00b2'", 1, 24),
    ('int main(){ int x; x = \u0661\u0662; return 0; }',
     "unexpected character '\u0661'", 1, 24),
    ('int main(){ int x; x = 1\u00b2; return 0; }',
     "unexpected character '\u00b2'", 1, 25),
    # a backslash-newline is joined only in a // comment, a '#' line or a
    # block comment's close: in a name, or between '/' and '*', it stays
    ('int main(){ int i; fo\\\nr (i = 0; i < 4; i++) { i = i; } return 0; }',
     "unexpected character '\\\\'", 1, 22),
    ('int main(){ /\\\n* note */ return 0; }',
     "unexpected character '\\\\'", 1, 14),
    # an unsupported keyword inside an expression
    ('int main(){int x; x = sizeof(x);}',
     "unsupported construct 'sizeof'", 1, 23),
    # integer constants as C reads them: an octal digit after a leading 0,
    # and no larger value than unsigned long long holds
    ('int main(){ int x;\n  x = 1 + 08; }',
     "invalid digit '8' in octal constant", 2, 11),
    ('int main(){ int x;\n  x = 0779; }',
     "invalid digit '9' in octal constant", 2, 7),
    ('int main(){ int x;\n  x = 18446744073709551616; }',
     'integer constant larger than 18446744073709551615', 2, 7),
    ('int main(){ float a[10]; int i; a[i + ' + '9' * 400 + '] = 1.0; }',
     'integer constant larger than 18446744073709551615', 1, 39),
    ('int main(){ int x; x = 0' + '7' * 23 + '; }',
     'integer constant larger than 18446744073709551615', 1, 24),
    # every site names the end of input so, and quotes at most 40 characters
    # of the token that it found
    ('int',
     'expected identifier, found end of input', 1, 4),
    ('int main(){ int x; x =',
     'expected an expression, found end of input', 1, 23),
    ('int main(){ int x; x',
     'expected an assignment operator, found end of input', 1, 21),
    ('int main(){ int x; x = 1 ' + '9' * 5000 + '; }',
     "expected ';', found '" + '9' * 36 + "...", 1, 26),
    ('int main(){ int x; x = 1 ' + 'y' * 5000 + '; }',
     "expected ';', found '" + 'y' * 36 + "...", 1, 26),
    # an unsupported keyword where punctuation or an operator was expected
    ('int main(){ int x; x = 1 static; }',
     "unsupported construct 'static'", 1, 26),
]


@pytest.mark.parametrize("text,message,line,col", ERROR_CORPUS,
                         ids=range(len(ERROR_CORPUS)))
def test_parse_error_corpus(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


PUNCTUATORS = ("( ) { } [ ] ; , = += -= *= /= ++ -- + - * / % < <= > >= == != && || !"
               .split())
# starts that take a drawn sequence past the function header, into a
# statement and into an expression
PREFIXES = ("", "int main(", "int main(){ int x; ", "int main(){ float a[4]; x = a[")


def test_parse_fails_only_with_a_short_parse_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    long_run = st.integers(1, 5000)
    token = st.one_of(
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
        long_run.map(lambda n: "y" * n),
        st.from_regex(r"[0-9]{1,4}(\.[0-9]+)?([eE][0-9])?", fullmatch=True),
        long_run.map(lambda n: "9" * n),
        st.sampled_from(KEYWORDS + tuple(sorted(UNSUPPORTED_KEYWORDS))),
        st.sampled_from(PUNCTUATORS))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(prefix=st.sampled_from(PREFIXES), tokens=st.lists(token, max_size=30),
                      data=st.data())
    def parses_or_fails_briefly(prefix, tokens, data):
        text = prefix + " ".join(tokens)
        text = text[:data.draw(st.integers(0, len(text)))]
        try:
            parse(text)
        except ParseError as exc:
            assert len(exc.message) <= 120, exc.message

    parses_or_fails_briefly()


# Integer literals and the values that C gives them; tests/test_gcc.py has
# gcc check each value.
INT_LITERALS = [
    ("0", 0),
    ("7", 7),
    ("010", 8),
    ("0777", 511),
    ("000000000000000000000000001", 1),
    ("9007199254740993", 2**53 + 1),
    ("01777777777777777777777", 2**64 - 1),
    ("18446744073709551615", 2**64 - 1),
]


@pytest.mark.parametrize("literal,value", INT_LITERALS)
def test_integer_literal_is_its_c_value(literal, value):
    assign = parse(f"int main(){{ int x; x = {literal}; }}").functions[0].body[1]
    assert type(assign.value) is int and assign.value == value


@pytest.mark.parametrize("literal,value", [("1.0", 1.0), ("08.5", 8.5), ("010e1", 100.0),
                                           ("2E3", 2000.0)])
def test_literal_with_point_or_exponent_is_a_float(literal, value):
    assign = parse(f"int main(){{ float x; x = {literal}; }}").functions[0].body[1]
    assert type(assign.value) is float and assign.value == value


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("int main(){\n  goto L;\n}")
    assert exc.value.line == 2
    assert exc.value.col == 3


def test_comments_and_pragma_lines_skipped():
    text = """// leading comment
int main() { /* block
   spanning lines */
    int i;
#pragma acc kernels
    for (i = 0; i < 4; i++) { i = i; }
    return 0;
}
"""
    program = parse(text)
    tree = at.build_loop_tree(program)
    assert len(tree) == 1


# a '*' then backslash-newlines, each after optional blanks or '\r', then
# '/' closes a block comment, since C joins the lines first
@pytest.mark.parametrize("splice", ["\\\n", "\\  \n", "\\\r\n", "\\\n\\\t\n"],
                         ids=["plain", "blanks", "cr", "twice"])
def test_block_comment_closes_across_joined_lines(splice):
    tokens = tokenize(f"/* note *{splice}/ x /* end */ y")
    line = 1 + splice.count("\n")
    assert [(t.text, t.line, t.col) for t in tokens] == [
        ("x", line, 3), ("y", line, 15), ("", line, 16)]


def test_joined_star_without_slash_does_not_close_a_block_comment():
    tokens = tokenize("/* a *\\\nx */ y")
    assert [(t.text, t.line, t.col) for t in tokens] == [("y", 2, 6), ("", 2, 7)]


def test_source_text_retained_verbatim():
    text = "int main() {\n    return 0;\n}\n"
    assert parse(text).source_text == text


def test_statement_variety_roundtrip():
    text = """int compute(int n, float data[100]) {
    int i;
    int j;
    float total;
    double scale;
    scale = 0.5;
    total = 0.0;
    if (n > 0 && !(n >= 100)) {
        total = total + 1.0;
    } else {
        total = 0.0;
    }
    for (i = 0; i < n; i += 2) {
        data[i] = data[i] / 2.0 + 1.5e2;
    }
    j = 0;
    while (j < n) {
        j++;
    }
    do {
        j = j - 1;
    } while (j > 0);
    helper(data, n % 3);
    return total;
}
"""
    program = parse(text)
    fn = program.functions[0]
    assert fn.name == "compute"
    assert [p.name for p in fn.params] == ["n", "data"]
    assert [len(p.dims) for p in fn.params] == [0, 1]
    # a body is a list of statements and a call statement is its call
    kinds = [type(s).__name__ for s in fn.body]
    assert "If" in kinds and "CallExpr" in kinds and "Return" in kinds
    if_stmt = next(s for s in fn.body if isinstance(s, If))
    assert type(if_stmt.then_body) is list and type(if_stmt.else_body) is list
    # a loop statement is its LoopNode
    loops = [s for s in fn.body if isinstance(s, LoopNode)]
    assert [loop.kind for loop in loops] == ["for", "while", "dowhile"]
    # `j++` is read as `j += 1`, a name being its string and a literal its number
    assert loops[1].body == [Assign("j", "+=", 1)]


def test_multi_declarator_stays_flat():
    program = parse("int main(){int i, j, k; i = 0; j = i; k = j; { float a, b; }}")
    body = program.functions[0].body
    assert [d.name for d in body[:3]] == ["i", "j", "k"]
    assert all(isinstance(d, Decl) for d in body[:3])
    # a nested block is a list of its own, flat in the same way
    assert [d.name for d in body[-1]] == ["a", "b"]


def test_parse_determinism():
    text = "int main(){int i; for(i=0;i<9;i++){ i = i; }}"
    assert parse(text) == parse(text)


def test_reparse_stability():
    text = """int main() {
    int i;
    int j;
    for (i = 0; i < 5; i++) {
        while (j < 2) {
            j++;
        }
    }
    do { j = 0; } while (j > 0);
    return 0;
}
"""
    program = parse(text)
    tree_a = at.build_loop_tree(program)
    tree_b = at.build_loop_tree(parse(program.source_text))
    assert tree_a == tree_b
