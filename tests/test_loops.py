import re

import pytest

from acctuner.loops import DEFINE, REF, SET, If, LoopNode
from acctuner.parser import parse

from conftest import FIXTURES, analyze, bench_module, gen_large_record
from test_golden import EDGE_SOURCES, frontend_sources


def accesses_of(accesses, var):
    return [(a.kind, a.loop_path) for a in accesses if a.var == var]


def test_sibling_loops_numbered_in_order():
    _, tree, _ = analyze(
        "int main(){int i; int j;"
        " for(i=0;i<3;i++){} for(j=0;j<3;j++){} }")
    assert [(n.loop_id, n.ancestors) for n in tree] == [(0, ()), (1, ())]


def test_nested_loops_parent_links():
    _, tree, _ = analyze(
        "int main(){int i; int j; for(i=0;i<3;i++){ for(j=0;j<3;j++){} }}")
    assert tree[0].ancestors == ()
    assert tree[1].ancestors == (0,)


def test_early_exit_marks_enclosing_loops():
    _, tree, _ = analyze(
        "int main(){int i; int j; int k;"
        " for(i=0;i<3;i++){ for(j=0;j<3;j++){ if (j > i) { return j; } } }"
        " for(k=0;k<3;k++){ if (k > 1) { k = 0; } else { return k; } }"
        " while(k < 3){ k++; } return 0;}")
    assert [n.early_exit for n in tree] == [True, True, True, False]


def test_while_wrapping_for_numbering():
    _, tree, _ = analyze(
        "int main(){int c; int i; c = 1;"
        " while(c < 10){ for(i=0;i<3;i++){} c = c + 1; }}")
    assert tree[0].kind == "while"
    assert tree[0].counter is None
    assert tree[1].kind == "for"
    assert tree[1].ancestors == (0,)


def test_preorder_matches_textual_order():
    text = """int main() {
    int a; int b; int c; int d;
    for (a = 0; a < 2; a++) {
        for (b = 0; b < 2; b++) { b = b; }
        for (c = 0; c < 2; c++) { c = c; }
    }
    while (d < 2) { d = d + 1; }
}
"""
    _, tree, _ = analyze(text)
    positions = [(n.header_pos.line, n.header_pos.col) for n in tree]
    assert positions == sorted(positions)
    assert [n.loop_id for n in tree] == [0, 1, 2, 3]


def loop_statements(body: list):
    """The loop statements of a body in pre-order, walking into loop, if and
    else bodies and nested blocks."""
    for stmt in body:
        if type(stmt) is list:
            yield from loop_statements(stmt)
        elif isinstance(stmt, If):
            yield from loop_statements(stmt.then_body)
            yield from loop_statements(stmt.else_body or [])
        elif isinstance(stmt, LoopNode):
            yield stmt
            yield from loop_statements(stmt.body)


FRONTEND_SOURCES = frontend_sources()


@pytest.mark.parametrize("name", sorted(FRONTEND_SOURCES))
def test_each_loop_statement_is_its_tree_entry(name):
    program = parse(FRONTEND_SOURCES[name])
    found = [loop for fn in program.functions for loop in loop_statements(fn.body)]
    assert len(found) == len(program.loop_nodes)
    assert all(a is b for a, b in zip(found, program.loop_nodes))


def test_canonical_flags():
    text = """int main() {
    int i; int j; int k; int m; int n;
    for (i = 0; i < 10; i++) {}
    for (j = 0; j <= 10; j += 2) {}
    for (k = 10; k > 0; k--) {}
    for (m = 0; m < 10; m = m * 2) {}
    while (n < 3) { n = n + 1; }
}
"""
    _, tree, _ = analyze(text)
    assert [n.counter for n in tree] == ["i", "j", None, None, None]


def test_array_assignment_classification():
    _, _, accesses = analyze(
        "int main(){int i; int a[10]; int b[10];"
        " for(i=0;i<10;i++){ a[i] = b[i] + 1; }}")
    in_loop = [a for a in accesses if a.loop_path == (0,) and a.header_of is None]
    as_pairs = [(a.var, a.kind) for a in in_loop]
    assert as_pairs.count(("a", SET)) == 1
    assert as_pairs.count(("b", REF)) == 1
    assert as_pairs.count(("i", REF)) == 2
    assert ("a", REF) not in as_pairs


def test_define_outside_loops():
    _, _, accesses = analyze("int main(){int x;}")
    assert accesses_of(accesses, "x") == [(DEFINE, ())]


def test_compound_assignment_set_and_ref():
    _, _, accesses = analyze(
        "int main(){int i; int s; int a[10]; s = 0;"
        " for(i=0;i<10;i++){ s += a[i]; }}")
    in_loop = [(a.var, a.kind) for a in accesses
               if a.loop_path == (0,) and a.header_of is None]
    assert (("s", SET) in in_loop) and (("s", REF) in in_loop)
    assert ("a", REF) in in_loop and ("i", REF) in in_loop
    s_set = [a for a in accesses if a.var == "s" and a.kind == SET and a.loop_path]
    s_ref = [a for a in accesses if a.var == "s" and a.kind == REF and a.loop_path]
    assert s_set[0].pos == s_ref[0].pos


def test_header_accesses_tagged():
    _, _, accesses = analyze("int main(){int i; for(i=0;i<10;i++){ i = i; }}")
    header = [a for a in accesses if a.header_of == 0]
    body = [a for a in accesses if a.loop_path == (0,) and a.header_of is None]
    assert {a.kind for a in header} == {SET, REF}
    assert len(body) == 2   # i = i
    assert all(a.loop_path == (0,) for a in header)


def test_loop_path_matches_ancestor_chain():
    text = """int main() {
    int i; int j; int k; int a[10];
    for (i = 0; i < 2; i++) {
        for (j = 0; j < 2; j++) {
            a[j] = 1;
        }
    }
    for (k = 0; k < 2; k++) { a[k] = 2; }
}
"""
    _, tree, accesses = analyze(text)
    for access in accesses:
        if not access.loop_path:
            continue
        innermost = access.loop_path[-1]
        chain = tuple(reversed(tree[innermost].ancestors)) + (innermost,)
        assert access.loop_path == chain


def test_array_call_argument_marked_set_and_ref():
    _, _, accesses = analyze(
        "int main(){float buf[8]; int n; n = 8; process(buf, n);}")
    buf = [(a.kind, a.is_array) for a in accesses if a.var == "buf"]
    assert (REF, True) in buf and (SET, True) in buf
    n_kinds = {a.kind for a in accesses if a.var == "n"}
    assert SET in n_kinds and REF in n_kinds and DEFINE in n_kinds


def test_index_normalization():
    _, _, accesses = analyze(
        "int main(){int i; int a[10];"
        " for(i=1;i<8;i++){ a[i] = a[i-1] + a[i+1] + a[0] + a[2 + i]; }}")
    refs = [a.indices for a in accesses
            if a.var == "a" and a.kind == REF and a.loop_path]
    assert (("i", -1),) in refs
    assert (("i", 1),) in refs
    assert (("i", 2),) in refs
    assert ((None, 0),) in refs
    sets = [a.indices for a in accesses if a.var == "a" and a.kind == SET]
    assert sets == [(("i", 0),)]


def test_unanalyzable_index_is_none_dim():
    _, _, accesses = analyze(
        "int main(){int i; int a[10]; for(i=0;i<5;i++){ a[i*2] = 1; }}")
    sets = [a.indices for a in accesses if a.var == "a" and a.kind == SET]
    assert sets == [(None,)]


def test_two_dimensional_indices():
    _, _, accesses = analyze(
        "int main(){int i; int j; float m[4][4];"
        " for(i=0;i<4;i++){ for(j=0;j<4;j++){ m[i][j] = m[i-1][j] * 2.0; }}}")
    m_sets = [a.indices for a in accesses if a.var == "m" and a.kind == SET]
    m_refs = [a.indices for a in accesses
              if a.var == "m" and a.kind == REF and a.loop_path]
    assert m_sets == [(("i", 0), ("j", 0))]
    assert (("i", -1), ("j", 0)) in m_refs


def test_block_scoping_of_declarations():
    text = """int main() {
    int i;
    for (i = 0; i < 4; i++) {
        float tmp[4];
        tmp[0] = 1.0;
    }
    return 0;
}
"""
    _, _, accesses = analyze(text)
    tmp = [(a.kind, a.loop_path) for a in accesses if a.var == "tmp"]
    assert (DEFINE, (0,)) in tmp
    assert all(path == (0,) for _, path in tmp)


def test_inner_block_declaration_shadows_until_the_block_ends():
    text = """int main() {
    float a[10];
    {
        float a;
        f(a);
    }
    f(a);
    return 0;
}
"""
    _, _, accesses = analyze(text)
    calls = [(a.pos.line, a.kind, a.is_array) for a in accesses
             if a.var == "a" and a.kind != DEFINE]
    assert calls == [(5, REF, False), (7, REF, True), (7, SET, True)]


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.c")), ids=lambda p: p.name)
def test_header_access_belongs_to_innermost_loop(path):
    # the oracle and the planner read `header_of is not None` as "a counter
    # of a loop inside this one", which needs this to hold
    _, _, accesses = analyze(path.read_text())
    assert all(a.header_of is None or a.header_of == a.loop_path[-1] for a in accesses)


# a loop of each kind under CRLF line ends and tabs, which count as one column
CRLF_TAB_LOOPS = ("int main()\r\n{\r\n\tint i; float a[4];\r\n\ti = 0;\r\n"
                  "\tfor (i = 0;\ti < 4; i++)\r\n\t{\r\n\t\ta[i] = i;\r\n\t}\r\n"
                  "\twhile (i > 0) { i = i - 1; }\r\n\tdo\t{ i = i + 1; } while (i < 2);\r\n"
                  "\treturn 0;\r\n}\r\n")


POSITION_SOURCES = {
    **{str(path.relative_to(FIXTURES)): path.read_text() for path in FIXTURES.rglob("*.c")},
    "edge:crlf_tabs": EDGE_SOURCES["crlf_tabs"],
    "crlf_tab_loops": CRLF_TAB_LOOPS,
}


@pytest.mark.parametrize("name", sorted(POSITION_SOURCES))
def test_positions_point_at_their_tokens(name):
    text = POSITION_SOURCES[name]
    lines = text.split("\n")

    def at(pos, word):
        # the word starts at (line, col), both 1-based, and ends there
        return re.match(rf"{re.escape(word)}(?!\w)", lines[pos.line - 1][pos.col - 1:])

    _, tree, accesses = analyze(text)
    keyword = {"for": "for", "while": "while", "dowhile": "do"}
    for node in tree:
        assert at(node.header_pos, keyword[node.kind]), (node.loop_id, node.header_pos)
    for access in accesses:
        assert at(access.pos, access.var), (access.var, access.pos)
    assert accesses


BENCH = FIXTURES.parents[1] / "bench"
# every .c under tests/fixtures/ and bench/inputs/, gen_large seeds 1-3 and
# the edge program that hits each access-order rule
RUN_SOURCES = [*(path.relative_to(BENCH.parent).as_posix()
                 for path in [*sorted(FIXTURES.rglob("*.c")), *sorted((BENCH / "inputs").glob("*.c"))]),
               *(f"gen_large:{seed}" for seed in (1, 2, 3)), "edge:access_order"]


# the parent of each loop of the edge program, by hand
ACCESS_ORDER_PARENTS = [None, None, None, None, None, None, None, 6, None]


def run_source(name: str) -> tuple[str, list[int | None]]:
    """The source and a record of each loop's parent made apart from
    acctuner: the generator's own for gen_large, a brace count
    (bench/checks.scan_loops) for a file."""
    kind, _, rest = name.partition(":")
    if kind == "edge":
        return EDGE_SOURCES[rest], ACCESS_ORDER_PARENTS
    if kind == "gen_large":
        record = gen_large_record(int(rest))
        return record["source"], [loop["parent"] for loop in record["record"]["loops"]]
    text = (BENCH.parent / name).read_text()
    loops = bench_module("checks").scan_loops(text)
    return text, [loop["parent"] for loop in loops]


@pytest.mark.parametrize("name", RUN_SOURCES)
def test_each_loop_records_its_ancestors_and_its_run_of_accesses(name):
    text, parents = run_source(name)
    _, tree, accesses = analyze(text)
    assert tree and len(tree) == len(parents)
    for node in tree:
        chain, parent = [], parents[node.loop_id]
        while parent is not None:
            chain.append(parent)
            parent = parents[parent]
        assert node.ancestors == tuple(chain), node.loop_id
        run = accesses[node.access_start:node.access_stop]
        inside = [a for a in accesses if node.loop_id in a.loop_path]
        assert len(run) == len(inside) and all(a is b for a, b in zip(run, inside)), node.loop_id
