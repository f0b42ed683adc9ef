import json
import re

import pytest

import acctuner as at
from acctuner.emitter import emit_annotated, kernels_only_annotation
from acctuner.errors import InvalidGenome
from acctuner.parser import tokenize
from acctuner.transfer import CLAUSE_ORDER, DataDirective, TransferPlan, plan_transfers

import lowering_family
from conftest import FIXTURES, analyze, is_pragma, strip_pragmas

GOLDEN = FIXTURES / "golden"
GOLDEN_STEMS = ("copyinout", "hoist", "copymerge")


def annotate(stem):
    source = (GOLDEN / f"{stem}.c").read_text()
    program, tree, accesses = analyze(source)
    gm = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    bits = "1" * len(gm)
    plan = plan_transfers(program, tree, accesses, bits, gm)
    return source, emit_annotated(program, tree, bits, gm, plan)


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_golden_files_byte_identical(stem):
    _, annotated = annotate(stem)
    expected = (GOLDEN / f"{stem}_expected.c").read_text()
    assert annotated.text == expected


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_strip_recovers_input(stem):
    source, annotated = annotate(stem)
    assert strip_pragmas(annotated.text) == source


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_emission_idempotent(stem):
    _, first = annotate(stem)
    _, second = annotate(stem)
    assert first == second


def test_all_zero_genome_is_identity():
    source = (GOLDEN / "hoist.c").read_text()
    program, tree, accesses = analyze(source)
    gm = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    bits = "0" * len(gm)
    plan = plan_transfers(program, tree, accesses, bits, gm)
    annotated = emit_annotated(program, tree, bits, gm, plan)
    assert annotated.text == source


def test_directive_line_format():
    source = (GOLDEN / "copyinout.c").read_text()
    _, annotated = annotate("copyinout")
    contents = [line.lstrip() for line in annotated.text.split("\n") if is_pragma(line)]
    assert contents == ["#pragma acc data copyin(b) copyout(a)",
                        "#pragma acc kernels"]


def test_indentation_copied_from_target_line():
    text = "int main() {\n    int i;\n    if (1 > 0) {\n" \
        "        for (i = 0; i < 4; i++) { i = i; }\n    }\n}\n"
    program, tree, accesses = analyze(text)
    gm = at.GenomeMap((0,))
    annotated = emit_annotated(program, tree, "1", gm, TransferPlan(()))
    pragma_lines = [line for line in annotated.text.split("\n") if is_pragma(line)]
    assert pragma_lines == ["        #pragma acc kernels"]


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_reparse_safety(stem):
    source, annotated = annotate(stem)
    original_tree = at.build_loop_tree(at.parse(source))
    reparsed_tree = at.build_loop_tree(at.parse(annotated.text))
    def shape(tree):
        return [(n.loop_id, n.kind, n.ancestors, n.function, n.counter)
                for n in tree]
    assert shape(reparsed_tree) == shape(original_tree)


def test_invalid_genome_rejected():
    text = ("int main(){int i; int j; float m[4][4];"
            " for(i=0;i<4;i++){ for(j=0;j<4;j++){ m[i][j] = 1.0; }}}")
    program, tree, accesses = analyze(text)
    gm = at.GenomeMap((0, 1))
    with pytest.raises(InvalidGenome):
        emit_annotated(program, tree, "11", gm, TransferPlan(()))


def test_kernels_only_probe_single_line_diff():
    source = (GOLDEN / "hoist.c").read_text()
    program, tree, _ = analyze(source)
    probe = kernels_only_annotation(program, tree, 1)
    original = source.splitlines()
    probed = probe.splitlines()
    assert len(probed) == len(original) + 1
    added = set(probed) - set(original)
    assert len(added) == 1
    assert next(iter(added)).strip() == "#pragma acc kernels"


def test_source_without_trailing_newline():
    text = ("int main(){int i;\n"
            "for(i=0;i<4;i++){ i = i; }\n"
            "return 0;}")
    program, tree, accesses = analyze(text)
    gm = at.GenomeMap((0,))
    annotated = emit_annotated(program, tree, "1", gm, TransferPlan(()))
    assert strip_pragmas(annotated.text) == text
    assert "#pragma acc kernels\n" in annotated.text


def plan_of(record):
    return TransferPlan(tuple(
        DataDirective(d["target_loop"], d["clause"], tuple(d["vars"]), d["origin_region"])
        for d in record["directives"]))


def selected_loops(genome, genome_map):
    return {loop for bit, loop in zip(genome, genome_map.loop_ids) if bit == "1"}


def assert_placed(source, text, plan, selected):
    """Placement read from the text alone: the text tokenizes as the source
    does and, re-parsed, each loop that got directives starts its line and
    has exactly its directive lines just above it."""
    def stream(text):
        return [(token.kind, token.text) for token in tokenize(text)]
    assert stream(text) == stream(source)
    by_target = {}
    for d in plan.directives:
        by_target.setdefault(d.target_loop, {}).setdefault(d.clause, set()).update(d.vars)
    lines = text.split("\n")
    tree = at.build_loop_tree(at.parse(text))
    expected_count = 0
    for loop_id in set(by_target) | selected:
        clauses = by_target.get(loop_id, {})
        data = " ".join(f"{clause}({','.join(sorted(clauses[clause]))})"
                        for clause in CLAUSE_ORDER if clause in clauses)
        expected = ([f"#pragma acc data {data}"] if data else []) + \
            (["#pragma acc kernels"] if loop_id in selected else [])
        line, col = tree[loop_id].header_pos
        assert lines[line - 1][:col - 1].strip(" \t") == "", (loop_id, lines[line - 1])
        above = lines[max(line - 1 - len(expected), 0):line - 1]
        assert [pragma.strip() for pragma in above] == expected, loop_id
        expected_count += len(expected)
    assert sum(map(is_pragma, lines)) == expected_count


@pytest.mark.parametrize("golden", sorted((FIXTURES / "outputs").glob("plans_*.jsonl")),
                         ids=lambda path: path.stem)
def test_data_line_names_each_variable_once(golden):
    # OpenACC allows a variable in one data clause per construct
    stem = golden.stem.removeprefix("plans_")
    directory = "stress" if stem == "stress75" else "tune"
    source = (FIXTURES / directory / f"{stem}.c").read_text()
    program, tree, accesses = analyze(source)
    gm = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    data_lines = 0
    for line in golden.read_text().splitlines():
        record = json.loads(line)
        plan = plan_of(record)
        annotated = emit_annotated(program, tree, record["genome"], gm, plan)
        assert_placed(source, annotated.text, plan, selected_loops(record["genome"], gm))
        for text_line in annotated.text.split("\n"):
            if text_line.lstrip().startswith("#pragma acc data "):
                names = re.findall(r"[A-Za-z_]\w*(?=[,)])", text_line)
                assert len(names) == len(set(names)), (record["genome"], text_line)
                data_lines += 1
    assert data_lines > 0


def test_lowering_family_plans_are_placed():
    lines = (FIXTURES / "outputs" / "lowering_family_plans.jsonl").read_text().splitlines()
    programs = {seed: lowering_family.analyze(seed) for seed in lowering_family.SEEDS}
    for line in lines:
        record = json.loads(line)
        program, tree, _, gm = programs[record["seed"]]
        plan = plan_of(record)
        annotated = emit_annotated(program, tree, record["genome"], gm, plan)
        assert_placed(program.source_text, annotated.text, plan,
                      selected_loops(record["genome"], gm))


# Lines end only at '\n', as the tokenizer counts them, and a comment that
# ends in a backslash runs on over the next line, as does a block comment's
# closing '*' before one; a loop that follows other code on its line gets a
# line of its own.
PLACEMENT_PROGRAMS = {
    "joined_comment": "int main(){int i; float a[4];\n// first \\\nsecond\n"
                      "for(i=0;i<4;i++){ a[i] = 1.0; }\nreturn 0;}\n",
    "form_feed": "int main(){int i; float a[4];\n// page\x0cbreak\n"
                 "for(i=0;i<4;i++){ a[i] = 1.0; }\nreturn 0;}\n",
    "lone_cr": "int main(){int i;\rfloat a[4];\n"
               "for(i=0;i<4;i++){ a[i] = 1.0; }\nreturn 0;}\n",
    "shared_line": "int main(){int i; int j; float m[4][4];\n"
                   "  for(i=0;i<4;i++){ for(j=0;j<4;j++){ m[i][j] = 1.0; } }\n"
                   "  m[0][0] = 2.0; for(i=0;i<4;i++){ m[i][0] = 3.0; }\n"
                   "return 0;}\n",
    "spliced_comment_end": "int main() { int i; float a[8]; /* note *\\\n"
                           "/ for (i = 0; i < 8; i++) { a[i] = 1.0; } /* end */ return 0; }\n",
}


@pytest.mark.parametrize("name", PLACEMENT_PROGRAMS)
def test_directives_placed_before_their_loops(name):
    source = PLACEMENT_PROGRAMS[name]
    program, tree, accesses = analyze(source)
    gm = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    assert len(gm) > 0
    for k in range(1, 2 ** len(gm)):
        bits = format(k, f"0{len(gm)}b")
        if at.check_genome_valid(bits, gm, tree):
            plan = plan_transfers(program, tree, accesses, bits, gm)
            annotated = emit_annotated(program, tree, bits, gm, plan)
            assert_placed(source, annotated.text, plan, selected_loops(bits, gm))
    for node in tree:
        probe = kernels_only_annotation(program, tree, node.loop_id)
        assert_placed(source, probe, TransferPlan(()), {node.loop_id})


def test_code_before_a_loop_keeps_its_bytes():
    source = PLACEMENT_PROGRAMS["shared_line"]
    program, tree, _ = analyze(source)
    probe = kernels_only_annotation(program, tree, 2)
    assert probe == source.replace(
        "  m[0][0] = 2.0; for", "  m[0][0] = 2.0; \n  #pragma acc kernels\n  for")


def test_split_line_takes_the_loops_line_end():
    source = PLACEMENT_PROGRAMS["shared_line"].replace("\n", "\r\n")
    program, tree, _ = analyze(source)
    probe = kernels_only_annotation(program, tree, 2)
    assert probe == source.replace(
        "  m[0][0] = 2.0; for", "  m[0][0] = 2.0; \r\n  #pragma acc kernels\r\n  for")


@pytest.mark.parametrize("before", ["\r\n", "\n", ""], ids=["crlf", "lf", "one_line"])
def test_loop_on_an_unterminated_last_line_takes_the_line_end_before_it(before):
    source = ("int main(){int i; float a[4];" + before
              + "for(i=0;i<4;i++){ a[i] = 1.0; } return 0;}")
    program, tree, accesses = analyze(source)
    genome_map = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    plan = at.plan_transfers(program, tree, accesses, "1", genome_map)
    text = at.emit_annotated(program, tree, "1", genome_map, plan).text
    end = before or "\n"
    head, loop = source.split("for(", 1)
    if not before:      # the code before the loop gets a line of its own
        head += end
    assert text == (head + "#pragma acc data copyout(a)" + end
                    + "#pragma acc kernels" + end + "for(" + loop)
