import json
import re

import pytest

import acctuner as at
from acctuner.emitter import emit_annotated, kernels_only_annotation, strip_annotations
from acctuner.errors import InvalidGenome, PlanMismatch
from acctuner.transfer import DataDirective, TransferPlan, plan_transfers

from conftest import FIXTURES, analyze

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
    assert strip_annotations(annotated) == source


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
    assert annotated.inserted_lines == ()


def test_directive_line_format():
    source = (GOLDEN / "copyinout.c").read_text()
    _, annotated = annotate("copyinout")
    contents = [ins.content.lstrip() for ins in annotated.inserted_lines]
    assert contents == ["#pragma acc data copyin(b) copyout(a)",
                        "#pragma acc kernels"]


def test_indentation_copied_from_target_line():
    text = "int main() {\n    int i;\n    if (1 > 0) {\n" \
        "        for (i = 0; i < 4; i++) { i = i; }\n    }\n}\n"
    program, tree, accesses = analyze(text)
    gm = at.GenomeMap((0,))
    annotated = emit_annotated(program, tree, "1", gm, TransferPlan(()))
    pragma_lines = [ins.content for ins in annotated.inserted_lines]
    assert pragma_lines == ["        #pragma acc kernels"]


@pytest.mark.parametrize("stem", GOLDEN_STEMS)
def test_reparse_safety(stem):
    source, annotated = annotate(stem)
    original_tree = at.build_loop_tree(at.parse(source))
    reparsed_tree = at.build_loop_tree(at.parse(annotated.text))
    def shape(tree):
        return [(n.loop_id, n.kind, n.parent, n.function, n.counter)
                for n in tree.nodes]
    assert shape(reparsed_tree) == shape(original_tree)


def test_plan_mismatch_detected():
    program, tree, accesses = analyze(
        "int main(){int i; float a[4]; for(i=0;i<4;i++){ a[i] = 1.0; }}")
    gm = at.GenomeMap((0,))
    bogus = TransferPlan((DataDirective(7, "copyin", ("a",), 0),))
    with pytest.raises(PlanMismatch):
        emit_annotated(program, tree, "1", gm, bogus)


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


def test_inserted_lines_positions_match_text():
    _, annotated = annotate("hoist")
    lines = annotated.text.splitlines()
    for ins in annotated.inserted_lines:
        assert lines[ins.line_no - 1] == ins.content


def test_source_without_trailing_newline():
    text = ("int main(){int i;\n"
            "for(i=0;i<4;i++){ i = i; }\n"
            "return 0;}")
    program, tree, accesses = analyze(text)
    gm = at.GenomeMap((0,))
    annotated = emit_annotated(program, tree, "1", gm, TransferPlan(()))
    assert strip_annotations(annotated) == text
    assert "#pragma acc kernels\n" in annotated.text


@pytest.mark.parametrize("golden", sorted((FIXTURES / "outputs").glob("plans_*.jsonl")),
                         ids=lambda path: path.stem)
def test_data_line_names_each_variable_once(golden):
    # OpenACC allows a variable in one data clause per construct
    stem = golden.stem.removeprefix("plans_")
    directory = "stress" if stem == "stress75" else "tune"
    program, tree, accesses = analyze((FIXTURES / directory / f"{stem}.c").read_text())
    gm = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    data_lines = 0
    for line in golden.read_text().splitlines():
        record = json.loads(line)
        plan = TransferPlan(tuple(
            DataDirective(d["target_loop"], d["clause"], tuple(d["vars"]), d["origin_region"])
            for d in record["directives"]))
        annotated = emit_annotated(program, tree, record["genome"], gm, plan)
        for inserted in annotated.inserted_lines:
            if inserted.content.lstrip().startswith("#pragma acc data "):
                names = re.findall(r"[A-Za-z_]\w*(?=[,)])", inserted.content)
                assert len(names) == len(set(names)), (record["genome"], inserted.content)
                data_lines += 1
    assert data_lines > 0
