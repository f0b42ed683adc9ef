"""Tests of the benchmark's generator and output checks.

    python3 -m pytest bench -q

acctuner (from src/) only produces the outputs under test here; the
checks themselves never call it.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import gen_large  # noqa: E402
import run  # noqa: E402
from acctuner import (  # noqa: E402
    build_genome_map,
    build_loop_tree,
    check_all_parallelizable,
    emit_annotated,
    extract_accesses,
    load_cost_model,
    load_profile,
    parse,
    plan_transfers,
    simulate_time,
)
from acctuner.loops import DEFINE, REF, SET  # noqa: E402


class Program:
    def __init__(self, source: str):
        self.program = parse(source)
        self.tree = build_loop_tree(self.program)
        self.accesses = extract_accesses(self.program)
        self.verdicts = check_all_parallelizable(self.tree, self.accesses)
        self.genome_map = build_genome_map(self.verdicts)

    def output(self, genome: str) -> tuple[dict, str]:
        plan = plan_transfers(self.program, self.tree, self.accesses, genome, self.genome_map)
        text = emit_annotated(self.program, self.tree, genome, self.genome_map, plan).text
        report = {"genome_map": list(self.genome_map.loop_ids),
                  "best": {"genome": genome, "seconds": 1.0}}
        return report, text


@pytest.fixture(scope="module")
def large():
    data = gen_large.generate(3)
    return data, Program(data["source"])


def valid_genome(record: dict, genome_map, rng: random.Random) -> str:
    """A random genome with no selected pair nested."""
    loops = record["loops"]
    while True:
        genome = "".join(rng.choice("01") for _ in genome_map.loop_ids)
        chosen = set(checks.selected_loops(genome, list(genome_map.loop_ids)))
        if not any(set(checks.ancestors(loops, c)) & chosen for c in chosen):
            return genome


def test_record_matches_the_source_scan():
    data = gen_large.generate(5)
    scanned = checks.scan_loops(data["source"])
    assert scanned == [{"line": loop["line"], "parent": loop["parent"]}
                       for loop in data["record"]["loops"]]


def test_record_matches_what_acctuner_sees(large):
    data, prog = large
    record = data["record"]
    assert [v.eligible for v in prog.verdicts] == [loop["eligible"] for loop in record["loops"]]
    kinds = {REF: "ref", SET: "set", DEFINE: "define"}
    own: dict = {}
    outside: dict = {}
    for a in prog.accesses:
        site = (own.setdefault(a.loop_path[-1], {k: set() for k in kinds.values()})
                if a.loop_path else
                outside.setdefault(a.function, {k: set() for k in kinds.values()}))
        site[kinds[a.kind]].add(a.var)
    for loop in record["loops"]:
        assert own[loop["id"]] == {k: set(loop[k]) for k in kinds.values()}
    assert outside == {f: {k: set(v) for k, v in s.items()}
                       for f, s in record["outside"].items()}
    assert len(prog.tree) == 315


def test_generator_is_seeded():
    assert gen_large.generate(7) == gen_large.generate(7)
    assert gen_large.generate(7)["source"] != gen_large.generate(8)["source"]


def test_checks_pass_on_real_outputs(large):
    data, prog = large
    record = data["record"]
    loops = checks.scan_loops(data["source"])
    rng = random.Random(0)
    for _ in range(3):
        report, text = prog.output(valid_genome(record, prog.genome_map, rng))
        assert checks.check_roundtrip(text, data["source"]) == []
        assert checks.check_genome_map(
            report, [l["id"] for l in record["loops"] if l["eligible"]]) == []
        assert checks.check_best(report, text, loops) == []
        assert checks.check_transfers(report, text, record) == []
    assert "#pragma acc data" in text


def test_a_changed_byte_is_rejected(large):
    data, prog = large
    report, text = prog.output(valid_genome(data["record"], prog.genome_map, random.Random(1)))
    at = text.index("= 1.0;")
    corrupted = text[:at] + "= 2.0;" + text[at + len("= 1.0;"):]
    assert checks.check_roundtrip(corrupted, data["source"])


def test_a_dropped_directive_is_rejected(large):
    data, prog = large
    record = data["record"]
    report, text = prog.output(valid_genome(record, prog.genome_map, random.Random(2)))
    lines = text.splitlines(keepends=True)
    data_lines = [i for i, line in enumerate(lines) if "#pragma acc data" in line]
    assert data_lines
    for i in data_lines[:5]:
        corrupted = "".join(lines[:i] + lines[i + 1:])
        assert checks.check_transfers(report, corrupted, record)
    # dropping one variable from one clause is caught as well
    i = data_lines[0]
    clause, names = checks.CLAUSE.findall(lines[i])[0]
    kept = ",".join(names.split(",")[1:])
    shrunk = lines[i].replace(f"{clause}({names})", f"{clause}({kept})" if kept else "")
    assert checks.check_transfers(report, "".join(lines[:i] + [shrunk] + lines[i + 1:]), record)


def test_a_dropped_kernels_line_is_rejected(large):
    data, prog = large
    report, text = prog.output(valid_genome(data["record"], prog.genome_map, random.Random(3)))
    loops = checks.scan_loops(data["source"])
    at = text.index(checks.KERNELS)
    dropped = text[:at] + text[text.index("\n", at) + 1:]
    assert checks.check_best(report, dropped, loops)
    doubled = text[:at] + checks.KERNELS + "\n" + text[at:]
    assert checks.check_best(report, doubled, loops)


def test_a_nested_selection_is_rejected(large):
    data, prog = large
    loops = checks.scan_loops(data["source"])
    genome_map = list(prog.genome_map.loop_ids)
    inner = next(i for i, loop in enumerate(loops)
                 if loop["parent"] in genome_map and i in genome_map)
    outer = loops[inner]["parent"]
    genome = "".join("1" if loop in (inner, outer) else "0" for loop in genome_map)
    # annotate both loops by hand: the emitter refuses nested genomes
    lines = data["source"].splitlines(keepends=True)
    for loop in sorted((inner, outer), reverse=True):
        lines.insert(loops[loop]["line"] - 1, checks.KERNELS + "\n")
    report = {"genome_map": genome_map, "best": {"genome": genome, "seconds": 1.0}}
    errors = checks.check_best(report, "".join(lines), loops)
    assert any("nests inside" in e for e in errors)


def test_a_wrong_genome_map_is_rejected():
    assert checks.check_genome_map({"genome_map": [0, 1, 2]}, [0, 1, 2]) == []
    assert checks.check_genome_map({"genome_map": [0, 1]}, [0, 1, 2])


def test_stress75_closed_form_matches_the_simulator_and_rejects_a_change():
    inputs = BENCH / "inputs"
    source = (inputs / "stress75.c").read_text()
    prog = Program(source)
    eligible = [slot for slot in range(90) if slot % 6 != 5]
    assert list(prog.genome_map.loop_ids) == eligible
    costs = checks.stress75_costs(json.loads((inputs / "stress75_profile.json").read_text()),
                                  json.loads((inputs / "stress75_model.json").read_text()),
                                  eligible)
    model = load_cost_model(inputs / "stress75_model.json")
    profile = load_profile(inputs / "stress75_profile.json", prog.tree)
    rng = random.Random(4)
    for _ in range(5):
        genome = "".join(rng.choice("01") for _ in eligible)
        plan = plan_transfers(prog.program, prog.tree, prog.accesses, genome, prog.genome_map)
        seconds = simulate_time(model, genome, prog.genome_map, prog.tree, profile, plan).seconds
        report = {"genome_map": eligible, "best": {"genome": genome, "seconds": seconds}}
        assert checks.check_stress75_seconds(report, costs) == []
        report["best"]["seconds"] = seconds * (1 + 1e-6)
        assert checks.check_stress75_seconds(report, costs)
    optimum, cpu_only = checks.stress75_bounds(costs)
    assert optimum < cpu_only
    report = {"genome_map": eligible, "best": {"genome": "0" * 75, "seconds": cpu_only}}
    assert checks.check_stress75_seconds(report, costs) == []


def test_differing_reports_for_one_seed_are_rejected():
    def tune(seed, report):
        return run.Tune(seed, {}, True, [], report)
    assert run.determinism_errors([tune(1, b"a"), tune(2, b"b"), tune(1, b"a")]) == []
    assert run.determinism_errors([tune(1, b"a"), tune(1, b"b")])
