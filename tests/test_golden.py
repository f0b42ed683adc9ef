"""Byte-for-byte comparison of CLI output against checked-in goldens.

Covers the `tune` report and annotated source of every tuning fixture at
seeds 1-3 (default GA) and of stress75 at seed 1 with 5 generations, the
three reports that stop before emission (gate reject, no offloadable loops,
no valid genome evaluated), the stdout of `gate`, `check` and
`plan-transfers` on mix10, of `analyze` on mix10 and deep3, of
`plan-transfers` on synergy5 (genome 11000, whose merged copy(a,b) is
hoisted to loop 0), and of `check` on stress75.

It pins the front end: the sha256 of `repr(tokenize(text))`, of
`repr(parse(text))` and of the repr of that program's loop tree and access
list, for every `.c` under tests/fixtures/ and for a few written edge-case
programs, in `frontend.json`.

It also pins, per genome, the transfer plan and the simulated seconds:
every valid genome of the small fixtures and a seeded random sample of
valid genomes of mix10 and stress75, one compact JSON line per genome in
`plans_<fixture>.jsonl`, and the plan of every genome of the lowering
family (tests/lowering_family.py) in `lowering_family_plans.jsonl`.

Each command runs from inside its input directory with relative paths, so
the config.source, config.profile and config.evaluator fields of a report
are the same on every machine.  After an intended output change, rewrite
the goldens from the repository root with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each golden file, whether its bytes changed, and for
`frontend.json` how many sources had each kind of digest change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest

import lowering_family
from acctuner.analysis import build_genome_map, check_all_parallelizable, load_profile
from acctuner.cli import main
from acctuner.evaluation import load_cost_model, simulate_time
from acctuner.loops import build_loop_tree, extract_accesses
from acctuner.parser import parse, tokenize
from acctuner.pipeline import load_program
from acctuner.transfer import check_genome_valid, plan_transfers

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "outputs"
TUNE_FIXTURES = ("siblings3", "nested3", "synergy5", "deep3", "mix10")
# fixture -> number of seeded random valid genomes, or None for every valid one
PLAN_SAMPLES = {"siblings3": None, "nested3": None, "deep3": None,
                "synergy5": None, "mix10": 64, "stress75": 16}

NEST = ("int main(){int i; int j; float m[10][10]; float b[10][10];\n"
        "for(i=0;i<10;i++){ for(j=0;j<10;j++){ m[i][j] = b[i][j]; }}\n"
        "m[0][0] = 1.0;\n"
        "return 0;}\n")
NEST_PROFILE = {"loops": [
    {"id": 0, "entry_count": 1, "total_iterations": 10_000_000},
    {"id": 1, "entry_count": 10, "total_iterations": 10_000_000},
]}
NEST_MODEL = {
    "loops": {"0": {"cpu_us_per_iter": 1.0, "gpu_speedup": 2.0, "kernel_launch_us": 0.0},
              "1": {"cpu_us_per_iter": 1.0, "gpu_speedup": 2.0, "kernel_launch_us": 0.0}},
    "vars": {"m": {"size_bytes": 400}, "b": {"size_bytes": 400}},
    "transfer_fixed_us": 1.0, "transfer_us_per_kib": 1.0,
}
SERIAL = ("int main(){int i; float a[100];\n"
          "for(i=1;i<100;i++){ a[i] = a[i-1] + 1.0; }\n"
          "return 0;}\n")
SERIAL_PROFILE = {"loops": [{"id": 0, "entry_count": 1, "total_iterations": 20_000_000}]}

# programs that exercise the tokenizer's corners: line ends, tabs, comments
# and pragma lines (one ending the text), number forms, every operator,
# Unicode identifiers, trailing blanks
EDGE_SOURCES = {
    "crlf_tabs": "int main()\r\n{\r\n\tint x;\r\n\tx = 1;\r\n\treturn x;\r\n}\r\n",
    "comments": ("/* header\n   comment */ int main(){ // line\n int x; /* inline */ x = 1;"
                 " # pragma-like\n#pragma acc kernels\n return x; } // trailing"),
    "numbers": ("int main(){ float x; x = 1.5e-3 + 2E+4 + 3e5 + 10.25 + 7 + 0 + 007"
                " + 1.0E-0; return 0; }"),
    "operators": ("int main(){ int a; int b; a = 1; b = 2;"
                  " if (a <= b && !(a >= b) || a != b) { a += 1; a -= 1; a *= 2; a /= 2;"
                  " a++; b--; } else { a = a % b - -a * (b / 2); }"
                  " if (a == b) { a = a < b; } if (a > b) { a = 0; } return a; }"),
    "unicode_idents": "int main(){ int \u00e9; int x\u00b2; int _\u00f11; \u00e9 = 1; x\u00b2 = \u00e9; return x\u00b2; }",
    "trailing_blanks": "int main(){ return 0; }  \t ",
    "blank": " \n\t\n",
    "empty": "",
    # one case of each rule that orders the access list: a compound target,
    # nested subscripts, whole-array and shadowed call arguments, declarators
    # with dims or a reading initializer, a declaration as an unbraced loop
    # body, a parameter's dimension, while and do-while headers, a return
    # two loops deep and a block that shadows an outer name
    "access_order": (
        "int scale(float v[n + 1], int n){\n"
        "  int k;\n"
        "  for (k = 0; k < n; k++) { v[k] *= 2.0; }\n"
        "  return 0;\n"
        "}\n"
        "int main(){\n"
        "  int i; int j; int n = 4; int c[4];\n"
        "  float a[4]; float b[n][2], s = b[0][1] + n;\n"
        "  float t;\n"
        "  t = 0.0;\n"
        "  for (i = 0; i < n; i++) int d = c[i];\n"
        "  for (i = 0; i < n; i++) { a[i] += b[c[i]][0]; }\n"
        "  for (i = 0; i < n; i++) { scale(a, n); scale(t, a[i]); }\n"
        "  i = 0;\n"
        "  while (i < n) { a[c[i]] = s; i++; }\n"
        "  do { i--; } while (i > 0);\n"
        "  for (i = 0; i < n; i++) { for (j = 0; j < 2; j++) { if (b[i][j] > 0.0) return i; } }\n"
        "  for (i = 0; i < n; i++) { float t; t = a[i]; }\n"
        "  { int a; a = 1; scale(a, n); }\n"
        "  return t;\n"
        "}\n"),
}


def _tune(stem: str, *extra: str) -> list[str]:
    return ["tune", "--source", f"{stem}.c", "--profile", f"{stem}_profile.json",
            "--evaluator", f"sim:{stem}_model.json", *extra,
            "--out", "{out}/best.c", "--report", "{out}/report.json"]


def _cases() -> dict[str, tuple]:
    """name -> (input directory or None for written inputs, argv, exit code,
    output files compared besides stdout)"""
    tune_files = ("best.c", "report.json")
    cases = {}
    for stem in TUNE_FIXTURES:
        # synergy5's busiest loop runs 5M iterations, under the default gate
        gate = ["--gate-threshold", "5000000"] if stem == "synergy5" else []
        for seed in (1, 2, 3):
            cases[f"tune_{stem}_seed{seed}"] = (
                FIXTURES / "tune", _tune(stem, "--seed", str(seed), *gate), 0, tune_files)
    cases["tune_stress75_seed1_gens5"] = (
        FIXTURES / "stress", _tune("stress75", "--seed", "1", "--gens", "5"), 0, tune_files)
    cases["tune_mix10_gate_reject"] = (
        FIXTURES / "tune", _tune("mix10", "--gate-threshold", "999999999999"), 12,
        ("report.json",))
    cases["tune_serial_no_offloadable"] = (
        None, _tune("serial"), 13, ("report.json",))
    cases["tune_nest_no_valid_genome"] = (
        None, _tune("nest", "--gens", "1", "--seed", "4"), 13, ("report.json",))
    for command, extra in (("gate", ["--profile", "mix10_profile.json"]),
                           ("check", []),
                           ("plan-transfers", ["--genome", "1011001110"])):
        cases[f"{command}_mix10"] = (
            FIXTURES / "tune", [command, "--source", "mix10.c", *extra], 0, ())
    for stem in ("mix10", "deep3"):
        cases[f"analyze_{stem}"] = (
            FIXTURES / "tune", ["analyze", "--source", f"{stem}.c"], 0, ())
    cases["plan-transfers_synergy5"] = (
        FIXTURES / "tune", ["plan-transfers", "--source", "synergy5.c", "--genome", "11000"],
        0, ())
    cases["check_stress75"] = (
        FIXTURES / "stress", ["check", "--source", "stress75.c"], 0, ())
    return cases


CASES = _cases()


def _write_inputs(directory: Path):
    for stem, source, profile in (("nest", NEST, NEST_PROFILE),
                                  ("serial", SERIAL, SERIAL_PROFILE)):
        (directory / f"{stem}.c").write_text(source)
        (directory / f"{stem}_profile.json").write_text(json.dumps(profile))
    (directory / "nest_model.json").write_text(json.dumps(NEST_MODEL))
    (directory / "serial_model.json").write_text(json.dumps(NEST_MODEL))


def run_case(name: str, scratch: Path) -> dict[str, bytes]:
    """Run one case in `scratch` and return its outputs by golden file name."""
    directory, argv, expected_code, files = CASES[name]
    out = scratch / "out"
    out.mkdir()
    if directory is None:
        directory = scratch
        _write_inputs(directory)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main([arg.format(out=out) for arg in argv])
    finally:
        os.chdir(cwd)
    assert code == expected_code, f"{name}: exit {code}, expected {expected_code}"
    outputs = {f"{name}.stdout": stdout.getvalue().encode()}
    for file in files:
        outputs[f"{name}.{file}"] = (out / file).read_bytes()
    return outputs


def _genomes(stem: str, tree, genome_map):
    """Every valid genome in counting order, or the fixture's seeded sample."""
    n = len(genome_map)
    count = PLAN_SAMPLES[stem]
    if count is None:
        candidates = (format(k, f"0{n}b") for k in range(2 ** n))
        return [g for g in candidates if check_genome_valid(g, genome_map, tree)]
    rng = random.Random(stem)
    genomes = []
    while len(genomes) < count:
        bits = "".join(rng.choice("01") for _ in range(n))
        if check_genome_valid(bits, genome_map, tree):
            genomes.append(bits)
    return genomes


def plan_lines(stem: str) -> bytes:
    """One line per genome: its transfer plan and simulated seconds."""
    directory = FIXTURES / ("stress" if stem == "stress75" else "tune")
    program, tree, accesses = load_program(str(directory / f"{stem}.c"))
    profile = load_profile(directory / f"{stem}_profile.json", tree)
    model = load_cost_model(directory / f"{stem}_model.json")
    genome_map = build_genome_map(check_all_parallelizable(tree, accesses))
    lines = []
    for bits in _genomes(stem, tree, genome_map):
        plan = plan_transfers(program, tree, accesses, bits, genome_map)
        seconds = simulate_time(model, bits, genome_map, tree, profile, plan).seconds
        lines.append(json.dumps({"genome": bits, "seconds": seconds, **asdict(plan)},
                                separators=(",", ":")) + "\n")
    return "".join(lines).encode()


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def frontend_sources() -> dict[str, str]:
    """name -> text: every .c under tests/fixtures/, then the edge cases."""
    sources = {path.relative_to(FIXTURES).as_posix(): path.read_text()
               for path in sorted(FIXTURES.rglob("*.c"))}
    sources.update({f"edge:{name}": text for name, text in EDGE_SOURCES.items()})
    return sources


def frontend_digests() -> bytes:
    """sha256 of the token list, the AST, the loop tree and the access list
    of each frontend source."""
    digests = {}
    for name, text in frontend_sources().items():
        program = parse(text)
        digests[name] = {
            "tokens": _sha256(tokenize(text)),
            "ast": _sha256(program),
            "tree": _sha256(build_loop_tree(program)),
            "accesses": _sha256(extract_accesses(program)),
        }
    return (json.dumps(digests, indent=1) + "\n").encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    for file, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / file).read_bytes(), f"{file} differs from its golden"


@pytest.mark.parametrize("stem", sorted(PLAN_SAMPLES))
def test_plans_match_golden(stem):
    assert plan_lines(stem) == (GOLDEN / f"plans_{stem}.jsonl").read_bytes()


def test_lowering_family_matches_golden():
    assert lowering_family.plan_lines() == (GOLDEN / "lowering_family_plans.jsonl").read_bytes()


def test_frontend_matches_golden():
    expected = json.loads((GOLDEN / "frontend.json").read_text())
    actual = json.loads(frontend_digests())
    assert sorted(actual) == sorted(expected)
    for name in sorted(expected):
        assert actual[name] == expected[name], f"{name}: tokens, AST, tree or accesses differ"


def test_frontend_changes_counts_each_digest_kind():
    old = {"a": {"tokens": "1", "ast": "2", "tree": "3", "accesses": "4"},
           "b": {"tokens": "5", "ast": "6", "tree": "7", "accesses": "8"}}
    new = {"a": {"tokens": "1", "ast": "x", "tree": "x", "accesses": "4"},
           "b": {"tokens": "5", "ast": "x", "tree": "7", "accesses": "8"},
           "c": {"tokens": "9", "ast": "9", "tree": "9", "accesses": "9"}}
    assert frontend_changes(json.dumps(old).encode(), json.dumps(new).encode()) == {
        "tokens": 1, "ast": 3, "tree": 2, "accesses": 1}


def frontend_changes(old: bytes, new: bytes) -> dict[str, int]:
    """Per digest kind, how many sources of `new` differ from `old` (a source
    that `old` lacks counts as changed in every kind)."""
    before, after = json.loads(old), json.loads(new)
    return {kind: sum(before.get(name, {}).get(kind) != digests[kind]
                      for name, digests in after.items())
            for kind in ("tokens", "ast", "tree", "accesses")}


def _rewrite(file: str, data: bytes) -> bytes | None:
    """Write a golden and print whether its bytes changed; returns the old bytes."""
    path = GOLDEN / file
    old = path.read_bytes() if path.exists() else None
    path.write_bytes(data)
    print(f"{'same   ' if old == data else 'changed'} {file}")
    return old


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            for file, data in run_case(case, Path(scratch)).items():
                _rewrite(file, data)
    for stem in sorted(PLAN_SAMPLES):
        _rewrite(f"plans_{stem}.jsonl", plan_lines(stem))
    _rewrite("lowering_family_plans.jsonl", lowering_family.plan_lines())
    digests = frontend_digests()
    old = _rewrite("frontend.json", digests)
    if old is not None:
        sources = len(json.loads(digests))
        for kind, count in frontend_changes(old, digests).items():
            print(f"frontend.json: {kind} digest changed for {count} of {sources} sources")
