"""Checks against a real C compiler: gcc with -fopenacc.

Each golden annotated source (the `tune` outputs and the emitter goldens)
must compile with `gcc -fopenacc -O1 -c`, and gcc must give each integer
literal the value that the parser gives it (test_parser.INT_LITERALS) and
reject each one the parser rejects.  Without OpenACC offload targets gcc
compiles the directives for the host, which still checks their syntax.
On every input source, gcc's own analysis of each `for` loop under a
kernels construct must agree with the built-in oracle's verdict.
The whole file skips when a one-line `gcc -fopenacc` compile fails.
"""

import re
import subprocess

import pytest

import acctuner as at
from acctuner.emitter import kernels_only_annotation
from conftest import FIXTURES
from test_parser import INT_LITERALS

ANNOTATED = (sorted((FIXTURES / "outputs").glob("*.best.c"))
             + sorted((FIXTURES / "golden").glob("*_expected.c")))

# every input source; the outputs and the *_expected.c goldens carry pragmas
REPO = FIXTURES.parent.parent
INPUTS = sorted(path.relative_to(REPO) for root in (FIXTURES, REPO / "bench" / "inputs")
                for path in root.rglob("*.c")
                if "outputs" not in path.parts and not path.name.endswith("_expected.c"))

# gcc's note for a loop of a kernels region that it runs in parallel; a loop
# it keeps serial reads "assigned OpenACC seq loop parallelism"
GANG = "assigned OpenACC gang loop parallelism"

# each is a ParseError in the parser; gcc fails the first two outright and
# the third under -pedantic-errors, since no C type holds it
BAD_LITERALS = ["08", "0779", "18446744073709551616"]


def gcc(source, tmp_path, *flags):
    """Compile the C text source to an object file in tmp_path."""
    proc = subprocess.run(["gcc", "-fopenacc", *flags, "-x", "c", "-c", "-",
                           "-o", str(tmp_path / "out.o")],
                          input=source, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stderr


@pytest.fixture(scope="module", autouse=True)
def gcc_openacc(tmp_path_factory):
    try:
        code, _ = gcc("int main(void) { return 0; }\n", tmp_path_factory.mktemp("probe"))
    except (OSError, subprocess.TimeoutExpired):
        code = None
    if code != 0:
        pytest.skip("no gcc that compiles with -fopenacc")


def test_annotated_goldens_are_all_here():
    assert len(ANNOTATED) == 19


@pytest.mark.parametrize("path", ANNOTATED, ids=[p.name for p in ANNOTATED])
def test_annotated_golden_compiles(path, tmp_path):
    code, stderr = gcc(path.read_text(), tmp_path, "-O1")
    assert code == 0, stderr


@pytest.mark.parametrize("literal,value", INT_LITERALS)
def test_gcc_gives_literal_the_parsers_value(literal, value, tmp_path):
    code, stderr = gcc(f'_Static_assert(({literal}) == {value}ULL, "");\n', tmp_path)
    assert code == 0, stderr


@pytest.mark.parametrize("literal", BAD_LITERALS)
def test_gcc_rejects_what_the_parser_rejects(literal, tmp_path):
    code, _ = gcc(f"int x = {literal};\n", tmp_path, "-pedantic-errors")
    assert code != 0


def for_loops(path):
    """The program of a source file, and each for loop with its verdict."""
    program = at.parse((REPO / path).read_text())
    tree = at.build_loop_tree(program)
    verdicts = at.check_all_parallelizable(tree, at.extract_accesses(program))
    return program, tree, [(node, verdict) for node, verdict in zip(tree, verdicts)
                           if node.kind == "for"]


def test_oracle_inputs_are_all_here():
    assert len(INPUTS) == 11
    assert sum(len(for_loops(path)[2]) for path in INPUTS) == 221


@pytest.mark.parametrize("path", INPUTS, ids=map(str, INPUTS))
def test_gcc_parallelizes_exactly_the_eligible_loops(path, tmp_path):
    # the kernels line goes in before the loop, so it takes the number of the
    # loop's header line, and gcc's note names the line of the pragma
    program, tree, loops = for_loops(path)
    disagreements = []
    for node, verdict in loops:
        code, stderr = gcc(kernels_only_annotation(program, tree, node.loop_id), tmp_path,
                           "-O2", "-fopt-info-optimized-omp")
        notes = re.findall(rf"^<stdin>:{node.header_pos.line}:\d+: optimized: (.*)$",
                           stderr, re.M)
        if code != 0 or (GANG in notes) != verdict.eligible:
            disagreements.append(f"{path} loop {node.loop_id} {verdict.reason}: "
                                 f"{notes if code == 0 else stderr}")
    if disagreements:
        version = subprocess.run(["gcc", "--version"], capture_output=True, text=True).stdout
        pytest.fail("\n".join([version.splitlines()[0], *disagreements]))
