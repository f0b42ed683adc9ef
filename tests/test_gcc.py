"""Checks against a real C compiler: gcc with -fopenacc.

Each golden annotated source (the `tune` outputs and the emitter goldens)
must compile with `gcc -fopenacc -O1 -c`, and gcc must give each integer
literal the value that the parser gives it (test_parser.INT_LITERALS) and
reject each one the parser rejects.  Without OpenACC offload targets gcc
compiles the directives for the host, which still checks their syntax.
The whole file skips when a one-line `gcc -fopenacc` compile fails.
"""

import subprocess

import pytest

from conftest import FIXTURES
from test_parser import INT_LITERALS

ANNOTATED = (sorted((FIXTURES / "outputs").glob("*.best.c"))
             + sorted((FIXTURES / "golden").glob("*_expected.c")))

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
