"""Line ends survive emission: a source with CRLF on any subset of its
lines, with or without its final line end, comes back byte for byte under
the all-zero genome, and under any valid genome the output minus its
`#pragma acc` lines is the input, and each directive line it adds ends as
the line after it, or, before the last line when that has no line end, as
the nearest line above that is not a directive."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import acctuner as at
from acctuner.loops import LoopNode

from conftest import FIXTURES, analyze, is_pragma, strip_pragmas

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ROOT = FIXTURES.parent.parent
SOURCES = sorted([*FIXTURES.rglob("*.c"), *(ROOT / "bench" / "inputs").glob("*.c")])


def with_crlf(text: str, rng: random.Random) -> str:
    """text with '\\r\\n' for a random subset of its '\\n' line ends."""
    return "".join(line + ("\r\n" if rng.random() < 0.5 else "\n")
                   for line in text.split("\n")[:-1]) + text.split("\n")[-1]


def valid(bits: str, genome_map: at.GenomeMap, tree: list[LoopNode]) -> str:
    """bits with every loop that nests under an earlier selected one cleared."""
    chosen: set[int] = set()
    for bit, loop_id in zip(bits, genome_map.loop_ids):
        if bit == "1" and not chosen.intersection(tree[loop_id].ancestors):
            chosen.add(loop_id)
    return "".join("1" if loop_id in chosen else "0" for loop_id in genome_map.loop_ids)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_emit_keeps_every_line_end(path: Path, data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    text = with_crlf(path.read_text(encoding="utf-8"), rng)
    if data.draw(st.booleans()):    # drop the final line end
        text = text.removesuffix("\n").removesuffix("\r")
    program, tree, accesses = analyze(text)
    genome_map = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    n = len(genome_map)

    def emit(bits: str) -> str:
        plan = at.plan_transfers(program, tree, accesses, bits, genome_map)
        return at.emit_annotated(program, tree, bits, genome_map, plan).text

    assert emit("0" * n) == text
    drawn = data.draw(st.integers(0, 2**n - 1))
    bits = "".join("1" if drawn >> k & 1 else "0" for k in range(n))
    chosen = emit(valid(bits, genome_map, tree))
    assert strip_pragmas(chosen) == strip_pragmas(text)
    if strip_pragmas(text) == text:     # every directive line is an added one
        lines = chosen.split("\n")
        last = len(lines) - 1
        for k, line in enumerate(lines[:last]):
            if is_pragma(line):
                ending = lines[k + 1] if k + 1 < last else next(
                    (above for above in reversed(lines[:k]) if not is_pragma(above)), "")
                assert line.endswith("\r") == ending.endswith("\r")
