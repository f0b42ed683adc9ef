"""Seeded family of programs on which the transfer planner lowers directives.

Each program holds 2-4 sibling loops inside a `for (t..)` loop that carries
a dependence, so the t-loop is never eligible.  Every sibling reads, writes
or updates the one array `v`, and a CPU read `s = v[0];` sits before,
between or after them.  In about a third of the programs a second
non-eligible loop, `for (r..)`, wraps the t-loop, with its own CPU read or
set of `v` or none.  A copyin of `v` that hoists to the t-loop or the
r-loop while a copyout of `v` stays blocked below it is the case in which
the planner lowers the outer directive.

Every genome of such a program is valid, since no eligible loop nests in
another.  `plan_lines` gives the plan of each, one compact JSON line per
(seed, genome).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict

import acctuner as at

SEEDS = range(1, 61)
COUNTERS = ("i", "j", "k", "m")
BODIES = {"read": "w{n}[{c}] = v[{c}];",
          "write": "v[{c}] = 2.0;",
          "update": "v[{c}] = v[{c}] + 1.0;"}
# the r-loop's own access of v, beside the t-loop
WRAPPER_ACCESSES = ("", "s = v[1];", "v[1] = s;")


def generate(seed: int) -> str:
    """Source text of the family's program for `seed`."""
    rng = random.Random(seed)
    roles = [rng.choice(sorted(BODIES)) for _ in range(rng.randint(2, 4))]
    cpu_read_at = rng.randint(0, len(roles))
    wrapped = rng.random() < 1 / 3

    inner = []
    for n, role in enumerate(roles):
        if n == cpu_read_at:
            inner.append("s = v[0];")
        c = COUNTERS[n]
        inner.append(f"for ({c} = 0; {c} < 100; {c}++) {{ {BODIES[role].format(n=n, c=c)} }}")
    if cpu_read_at == len(roles):
        inner.append("s = v[0];")
    body = ["for (t = 0; t < 10; t++) {", *(f"    {line}" for line in inner), "}"]
    if wrapped:
        access = rng.choice(WRAPPER_ACCESSES)
        before = rng.random() < 0.5
        body = ["for (r = 0; r < 4; r++) {",
                *([f"    {access}"] if access and before else []),
                *(f"    {line}" for line in body),
                *([f"    {access}"] if access and not before else []),
                "}"]

    decls = ["int r;", "int t;", *(f"int {c};" for c in COUNTERS[:len(roles)]),
             "float v[100];", *(f"float w{n}[100];" for n in range(len(roles))),
             "float s;"]
    lines = ["int main() {", *(f"    {d}" for d in decls),
             "    v[0] = 1.0;", "    s = 0.0;",
             *(f"    {line}" for line in body),
             "    s = s + w0[0];" if roles[0] == "read" else "    s = s + v[2];",
             "    return s;", "}"]
    return "\n".join(lines) + "\n"


def analyze(seed: int):
    """(program, tree, accesses, genome map) of the program for `seed`."""
    program = at.parse(generate(seed))
    tree = at.build_loop_tree(program)
    accesses = at.extract_accesses(program)
    genome_map = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    return program, tree, accesses, genome_map


def plan_lines() -> bytes:
    """One line per (seed, genome), in seed then counting order: its plan."""
    lines = []
    for seed in SEEDS:
        program, tree, accesses, genome_map = analyze(seed)
        for k in range(2 ** len(genome_map)):
            bits = format(k, f"0{len(genome_map)}b")
            plan = at.plan_transfers(program, tree, accesses, bits, genome_map)
            lines.append(json.dumps({"seed": seed, "genome": bits, **asdict(plan)},
                                    separators=(",", ":")) + "\n")
    return "".join(lines).encode()
