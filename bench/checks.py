"""Output checks for the benchmark, computed apart from acctuner.

Nothing here imports acctuner: the checks read the annotated source, the
JSON report and the inputs (or the generator's record) and recompute what
they need.  Every check returns a list of error strings; empty means the
output passed.
"""

from __future__ import annotations

import re

PRAGMA = re.compile(r"^[ \t]*#pragma acc\b")
KERNELS = "#pragma acc kernels"
CLAUSE = re.compile(r"\b(copy|copyin|copyout)\(([^)]*)\)")
LOOP_HEADER = re.compile(r"^[ \t]*(for|while)[ \t]*\(|^[ \t]*do[ \t]*\{")


def strip_pragmas(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not PRAGMA.match(line))


def check_roundtrip(annotated: str, source: str) -> list[str]:
    """The annotated output minus its `#pragma acc` lines is the input."""
    if strip_pragmas(annotated) != source:
        return ["annotated output minus its pragma lines differs from the input"]
    return []


def scan_loops(source: str) -> list[dict]:
    """Loops in textual order as {"line", "parent"}, found by matching loop
    headers and counting braces (the inputs keep one header per line and no
    braces in comments)."""
    loops: list[dict] = []
    open_loops: list[tuple[int, int]] = []  # (loop index, brace depth of its body)
    depth = 0
    for line_no, line in enumerate(source.splitlines(), start=1):
        while open_loops and open_loops[-1][1] > depth:
            open_loops.pop()
        if LOOP_HEADER.match(line):
            parent = open_loops[-1][0] if open_loops else None
            loops.append({"line": line_no, "parent": parent})
            open_loops.append((len(loops) - 1, depth + 1))
        depth += line.count("{") - line.count("}")
    return loops


def annotations(annotated: str) -> tuple[dict[int, list[str]], list[str]]:
    """Map each input line number to the pragma lines inserted before it."""
    found: dict[int, list[str]] = {}
    pending: list[str] = []
    line_no = 0
    for line in annotated.splitlines():
        if PRAGMA.match(line):
            pending.append(line.strip())
            continue
        line_no += 1
        if pending:
            found[line_no] = pending
            pending = []
    errors = ["pragma lines at the end of the output"] if pending else []
    return found, errors


def selected_loops(genome: str, genome_map: list[int]) -> list[int]:
    return [loop for bit, loop in zip(genome, genome_map) if bit == "1"]


def ancestors(loops: list[dict], loop_id: int) -> list[int]:
    out = []
    parent = loops[loop_id]["parent"]
    while parent is not None:
        out.append(parent)
        parent = loops[parent]["parent"]
    return out


def check_genome_map(report: dict, eligible: list[int]) -> list[str]:
    if report.get("genome_map") != eligible:
        return [f"genome_map {report.get('genome_map')} is not the known "
                f"eligible set {eligible}"]
    return []


def check_best(report: dict, annotated: str, loops: list[dict]) -> list[str]:
    """The best genome selects no nested pair, and exactly one kernels line
    stands before each selected loop and before no other line."""
    genome = report["best"]["genome"]
    genome_map = report["genome_map"]
    if len(genome) != len(genome_map) or set(genome) - {"0", "1"}:
        return [f"best genome {genome!r} does not fit the genome map"]
    chosen = set(selected_loops(genome, genome_map))
    errors = [f"selected loop {loop} nests inside selected loop {outer}"
              for loop in sorted(chosen) for outer in ancestors(loops, loop)
              if outer in chosen]
    found, errors_at_end = annotations(annotated)
    errors += errors_at_end
    by_line = {loop["line"]: loop_id for loop_id, loop in enumerate(loops)}
    for line_no, pragmas in sorted(found.items()):
        loop = by_line.get(line_no)
        if loop is None:
            errors.append(f"pragma before input line {line_no}, which is no loop header")
            continue
        kernels = pragmas.count(KERNELS)
        if kernels != (loop in chosen):
            errors.append(f"loop {loop} has {kernels} kernels lines, "
                          f"selected={loop in chosen}")
    for loop in sorted(chosen):
        if loops[loop]["line"] not in found:
            errors.append(f"selected loop {loop} has no kernels line")
    return errors


# -- sim-stress75: the fixture's closed form --

def stress75_costs(profile: dict, model: dict, eligible: list[int]) -> dict[int, tuple[float, float | None]]:
    """Per loop (cpu_us, offloaded_us or None), from the fixture's layout:
    the k-th eligible loop runs `a_k[i] = a_k[i] * s_k + b_k[i]`, so once
    offloaded it pays its GPU time, a launch, copy(a_k) and copyin(b_k,s_k)
    per entry."""
    sizes = {name: rec["size_bytes"] for name, rec in model["vars"].items()}
    fixed = model["transfer_fixed_us"]
    per_kib = model["transfer_us_per_kib"]
    position = {loop: k for k, loop in enumerate(eligible)}
    costs = {}
    for rec in profile["loops"]:
        loop = rec["id"]
        m = model["loops"][str(loop)]
        cpu = rec["total_iterations"] * m["cpu_us_per_iter"]
        gpu = None
        if loop in position:
            k = position[loop]
            copy = fixed + sizes[f"a{k}"] / 1024 * per_kib
            copyin = fixed + (sizes[f"b{k}"] + sizes[f"s{k}"]) / 1024 * per_kib
            gpu = cpu / m["gpu_speedup"] + rec["entry_count"] * (
                m["kernel_launch_us"] + copy + copyin)
        costs[loop] = (cpu, gpu)
    return costs


def stress75_bounds(costs) -> tuple[float, float]:
    """(optimum, CPU-only) seconds."""
    optimum = sum(cpu if gpu is None else min(cpu, gpu) for cpu, gpu in costs.values())
    cpu_only = sum(cpu for cpu, _ in costs.values())
    return optimum / 1e6, cpu_only / 1e6


def check_stress75_seconds(report: dict, costs) -> list[str]:
    chosen = set(selected_loops(report["best"]["genome"], report["genome_map"]))
    expected = sum(gpu if loop in chosen else cpu
                   for loop, (cpu, gpu) in costs.items()) / 1e6
    seconds = report["best"]["seconds"]
    errors = []
    if abs(seconds - expected) > 1e-9 * expected:
        errors.append(f"best.seconds {seconds!r} != closed form {expected!r}")
    optimum, cpu_only = stress75_bounds(costs)
    if not optimum * (1 - 1e-9) <= seconds <= cpu_only * (1 + 1e-9):
        errors.append(f"best.seconds {seconds!r} outside [{optimum!r}, {cpu_only!r}]")
    return errors


# -- sim-large: transfers required by the necessity rules --

def _subtree(loops: list[dict], root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for loop_id, loop in enumerate(loops):
        if loop["parent"] is not None:
            children.setdefault(loop["parent"], []).append(loop_id)
    out, stack = [], [root]
    while stack:
        loop_id = stack.pop()
        out.append(loop_id)
        stack.extend(children.get(loop_id, ()))
    return out


def required_transfers(record: dict, chosen: set[int]) -> list[tuple[int, str, str]]:
    """(region, variable, 'in'|'out') for every transfer the documented rules
    require: copyin when the region reads v and CPU-side code of the same
    function sets or defines it; copyout when the region sets v and CPU-side
    code touches it.  Counters of the region's own loops are exempt, and code
    inside any selected region is not CPU-side."""
    loops = record["loops"]
    on_gpu = {loop for region in chosen for loop in _subtree(loops, region)}
    required = []
    for region in sorted(chosen):
        function = loops[region]["function"]
        inside = {"ref": set(), "set": set(), "define": set()}
        counters: set[str] = set()
        for loop in _subtree(loops, region):
            counters.update(loops[loop]["header_set"])
            for kind in inside:
                inside[kind].update(loops[loop][kind])
        cpu = {kind: set(names) for kind, names in record["outside"][function].items()}
        for loop_id, loop in enumerate(loops):
            if loop["function"] == function and loop_id not in on_gpu:
                for kind in cpu:
                    cpu[kind].update(loop[kind])
        cpu_writes = cpu["set"] | cpu["define"]
        cpu_any = cpu_writes | cpu["ref"]
        for var in sorted(set().union(*inside.values()) - counters):
            if var in inside["ref"] and var in cpu_writes:
                required.append((region, var, "in"))
            if var in inside["set"] and var in cpu_any:
                required.append((region, var, "out"))
    return required


def data_clauses(pragmas: list[str]) -> dict[str, set[str]]:
    clauses: dict[str, set[str]] = {}
    for pragma in pragmas:
        if pragma.startswith("#pragma acc data"):
            for clause, names in CLAUSE.findall(pragma):
                clauses.setdefault(clause, set()).update(
                    n.strip() for n in names.split(",") if n.strip())
    return clauses


def check_transfers(report: dict, annotated: str, record: dict) -> list[str]:
    """Each required transfer appears in a data clause of the right
    direction placed at its region or at one of the region's ancestors."""
    loops = record["loops"]
    chosen = set(selected_loops(report["best"]["genome"], report["genome_map"]))
    found, _ = annotations(annotated)
    clauses_at = {loop_id: data_clauses(found.get(loop["line"], []))
                  for loop_id, loop in enumerate(loops)}
    errors = []
    for region, var, direction in required_transfers(record, chosen):
        wanted = ("copy", "copyin" if direction == "in" else "copyout")
        if not any(var in clauses_at[loop].get(clause, ())
                   for loop in [region, *ancestors(loops, region)]
                   for clause in wanted):
            errors.append(f"region {region} needs copy{direction} of {var!r}; "
                          f"no directive at the region or above it has one")
    return errors
