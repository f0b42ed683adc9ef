"""Seeded generator of the sim-large tuning program.

Writes a C-like source, its loop-count profile and its cost model, plus a
record that the output checks use instead of acctuner's own analysis: for
every loop its function, parent, header line, eligibility, and the
variables its header and its own body statements (nested loops excluded)
read, set and define; for every function the same for the statements
outside any loop.

The shape is fixed: every seed gives 315 loops in six functions with the
same mix of bounds and of loops that help or hurt on the GPU.  The seed
orders the blocks, deals the bounds and the help/hurt roles out to them,
and draws each loop's costs from narrow ranges, so the program's totals
move little from seed to seed.  The blocks are:

- flat map loops that help or hurt on the GPU, some with an `if`, some on
  2-D arrays;
- time-step nests whose outer loop carries a scalar, so it stays on the
  CPU while directives for its two eligible inner loops can hoist above it;
- one fully eligible 2-deep and one fully eligible 3-deep nest (3 in 8
  random genomes select no nested pair);
- outer-eligible nests whose inner loop carries a dependence;
- `while` and `do-while` loops, carried-dependence and reduction decoys;
- calls from `main` that pass whole arrays to the five helper functions.

Run from the repository root:

    python3 bench/gen_large.py --seed 1 --out /path/to/dir
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

HELPERS = 5
# blocks per helper function, and for main (which also holds the two fully
# eligible nests and one call-preparing loop per helper)
HELPER_BLOCKS = {"flat": 25, "timestep": 3, "while": 2, "dowhile": 2,
                 "carried": 3, "reduction": 3, "outer_only": 1}
MAIN_BLOCKS = {"flat": 25, "timestep": 5, "while": 5, "dowhile": 5,
               "carried": 5, "reduction": 5, "outer_only": 5,
               "nest2": 1, "nest3": 1}

FLAT_BOUNDS = (1_000_000, 2_000_000, 4_000_000, 20_000_000)
# (bound, helps on the GPU) of a flat loop, and (steps, n, inner roles) of a
# time-step nest: dealt out jointly, so big loops help as often as they hurt
FLAT_MIX = tuple((n, helps) for n in FLAT_BOUNDS for helps in (True, False))
TIMESTEP_MIX = tuple((steps, n, roles) for steps in (100, 200, 500)
                     for n in (10_000, 50_000)
                     for roles in ((True, False), (False, True)))


def _site() -> dict:
    return {"ref": set(), "set": set(), "define": set()}


class _Function:
    """Body lines of one function with the loops and accesses they hold;
    line numbers are relative until the function is placed."""

    def __init__(self, name: str, params: list[tuple[str, int]]):
        self.name = name
        self.params = params            # (array name, elements)
        self.decls: list[str] = []
        self.body: list[str] = []
        self.loops: list[dict] = []     # in textual order
        self.outside = _site()
        self.open: list[dict] = []
        for pname, _ in params:
            self.outside["define"].add(pname)

    def declare(self, text: str, name: str):
        self.decls.append(f"    {text};")
        self.outside["define"].add(name)

    def _here(self) -> dict:
        return self.open[-1]["own"] if self.open else self.outside

    def stmt(self, text: str, ref=(), set_=(), define=()):
        self.body.append("    " * (len(self.open) + 1) + text)
        site = self._here()
        site["ref"].update(ref)
        site["set"].update(set_)
        site["define"].update(define)

    def loop(self, header: str, *, eligible: bool, entry: int, iters: int,
             cost: tuple[float, float, float], header_ref=(), header_set=()):
        node = {
            "function": self.name,
            "parent": self.open[-1] if self.open else None,
            "rel_line": len(self.body),
            "eligible": eligible,
            "header_set": sorted(header_set),
            "own": _site(),
            "entry": entry,
            "iters": iters,
            "cost": cost,
        }
        node["own"]["ref"].update(header_ref)
        node["own"]["set"].update(header_set)
        self.body.append("    " * (len(self.open) + 1) + header)
        self.loops.append(node)
        self.open.append(node)

    def end(self, tail: str = "}", tail_ref=()):
        node = self.open.pop()
        node["own"]["ref"].update(tail_ref)
        self.body.append("    " * (len(self.open) + 1) + tail)


class Generator:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sizes: dict[str, int] = {}
        self.count = 0
        self.decks: dict[tuple, list] = {}

    def pick(self, options: tuple):
        """Draw from a shuffled deck of the options, refilled when empty:
        every seed uses each option equally often, to within one, and only
        which block gets which changes."""
        deck = self.decks.setdefault(options, [])
        if not deck:
            deck.extend(options)
            self.rng.shuffle(deck)
        return deck.pop()

    def name(self, stem: str, size_bytes: int = 4) -> str:
        self.count += 1
        name = f"{stem}{self.count}"
        self.sizes[name] = size_bytes
        return name

    # -- costs: (cpu_us_per_iter, gpu_speedup, kernel_launch_us) --

    def helps(self) -> tuple[float, float, float]:
        return (round(self.rng.uniform(0.008, 0.012), 4),
                round(self.rng.uniform(10.0, 20.0), 2), 20.0)

    def hurts(self) -> tuple[float, float, float]:
        return (round(self.rng.uniform(0.008, 0.012), 4),
                round(self.rng.uniform(0.5, 0.95), 2), 20.0)

    def sequential(self) -> tuple[float, float, float]:
        return (round(self.rng.uniform(0.008, 0.012), 4), 1.0, 0.0)

    def role(self, helps: bool) -> tuple[float, float, float]:
        return self.helps() if helps else self.hurts()

    # -- blocks --

    def array(self, f: _Function, stem: str, elements: int, cols: int = 0) -> str:
        if cols:
            name = self.name(stem, 4 * elements * cols)
            f.declare(f"float {name}[{elements}][{cols}]", name)
        else:
            name = self.name(stem, 4 * elements)
            f.declare(f"float {name}[{elements}]", name)
        return name

    def scalar(self, f: _Function, stem: str, kind: str = "float") -> str:
        name = self.name(stem)
        f.declare(f"{kind} {name}", name)
        return name

    def counted(self, f: _Function, i: str, lo: int, n: int, **kw):
        f.loop(f"for ({i} = {lo}; {i} < {n}; {i}++) {{",
               header_ref=(i,), header_set=(i,), **kw)

    def flat(self, f: _Function, arrays: tuple[str, str] | None = None, n: int = 0):
        variant = self.pick((0, 1, 2)) if arrays is None else 0
        n, helps = (n, self.pick((True, False))) if n else self.pick(FLAT_MIX)
        i = self.scalar(f, "i", "int")
        s = self.scalar(f, "s")
        if arrays is None:
            a = self.array(f, "a", n, 4 if variant == 2 else 0)
            b = self.array(f, "b", n)
        else:
            a, b = arrays
        f.stmt(f"{s} = 1.{self.rng.randrange(10)};", set_=(s,))
        f.stmt(f"{b}[0] = 1.0;", set_=(b,))
        self.counted(f, i, 0, n, eligible=True, entry=1, iters=n, cost=self.role(helps))
        if variant == 0:
            f.stmt(f"{a}[{i}] = {a}[{i}] * {s} + {b}[{i}];",
                   ref=(a, i, s, b), set_=(a,))
        elif variant == 1:
            f.stmt(f"if ({b}[{i}] > 0.5) {{", ref=(b, i))
            f.stmt(f"    {a}[{i}] = {b}[{i}] * {s};", ref=(b, i, s), set_=(a,))
            f.stmt("} else {")
            f.stmt(f"    {a}[{i}] = 0.0;", ref=(i,), set_=(a,))
            f.stmt("}")
        else:
            f.stmt(f"{a}[{i}][2] = {a}[{i}][2] + {b}[{i}] * {s};",
                   ref=(a, i, b, s), set_=(a,))
        f.end()

    def timestep(self, f: _Function):
        steps, n, roles = self.pick(TIMESTEP_MIX)
        t, i, j = (self.scalar(f, c, "int") for c in "tij")
        c = self.scalar(f, "c")
        x, y, w = (self.array(f, v, n) for v in "xyw")
        f.stmt(f"{c} = 1.0;", set_=(c,))
        f.stmt(f"{w}[0] = 0.5;", set_=(w,))
        self.counted(f, t, 0, steps, eligible=False, entry=1, iters=steps,
                     cost=self.sequential())
        f.stmt(f"{c} = {c} * 0.999 + 0.001;", ref=(c,), set_=(c,))
        self.counted(f, i, 0, n, eligible=True, entry=steps, iters=steps * n,
                     cost=self.role(roles[0]))
        f.stmt(f"{x}[{i}] = {y}[{i}] * {c} + {w}[{i}];", ref=(y, i, c, w), set_=(x,))
        f.end()
        self.counted(f, j, 0, n, eligible=True, entry=steps, iters=steps * n,
                     cost=self.role(roles[1]))
        f.stmt(f"{y}[{j}] = {y}[{j}] + {x}[{j}] * 0.5;", ref=(y, j, x), set_=(y,))
        f.end()
        f.end()

    def while_(self, f: _Function):
        n = self.pick((10_000, 100_000))
        w = self.scalar(f, "w", "int")
        z = self.array(f, "z", n)
        f.stmt(f"{w} = 0;", set_=(w,))
        f.loop(f"while ({w} < {n}) {{", header_ref=(w,), eligible=False,
               entry=1, iters=n, cost=self.sequential())
        f.stmt(f"{z}[{w}] = {z}[{w}] + 1.0;", ref=(z, w), set_=(z,))
        f.stmt(f"{w} = {w} + 1;", ref=(w,), set_=(w,))
        f.end()

    def dowhile(self, f: _Function):
        n = self.pick((10_000, 100_000))
        d = self.scalar(f, "d", "int")
        z = self.array(f, "z", n)
        f.stmt(f"{d} = 0;", set_=(d,))
        f.loop("do {", eligible=False, entry=1, iters=n, cost=self.sequential())
        f.stmt(f"{z}[{d}] = {z}[{d}] * 0.5;", ref=(z, d), set_=(z,))
        f.stmt(f"{d} = {d} + 1;", ref=(d,), set_=(d,))
        f.end(f"}} while ({d} < {n});", tail_ref=(d,))

    def carried(self, f: _Function):
        n = self.pick((10_000, 100_000))
        q = self.scalar(f, "q", "int")
        r = self.array(f, "r", n)
        f.stmt(f"{r}[0] = 0.0;", set_=(r,))
        self.counted(f, q, 1, n, eligible=False, entry=1, iters=n - 1,
                     cost=self.sequential())
        f.stmt(f"{r}[{q}] = {r}[{q} - 1] + 1.0;", ref=(r, q), set_=(r,))
        f.end()

    def reduction(self, f: _Function):
        n = self.pick((10_000, 100_000))
        q = self.scalar(f, "q", "int")
        u = self.scalar(f, "u")
        v = self.array(f, "v", n)
        f.stmt(f"{u} = 0.0;", set_=(u,))
        self.counted(f, q, 0, n, eligible=False, entry=1, iters=n,
                     cost=self.sequential())
        f.stmt(f"{u} = {u} + {v}[{q}];", ref=(u, v, q), set_=(u,))
        f.end()

    def outer_only(self, f: _Function):
        rows, cols = self.pick((500, 1000)), self.pick((500, 2000))
        i, j = self.scalar(f, "i", "int"), self.scalar(f, "j", "int")
        p = self.array(f, "p", rows, cols)
        v = self.array(f, "v", cols)
        self.counted(f, i, 0, rows, eligible=True, entry=1, iters=rows,
                     cost=self.helps())
        self.counted(f, j, 1, cols, eligible=False, entry=rows,
                     iters=rows * (cols - 1), cost=self.sequential())
        f.stmt(f"{p}[{i}][{j}] = {p}[{i}][{j} - 1] + {v}[{j}];",
               ref=(p, i, j, v), set_=(p,))
        f.end()
        f.end()

    def nest2(self, f: _Function):
        rows, cols = 1000, self.pick((1000, 2000))
        i, j = self.scalar(f, "i", "int"), self.scalar(f, "j", "int")
        g = self.array(f, "g", rows, cols)
        h = self.array(f, "h", cols)
        self.counted(f, i, 0, rows, eligible=True, entry=1, iters=rows,
                     cost=self.helps())
        self.counted(f, j, 0, cols, eligible=True, entry=rows, iters=rows * cols,
                     cost=self.helps())
        f.stmt(f"{g}[{i}][{j}] = {g}[{i}][{j}] * 0.5 + {h}[{j}];",
               ref=(g, i, j, h), set_=(g,))
        f.end()
        f.end()

    def nest3(self, f: _Function):
        n = 200
        i, j, l = (self.scalar(f, c, "int") for c in "ijl")
        e = self.array(f, "e", n, n)
        g = self.array(f, "f", n)
        o = self.name("o")
        self.counted(f, i, 0, n, eligible=True, entry=1, iters=n, cost=self.helps())
        self.counted(f, j, 0, n, eligible=True, entry=n, iters=n * n,
                     cost=self.helps())
        f.stmt(f"{e}[{i}][{j}] = {e}[{i}][{j}] + {g}[{j}];",
               ref=(e, i, j, g), set_=(e,))
        self.counted(f, l, 0, n, eligible=True, entry=n * n, iters=n * n * n,
                     cost=self.helps())
        f.stmt(f"float {o} = {g}[{l}] * 2.0;", ref=(g, l), define=(o,))
        f.end()
        f.end()
        f.end()

    def blocks(self, f: _Function, counts: dict[str, int]):
        kinds = [k for k, c in counts.items() for _ in range(c)]
        self.rng.shuffle(kinds)
        for kind in kinds:
            {"flat": self.flat, "timestep": self.timestep, "while": self.while_,
             "dowhile": self.dowhile, "carried": self.carried,
             "reduction": self.reduction, "outer_only": self.outer_only,
             "nest2": self.nest2, "nest3": self.nest3}[kind](f)


def generate(seed: int) -> dict:
    """Return {"source", "profile", "model", "record"} for one seed."""
    gen = Generator(seed)
    functions: list[_Function] = []
    calls = []
    for h in range(HELPERS):
        n = gen.pick(FLAT_BOUNDS[:3])
        px, py = gen.name("px", 4 * n), gen.name("py", 4 * n)
        f = _Function(f"helper{h}", [(px, n), (py, n)])
        gen.flat(f, arrays=(px, py), n=n)
        gen.blocks(f, HELPER_BLOCKS)
        f.stmt("return 0;")
        functions.append(f)
        calls.append((f.name, n))

    main = _Function("main", [])
    gen.blocks(main, MAIN_BLOCKS)
    for name, n in calls:
        pa, pb = gen.array(main, "pa", n), gen.array(main, "pb", n)
        gen.flat(main, arrays=(pa, pb), n=n)
        main.stmt(f"{name}({pa}, {pb});", ref=(pa, pb), set_=(pa, pb))
    main.stmt("return 0;")
    functions.append(main)

    lines: list[str] = []
    loops: list[dict] = []
    outside: dict[str, dict] = {}
    for f in functions:
        params = ", ".join(f"float {p}[]" for p, _ in f.params)
        lines.append(f"int {f.name}({params}) {{")
        lines.extend(f.decls)
        base = len(lines)
        lines.extend(f.body)
        lines.append("}")
        ids = {}
        for node in f.loops:
            ids[id(node)] = len(loops)
            loops.append(node)
        for node in f.loops:
            node["id"] = ids[id(node)]
            node["line"] = base + node["rel_line"] + 1
        outside[f.name] = {k: sorted(v) for k, v in f.outside.items()}

    record_loops = []
    for node in loops:
        record_loops.append({
            "id": node["id"],
            "function": node["function"],
            "parent": None if node["parent"] is None else node["parent"]["id"],
            "line": node["line"],
            "eligible": node["eligible"],
            "header_set": node["header_set"],
            "ref": sorted(node["own"]["ref"]),
            "set": sorted(node["own"]["set"]),
            "define": sorted(node["own"]["define"]),
        })
    profile = {"loops": [{"id": n["id"], "entry_count": n["entry"],
                          "total_iterations": n["iters"]} for n in loops]}
    model = {
        "loops": {str(n["id"]): {"cpu_us_per_iter": n["cost"][0],
                                 "gpu_speedup": n["cost"][1],
                                 "kernel_launch_us": n["cost"][2]} for n in loops},
        "vars": {name: {"size_bytes": size} for name, size in sorted(gen.sizes.items())},
        "transfer_fixed_us": 25.0,
        "transfer_us_per_kib": 0.05,
    }
    return {"source": "\n".join(lines) + "\n", "profile": profile, "model": model,
            "record": {"loops": record_loops, "outside": outside}}


def write(seed: int, out: Path) -> dict[str, Path]:
    """Write large.c, large_profile.json, large_model.json and
    large_record.json under out; return their paths by kind."""
    out.mkdir(parents=True, exist_ok=True)
    data = generate(seed)
    paths = {kind: out / f"large_{kind}.json" for kind in ("profile", "model", "record")}
    paths["source"] = out / "large.c"
    paths["source"].write_text(data["source"])
    for kind in ("profile", "model", "record"):
        paths[kind].write_text(json.dumps(data[kind], indent=1) + "\n")
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args()
    for kind, path in write(args.seed, Path(args.out)).items():
        print(f"{kind}: {path}")


if __name__ == "__main__":
    main()
