import itertools
import json
import random

import pytest

import acctuner as at
from acctuner.analysis import ProfileEntry
from acctuner.errors import InvalidGenome
from acctuner.transfer import check_genome_valid, plan_transfers, regions

import lowering_family
from conftest import FIXTURES, analyze, gen_large_record


def plan_for(text, bits):
    program, tree, accesses = analyze(text)
    gm = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    plan = plan_transfers(program, tree, accesses, bits, gm)
    return program, tree, accesses, gm, plan


def directive_tuples(plan):
    return [(d.clause, d.vars, d.target_loop, d.origin_region)
            for d in plan.directives]


GOLDEN = FIXTURES / "golden"


# ---- the three rule examples, golden plans ----

def test_copyin_copyout_at_single_loop():
    text = (GOLDEN / "copyinout.c").read_text()
    _, _, _, _, plan = plan_for(text, "1")
    assert directive_tuples(plan) == [
        ("copyin", ("b",), 0, 0),
        ("copyout", ("a",), 0, 0),
    ]


def test_copyin_hoisted_copyout_blocked():
    text = (GOLDEN / "hoist.c").read_text()
    _, _, _, _, plan = plan_for(text, "1")
    assert directive_tuples(plan) == [
        ("copyin", ("b", "c"), 0, 1),    # hoisted to the t-loop
        ("copyout", ("a",), 1, 1),       # blocked by sum += a[t]
    ]


def test_copy_merge_hoisted_to_outer():
    text = (GOLDEN / "copymerge.c").read_text()
    _, _, _, _, plan = plan_for(text, "1")
    assert directive_tuples(plan) == [
        ("copy", ("a",), 0, 1),
    ]


# ---- invariants ----

def test_invalid_genome_rejected():
    text = """int main() {
    int i; int j; float m[10][10]; float b[10][10];
    for (i = 0; i < 10; i++) {
        for (j = 0; j < 10; j++) { m[i][j] = b[i][j]; }
    }
    m[0][0] = 0.0;
    return 0;
}
"""
    program, tree, accesses = analyze(text)
    gm = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    assert gm.loop_ids == (0, 1)
    assert not check_genome_valid("11", gm, tree)
    with pytest.raises(InvalidGenome):
        plan_transfers(program, tree, accesses, "11", gm)


def _genomes(fixture, rng):
    """Every genome of a small fixture; seeded samples of a larger one, at
    three selection densities so that nested pairs come up."""
    a = len(fixture.genome_map)
    if fixture.name in ("siblings3", "nested3", "deep3", "synergy5"):
        return ["".join(bits) for bits in itertools.product("01", repeat=a)]
    return ["".join("1" if rng.random() < p else "0" for _ in range(a))
            for p in (0.1, 0.3, 0.6) for _ in range(100)]


def test_regions_contract(tune_fixtures, stress_fixture):
    rng = random.Random(5)
    nested_seen = 0
    for fixture in (*tune_fixtures.values(), stress_fixture):
        gm, tree = fixture.genome_map, fixture.tree
        for bits in _genomes(fixture, rng):
            chosen = {loop for loop, bit in zip(gm.loop_ids, bits) if bit == "1"}
            if any(chosen.intersection(tree[loop].ancestors) for loop in chosen):
                nested_seen += 1
                with pytest.raises(InvalidGenome):
                    regions(bits, gm, tree)
                assert not check_genome_valid(bits, gm, tree)
                continue
            region_of = regions(bits, gm, tree)
            assert len(region_of) == len(tree)
            for node in tree:
                inside = chosen.intersection((node.loop_id, *node.ancestors))
                assert len(inside) <= 1
                assert region_of[node.loop_id] == (inside.pop() if inside else None)
            assert check_genome_valid(bits, gm, tree)
            for bad in (bits[:-1], bits + "0", "2" + bits[1:], bits[:-1] + " "):
                with pytest.raises(InvalidGenome):
                    regions(bad, gm, tree)
    assert nested_seen > 0


def test_genome_length_mismatch_rejected():
    program, tree, accesses = analyze(
        "int main(){int i; float a[4]; for(i=0;i<4;i++){ a[i] = 1.0; }}")
    gm = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    with pytest.raises(InvalidGenome):
        plan_transfers(program, tree, accesses, "10", gm)


def test_variable_local_to_region_not_transferred():
    text = """int main() {
    int t; int i;
    float b[100];
    b[0] = 1.0;
    for (t = 0; t < 10; t++) {
        for (i = 0; i < 100; i++) {
            float scratch[100];
            scratch[i] = b[i] * 2.0;
        }
    }
    return 0;
}
"""
    _, _, _, _, plan = plan_for(text, "1")
    for directive in plan.directives:
        assert "scratch" not in directive.vars


def test_region_loop_counters_not_transferred():
    text = (GOLDEN / "hoist.c").read_text()
    _, _, _, _, plan = plan_for(text, "1")
    for directive in plan.directives:
        assert "i" not in directive.vars
        assert "t" not in directive.vars


def test_enclosing_counter_is_transferred_per_entry():
    # the inner region reads the outer counter t, whose header updates block
    # any hoist, so the copyin stays at the region and runs once per entry
    text = """int main() {
    int t; int i;
    float m[10][100];
    for (t = 0; t < 10; t++) {
        for (i = 0; i < 100; i++) {
            m[t][i] = m[t][i] + 1.0;
        }
    }
    m[0][0] = 0.0;
    return 0;
}
"""
    program, tree, accesses = analyze(text)
    gm = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    assert gm.loop_ids == (0, 1)
    plan = plan_transfers(program, tree, accesses, "01", gm)
    t_dirs = [d for d in plan.directives if "t" in d.vars]
    assert len(t_dirs) == 1
    assert t_dirs[0].clause == "copyin"
    assert t_dirs[0].target_loop == 1


def _blockers_between(tree, accesses, directive, selected, kinds):
    """CPU-side accesses of the directive's vars in loops strictly between
    target and region, plus the target loop itself."""
    region = directive.origin_region
    chain = [region, *tree[region].ancestors]
    between = chain[1:chain.index(directive.target_loop) + 1]
    hits = []
    for access in accesses:
        if access.var not in directive.vars or access.kind not in kinds:
            continue
        if selected.intersection(access.loop_path):
            continue
        if any(loop in access.loop_path for loop in between):
            hits.append(access)
    return hits


@pytest.mark.parametrize("stem,bits", [
    ("copyinout", "1"), ("hoist", "1"), ("copymerge", "1")])
def test_hoisting_never_crosses_a_blocker(stem, bits):
    text = (GOLDEN / f"{stem}.c").read_text()
    _, tree, accesses, gm, plan = plan_for(text, bits)
    selected = {gm.loop_ids[k] for k, b in enumerate(bits) if b == "1"}
    blocker_kinds = {"copyin": ("set", "define"),
                     "copyout": ("ref", "set", "define"),
                     "copy": ("ref", "set", "define")}
    for directive in plan.directives:
        kinds = blocker_kinds[directive.clause]
        if directive.clause == "copy":
            # merged directive: only the tighter (copyout) chain must be clean
            kinds = ("ref", "set", "define")
        assert _blockers_between(tree, accesses, directive, selected, kinds) == []


def test_hoisting_is_maximal():
    text = (GOLDEN / "hoist.c").read_text()
    _, tree, accesses, gm, plan = plan_for(text, "1")
    selected = {1}
    for directive in plan.directives:
        ancestors = tree[directive.target_loop].ancestors
        if not ancestors:
            continue
        parent = ancestors[0]
        kinds = ("set", "define") if directive.clause == "copyin" \
            else ("ref", "set", "define")
        blocked = [a for a in accesses
                   if a.var in directive.vars and a.kind in kinds
                   and parent in a.loop_path
                   and not selected.intersection(a.loop_path)]
        assert blocked, f"{directive} could hoist to loop {parent}"


def test_exec_counts_follow_entry_counts():
    text = (GOLDEN / "hoist.c").read_text()
    _, tree, _, _, plan = plan_for(text, "1")
    profile = {0: ProfileEntry(1, 100), 1: ProfileEntry(100, 6400)}
    by_clause = {d.clause: profile[d.target_loop].entry_count for d in plan.directives}
    assert by_clause == {"copyin": 1, "copyout": 100}


def test_exec_count_zero_for_dead_loop():
    text = (GOLDEN / "copyinout.c").read_text()
    _, tree, _, _, plan = plan_for(text, "1")
    profile = {0: ProfileEntry(0, 0)}
    assert all(profile[d.target_loop].entry_count == 0 for d in plan.directives)


def test_unhoisted_counts_dominate():
    text = (GOLDEN / "hoist.c").read_text()
    _, tree, _, _, plan = plan_for(text, "1")
    profile = {0: ProfileEntry(1, 100), 1: ProfileEntry(100, 6400)}
    for directive in plan.directives:
        assert (profile[directive.target_loop].entry_count
                <= profile[directive.origin_region].entry_count)


def test_plan_determinism_and_canonical_order(tune_fixtures):
    for fixture in tune_fixtures.values():
        a = len(fixture.genome_map)
        for combo in itertools.product("01", repeat=min(a, 4)):
            bits = "".join(combo).ljust(a, "0")
            if not check_genome_valid(bits, fixture.genome_map, fixture.tree):
                continue
            plan1 = plan_transfers(fixture.program, fixture.tree,
                                   fixture.accesses, bits, fixture.genome_map)
            plan2 = plan_transfers(fixture.program, fixture.tree,
                                   fixture.accesses, bits, fixture.genome_map)
            assert plan1 == plan2
            keys = [(d.target_loop, d.clause, d.vars[0]) for d in plan1.directives]
            assert keys == sorted(keys)
            for directive in plan1.directives:
                assert directive.vars == tuple(sorted(set(directive.vars)))


def test_at_most_one_clause_per_var_and_region(tune_fixtures):
    for fixture in tune_fixtures.values():
        a = len(fixture.genome_map)
        bits = "1" + "0" * (a - 1)
        plan = plan_transfers(fixture.program, fixture.tree, fixture.accesses,
                              bits, fixture.genome_map)
        seen = set()
        for directive in plan.directives:
            for var in directive.vars:
                key = (var, directive.origin_region)
                assert key not in seen
                seen.add(key)


def test_empty_genome_plan_is_empty(tune_fixtures):
    fixture = tune_fixtures["siblings3"]
    bits = "0" * len(fixture.genome_map)
    plan = plan_transfers(fixture.program, fixture.tree, fixture.accesses,
                          bits, fixture.genome_map)
    assert plan.directives == ()


def test_transfers_scoped_to_region_function():
    # x lives in both functions; only the region's own function matters
    text = """int helper(float x[50]) {
    int i;
    for (i = 0; i < 50; i++) {
        x[i] = x[i] * 2.0;
    }
    return 0;
}
int main() {
    int k;
    float x[50];
    float y[50];
    x[0] = 1.0;
    for (k = 0; k < 50; k++) {
        y[k] = x[k] + 1.0;
    }
    y[0] = y[0] * 2.0;
    return 0;
}
"""
    program, tree, accesses = analyze(text)
    gm = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    assert gm.loop_ids == (0, 1)

    # select only helper's loop: its x is a parameter, set+ref on the GPU,
    # and the parameter Define counts as a CPU-side access of that function
    plan = plan_transfers(program, tree, accesses, "10", gm)
    assert [(d.clause, d.vars, d.target_loop) for d in plan.directives] == \
        [("copy", ("x",), 0)]

    # select only main's loop: main's x and y, never helper's
    plan = plan_transfers(program, tree, accesses, "01", gm)
    clauses = {(d.clause, d.vars) for d in plan.directives}
    assert ("copyin", ("x",)) in clauses
    assert ("copyout", ("y",)) in clauses
    assert all(d.target_loop == 1 for d in plan.directives)


# ---- no variable in two nested data constructs ----

PLAN_GOLDENS = sorted((FIXTURES / "outputs").glob("plans_*.jsonl"))


def nested_names(tree, directives):
    """(var, outer, inner) for each variable that (target loop, vars) pairs
    name at a loop and again at a loop nested in it."""
    targets: dict[str, list[int]] = {}
    for target, vars_ in directives:
        for var in vars_:
            targets.setdefault(var, []).append(target)
    return [(var, outer, inner) for var, loops in targets.items()
            for inner in loops for outer in loops if outer in tree[inner].ancestors]


NESTED_CLAUSE = """int main() {
    int k; int t; int i; int j; int m;
    float v[100]; float w[100]; float u[100]; float s;
    for (k = 0; k < 100; k++) { v[k] = 1.0; }
    for (t = 0; t < 10; t++) {
        for (i = 0; i < 100; i++) { w[i] = v[i]; }
        for (j = 0; j < 100; j++) { v[j] = 2.0; }
        THIRD
        s = v[0];
    }
    return 0;
}
"""


def test_outer_clause_is_lowered_below_a_nested_one():
    # region 2's copyin(v) would hoist to loop 1 (not eligible), and region
    # 3's copyout(v) stays at loop 3, blocked by s = v[0]; inside loop 1's
    # data region v is present, so copyout(v) would transfer nothing
    text = NESTED_CLAUSE.replace("THIRD", "")
    _, tree, _, gm, plan = plan_for(text, "011")
    assert gm.loop_ids == (0, 2, 3)
    assert directive_tuples(plan) == [
        ("copyout", ("w",), 1, 2),
        ("copyin", ("v",), 2, 2),
        ("copyout", ("v",), 3, 3),
    ]
    assert nested_names(tree, [(d.target_loop, d.vars) for d in plan.directives]) == []


def test_lowered_clause_goes_back_to_every_region_that_fed_it():
    # regions 2 and 4 both hoist copyin(v) to loop 1, where it merges; each
    # needs its own copyin(v) once loop 1's clause is lowered
    text = NESTED_CLAUSE.replace("THIRD", "for (m = 0; m < 100; m++) { u[m] = v[m]; }")
    _, tree, _, gm, plan = plan_for(text, "0111")
    assert gm.loop_ids == (0, 2, 3, 4)
    assert directive_tuples(plan) == [
        ("copyout", ("u",), 1, 4),
        ("copyout", ("w",), 1, 2),
        ("copyin", ("v",), 2, 2),
        ("copyout", ("v",), 3, 3),
        ("copyin", ("v",), 4, 4),
    ]
    assert nested_names(tree, [(d.target_loop, d.vars) for d in plan.directives]) == []


@pytest.mark.parametrize("golden", PLAN_GOLDENS, ids=lambda p: p.stem)
def test_plan_goldens_name_no_variable_in_nested_constructs(golden):
    stem = golden.stem.removeprefix("plans_")
    directory = "stress" if stem == "stress75" else "tune"
    _, tree, _ = analyze((FIXTURES / directory / f"{stem}.c").read_text())
    lines = golden.read_text().splitlines()
    assert lines
    for line in lines:
        plan = json.loads(line)
        pairs = [(d["target_loop"], d["vars"]) for d in plan["directives"]]
        assert nested_names(tree, pairs) == [], plan["genome"]


def test_lowering_family_plans_name_no_variable_in_nested_constructs():
    lines = (FIXTURES / "outputs" / "lowering_family_plans.jsonl").read_text().splitlines()
    trees = {seed: lowering_family.analyze(seed)[1] for seed in lowering_family.SEEDS}
    assert len(lines) >= len(trees)
    for line in lines:
        plan = json.loads(line)
        pairs = [(d["target_loop"], d["vars"]) for d in plan["directives"]]
        assert nested_names(trees[plan["seed"]], pairs) == [], (plan["seed"], plan["genome"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gen_large_plans_name_no_variable_in_nested_constructs(seed):
    program, tree, accesses = analyze(gen_large_record(seed)["source"])
    gm = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
    rng = random.Random(seed)
    planned = 0
    while planned < 40:
        bits = "".join(rng.choice("01") for _ in range(len(gm)))
        if not check_genome_valid(bits, gm, tree):
            continue
        plan = plan_transfers(program, tree, accesses, bits, gm)
        pairs = [(d.target_loop, d.vars) for d in plan.directives]
        assert nested_names(tree, pairs) == [], bits
        planned += 1
