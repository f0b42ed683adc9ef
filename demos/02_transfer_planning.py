"""Walkthrough: data-transfer planning and directive hoisting.

The same offloaded loop can pay for its host/device transfers once, or on
every iteration of an enclosing loop, depending on where the data directive
lands.  The planner hoists each directive to the topmost loop that contains
no conflicting CPU-side access.  A directive runs once per entry to the
loop it sits before, so the entry counts at its target and at its region
make the payoff visible.
"""

import acctuner as at
from acctuner.analysis import ProfileEntry

SOURCE = """int main() {
    int t;
    int i;
    float a[64];
    float b[64];
    float c;
    float sum;
    c = 2.5;
    b[0] = 1.0;
    sum = 0.0;
    for (t = 0; t < 1000; t++) {
        for (i = 0; i < 64; i++) {
            a[i] = b[i] * c;
        }
        sum += a[t];
    }
    return 0;
}
"""

program = at.parse(SOURCE)
tree = at.build_loop_tree(program)
accesses = at.extract_accesses(program)
genome_map = at.build_genome_map(at.check_all_parallelizable(tree, accesses))

# select the inner loop (the only eligible one)
plan = at.plan_transfers(program, tree, accesses, "1", genome_map)

print("Planned directives for genome '1' (inner loop on the GPU):")
for directive in plan.directives:
    print(f"  {directive.clause}({','.join(directive.vars)}) "
          f"before loop {directive.target_loop} "
          f"(needed by region {directive.origin_region})")

profile = {0: ProfileEntry(1, 1000), 1: ProfileEntry(1000, 64_000)}
print("\nTransfer executions per program run:")
for directive in plan.directives:
    print(f"  {directive.clause}({','.join(directive.vars)}): "
          f"{profile[directive.target_loop].entry_count} at loop {directive.target_loop}, "
          f"{profile[directive.origin_region].entry_count} "
          f"at its region loop {directive.origin_region}")

annotated = at.emit_annotated(program, tree, "1", genome_map, plan)
print("\nAnnotated source:")
print(annotated.text)
