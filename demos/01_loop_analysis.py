"""Walkthrough: parsing, the loop tree, and variable-access classification.

Feed a small C-like program through the front end and look at what the
analysis passes see: pre-order loop numbering, each loop's enclosing loops,
canonical-loop detection, and every identifier occurrence classified as
define / set / ref, where a loop's accesses are one run of that list.
"""

import acctuner as at

SOURCE = """int main() {
    int t;
    int i;
    float a[64];
    float b[64];
    float sum;
    sum = 0.0;
    b[0] = 1.0;
    for (t = 0; t < 100; t++) {
        for (i = 0; i < 64; i++) {
            a[i] = b[i] * 2.0;
        }
        sum += a[t];
    }
    return 0;
}
"""

program = at.parse(SOURCE)
tree = at.build_loop_tree(program)
accesses = at.extract_accesses(program)

print("Loop tree (ids are assigned in textual pre-order):")
for node in tree:
    parent = "top level" if not node.ancestors else f"inside loops {list(node.ancestors)}"
    canonical = "not canonical" if node.counter is None else "canonical"
    print(f"  loop {node.loop_id}: {node.kind} at line {node.header_pos.line}, "
          f"{parent}, {canonical}, counter={node.counter}")

inner = tree[1]
print("\nAccesses in the body of the inner loop (loop 1):")
for access in accesses[inner.access_start:inner.access_stop]:
    if access.header_of is None:
        print(f"  {access.var:4s} {access.kind:6s} line {access.pos.line} "
              f"loop_path={list(access.loop_path)}")

print("\nParallelizability verdicts (conservative built-in rules):")
for verdict in at.check_all_parallelizable(tree, accesses):
    print(f"  loop {verdict.loop_id}: {'eligible' if verdict.eligible else 'NO':8s} "
          f"({verdict.reason})")

genome_map = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
print(f"\nGenome map: gene k controls loop {list(genome_map.loop_ids)}; "
      f"gene length a = {len(genome_map)}")
