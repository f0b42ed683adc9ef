"""Walkthrough: the full genetic search against the simulated evaluator.

Uses the shipped mix10 fixture: ten offloadable sibling loops where the
cost model makes some worth offloading and others not.  The search report
shows the per-generation best time falling as the population converges,
and the dedup cache keeping repeated genomes free.
"""

from pathlib import Path

import acctuner as at

FIXTURES = Path(__file__).parent.parent / "tests" / "fixtures" / "tune"

source = (FIXTURES / "mix10.c").read_text()
program = at.parse(source)
tree = at.build_loop_tree(program)
accesses = at.extract_accesses(program)
profile = at.load_profile(FIXTURES / "mix10_profile.json", tree)
genome_map = at.build_genome_map(at.check_all_parallelizable(tree, accesses))
evaluate = at.build_evaluator(f"sim:{FIXTURES / 'mix10_model.json'}", program, tree,
                              accesses, genome_map, profile)

baseline = evaluate("0" * len(genome_map)).seconds
print(f"gene length a = {len(genome_map)}; all-CPU baseline = {baseline:.4f}s\n")

config = at.GAConfig(population=30, generations=20, rng_seed=7)
result = at.run_ga(config, genome_map, tree, evaluate)

print("gen  best_seconds  best_fitness  evals  cache_hits")
for stats in result.history:
    print(f"{stats.gen:3d}  {stats.best_seconds:12.6f}  "
          f"{stats.best_fitness:12.6f}  {stats.evals:5d}  "
          f"{stats.cache_hits:10d}")

print(f"\nbest genome {result.best.genome} -> {result.best.seconds:.4f}s "
      f"({baseline / result.best.seconds:.2f}x over all-CPU)")

plan = at.plan_transfers(program, tree, accesses, result.best.genome, genome_map)
annotated = at.emit_annotated(program, tree, result.best.genome, genome_map, plan)
kernels = [line.strip() for line in annotated.text.splitlines()
           if "#pragma" in line]
print(f"{len(kernels)} directive lines in the annotated best source, e.g.:")
for line in kernels[:4]:
    print(f"  {line}")
