"""acctuner: source-to-source GPU-offload autotuner.

Parses a C-like subset, finds parallelizable loops, searches offload
patterns with a genetic algorithm, plans hoisted host/device data
transfers, and emits OpenACC-style annotated source plus a search report.
A deterministic simulated evaluator makes the whole search testable
without a GPU.

The top level exports the analysis, planning and search calls that the
demos use, build_evaluator among them; everything else is imported from
its submodule (acctuner.pipeline, acctuner.evaluation, ...).
"""

from .analysis import (
    GenomeMap,
    ParallelizabilityVerdict,
    Profile,
    build_genome_map,
    check_all_parallelizable,
    gate,
    load_profile,
)
from .emitter import emit_annotated
from .evaluation import CostModel, load_cost_model, simulate_time
from .ga import GAConfig, init_population, run_ga
from .loops import build_loop_tree, extract_accesses
from .parser import parse
from .pipeline import build_evaluator
from .transfer import check_genome_valid, plan_transfers

__version__ = "0.1.0"
