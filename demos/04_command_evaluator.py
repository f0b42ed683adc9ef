"""Walkthrough: the external-command evaluator protocol.

A real deployment points compile_cmd at an OpenACC compiler and run_cmd at
a benchmark.  Here stub shell commands exercise the whole contract: compile
failure becomes Invalid and a run past the timeout becomes Timeout, each
with the seconds its failing step ran.  The search, not the evaluator,
prices an invalid or timed-out trial at the penalty time (`--penalty`), as
it does a nested genome.
"""

from acctuner.evaluation import CommandEvaluatorConfig, command_evaluate
from acctuner.ga import DEFAULT_PENALTY_SECONDS, fitness_from_time

cases = [
    ("compiler rejects the directives",
     CommandEvaluatorConfig("false", "true", timeout_seconds=2.0)),
    ("benchmark overruns a 1s timeout",
     CommandEvaluatorConfig("true", "sleep 3", timeout_seconds=1.0)),
    ("healthy compile and run",
     CommandEvaluatorConfig("cp '{src}' '{bin}'", "test -f '{bin}'",
                            timeout_seconds=2.0)),
]

source = "int main() { return 0; }\n"
for label, config in cases:
    # each call writes the source to a trial file in the system temp
    # directory, compiles and runs it, and removes it with its .bin
    measurement = command_evaluate(config, source)
    # how run_ga prices the trial
    priced = (measurement.seconds if measurement.status == "measured"
              else DEFAULT_PENALTY_SECONDS)
    print(f"{label}:")
    print(f"  status={measurement.status} seconds={measurement.seconds:.6g} "
          f"priced at {priced:.6g} s, fitness={fitness_from_time(priced):.6g}\n")
