"""Benchmark-suite configuration.

Every bench regenerates one table or figure from the paper, printing
paper-style rows (run with ``-s`` to see them live; they are also
recorded under ``results/``) and asserting the qualitative shape the
paper reports. ``benchmark.pedantic(..., rounds=1)`` is used throughout:
each simulation run is already seconds long and fully deterministic.
"""


def run_once(benchmark, fn):
    """Benchmark a deterministic multi-second simulation exactly once."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
