"""lagflow benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload paths --seed 1 --seconds 20 --trace 0

Run from the root of a lagflow checkout; the package is imported from
``src/``.  The run sets up its inputs from the seed (five times, to report
the median set-up time), then repeats whole rounds of the workload's
operations until ``--seconds`` have passed, checking every answer.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it adds
one traced round and prints the per-layer metrics.  The last line of stdout
is the result object; the same object, with machine details, is written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# one process, operations one after another, one BLAS thread: set before
# numpy loads so the pools start single-threaded (children inherit it)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("paths", "paths_n64", "mesh", "cli")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lagflow" / "__init__.py").is_file():
        print(f"bench: no lagflow package under {SRC}; run from a lagflow checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import run_benchmark  # imports numpy and lagflow

    return run_benchmark(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
