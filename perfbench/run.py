#!/usr/bin/env python3
"""Benchmark of the quantes package, run from the root of a checkout.

    python3 perfbench/run.py --workload rescore --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --out results.json
    python3 perfbench/run.py --compare base.json new.json

Workloads: fit_cold, portfolio_roll, rescore, allocate, or all of them in one
process. ``--trace 1`` adds per-layer numbers from spans and probes. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json, or its
``per_layer`` metrics under ``--trace 1``. ``--out`` keeps the full result,
with the environment record; ``--compare`` prints each metric of a new result
file as a ratio to a base one and exits 1 when any is worse than its bound.

The package is imported from ``src/`` of the same checkout and nowhere else;
without it the run stops with exit code 2 before printing a result.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fit_cold", "portfolio_roll", "rescore", "allocate", "all")


def _parser():
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.compare is None and args.workload is None:
        print("error: --workload or --compare is required", file=sys.stderr)
        return 2
    # small matrices only: one BLAS thread keeps timings steady on shared cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import quantes
    except ImportError as exc:
        print(f"error: cannot import quantes from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(quantes.__file__).resolve().is_relative_to(src):
        print(f"error: quantes came from {quantes.__file__}, not {src}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    from perfbench import bench

    return bench.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
