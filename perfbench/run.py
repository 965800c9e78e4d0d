"""refsel benchmark entry point.

    python3 perfbench/run.py --workload planted_small --seed 1 --seconds 20 --trace 0

Run from the root of a refsel checkout; the program is imported and run
from ``src/`` of that checkout. ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKROOT = ROOT / ".perfbench_work"

# Part of every workload's definition: training runs PARALLELISM=2 threads
# on a 2-core machine, and a second BLAS thread under each of them made
# wide_deep's select and export-q times swing by up to 70% between runs.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measuring time of the end-to-end loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to seconds (used by the smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "refsel" / "cli.py").is_file():
        print(f"error: no refsel sources at {SRC}; run from a refsel checkout",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported, so the
    # pin must be in place before any import below; children inherit it.
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))
    import refsel

    if Path(refsel.__file__).resolve().parent != SRC / "refsel":
        print(f"error: imported refsel from {refsel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.tiny, WORKROOT)
    try:
        WORKROOT.rmdir()
    except OSError:
        pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
