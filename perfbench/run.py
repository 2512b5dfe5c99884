"""Entry point of the semipar benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload semisort-uniform --seed 1 --seconds 10 --trace 0

The workloads and metrics are listed in BENCHMARK.json and described in
perfbench/README.md.  The library is imported from ``src/`` of the same
checkout; without it the run exits with code 2 and prints no result.
"""

import os
import sys
from pathlib import Path

# One caller on one thread: pin every native thread pool before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "semipar" / "__init__.py").is_file():
        print(f"perfbench: no library source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
