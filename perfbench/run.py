"""FLINNG benchmark: one workload, one seed, one fresh measured process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The parent process makes the workload's
inputs and their exact ground truth from the seed, writes them under
``.bench_work/``, and starts ``measure.py`` on them in a fresh interpreter
with BLAS and OpenMP pinned to one thread. When that process has exited, it
checks every answer it gave (oracle recall floors, reference threshold and
top-k decodes, build properties, save/load and seed determinism) and prints
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. The exit code is 0 only when every check passed.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# BLAS and OpenMP pools pinned to one thread, here and in the measured process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


def main():
    if not (SRC / "flinng" / "__init__.py").is_file():
        print(f"perfbench: no flinng package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
