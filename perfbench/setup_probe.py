"""One cold set-up, timed in a fresh interpreter: import idsets and its CLI,
then generate and write a workload's inputs. Prints the seconds taken,
scaled for the host's speed as in speed.py from kernel runs just before
and just after.

    python3 perfbench/setup_probe.py <workload> <seed> <output dir>
"""

import sys
import time
from pathlib import Path

import workloads
from speed import REF_S, timed_kernel

if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    kernels = [timed_kernel() for _ in range(8)][3:]
    start = time.perf_counter()
    import idsets.cli  # noqa: F401  (the cold import is part of set-up)
    workloads.build(workload, seed, out_dir)
    took = time.perf_counter() - start
    kernels += [timed_kernel() for _ in range(5)]
    print(took * REF_S * sum(1 / k for k in kernels) / len(kernels))
