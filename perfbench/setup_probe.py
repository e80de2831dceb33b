"""Time one benchmark set-up in a fresh interpreter: lossjm import plus inputs.

Usage: python3 perfbench/setup_probe.py ROOT WORKLOAD SEED TINY(0|1)
Prints the seconds from before ``import lossjm`` to the built operation list.
run.py starts it several times per run and reports the median as setup_s.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    root, workload, seed, tiny = sys.argv[1:]
    start = time.perf_counter()
    import workloads

    lj = workloads.import_lossjm(Path(root))
    workloads.WORKLOADS[workload](lj, int(seed), tiny == "1")
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
