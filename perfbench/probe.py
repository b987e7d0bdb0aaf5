"""Set-up probe: one fresh interpreter getting ready for the first operation.

Imports carpetlab, generates the workload's inputs and writes them to
``--workdir``, then prints ``time.perf_counter()``.  On Linux that clock is
CLOCK_MONOTONIC, shared by all processes, so the parent subtracts the time
at which it started this interpreter.

    python3 perfbench/probe.py --workload dense-sweep --seed 1 --workdir DIR
"""

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    if args.workload == "long-orbit":
        import carpetlab.scenery  # noqa: F401
    else:
        import carpetlab.cli  # noqa: F401
    from workloads import PLANS

    PLANS[args.workload](args.seed, args.small).write_inputs(Path(args.workdir))
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main()
