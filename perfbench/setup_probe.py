"""One set-up sample in a fresh interpreter.

    python3 perfbench/setup_probe.py --workload NAME

Times ``import funspace`` plus the workload's preparation, which needs no
generated inputs, with the reference kernel run right before and right
after, and prints
``{"wall_s": ..., "kernel_s": ...}``.  run.py starts several of these and
reports the median calibrated sample as ``setup_s``.
"""

from __future__ import annotations

import argparse
import json

from run import timed_setup
from workloads import WORKLOADS


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    _, _, wall, kernel = timed_setup(WORKLOADS[args.workload])
    print(json.dumps({"wall_s": wall, "kernel_s": kernel}))


if __name__ == "__main__":
    main()
