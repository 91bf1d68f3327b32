"""Write each workload's outputs to a directory, to compare two commits byte for byte.

    python3 perfbench/dump.py --out /tmp/outputs-a [--seed 0]

For each workload the inputs are generated anew from the seed, one round of
``fuse``, ``eval --breakdown --curves`` and ``calibrate`` runs, and the fused
JSONL, the eval JSON, TXT and CSV files, the calibration surface and best
point, and each command's standard output are copied to ``OUT/<workload>/``.
Nothing is stored as an expected copy: run this on both commits and compare
with ``diff -r``.
"""

import argparse
import os
import shutil
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory to write the outputs to")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        workdir = os.path.join(run.OUT, "work", name)
        shutil.rmtree(workdir, ignore_errors=True)
        run.set_up(workload, args.seed, workdir, times=1)
        timings = run.run_round(workload, workdir)
        failed = {step for step, _ in workload.commands(workdir)} - set(timings)
        if failed:
            raise SystemExit(f"error: {name}: {', '.join(sorted(failed))} failed")
        target = os.path.join(args.out, name)
        os.makedirs(target, exist_ok=True)
        names = [n for n in sorted(os.listdir(workdir)) if n.startswith(run.OUTPUT_PREFIXES)]
        for n in names:
            shutil.copyfile(os.path.join(workdir, n), os.path.join(target, n))
        print(f"{name}: {len(names)} files -> {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
