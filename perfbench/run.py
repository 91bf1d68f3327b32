"""Benchmark of proben's fuse, eval and calibrate commands on synthetic workloads.

    python3 perfbench/run.py --workload kaist-2k --seed 0 --seconds 60 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run generates the workload's inputs with ``proben synth`` (set-up,
repeated), then runs whole rounds of ``fuse``, ``eval --breakdown --curves``
and ``calibrate`` in-process through ``proben.cli.main`` while a round as
long as the last one still ends within ``--seconds`` of process start, and
finally checks every output against ``reference``. The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (command calls) and ``metrics``, which holds
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics.
"""

import os
import sys
import time


def _seconds_since_process_start() -> float:
    """Wall time since the process started, read from /proc; 0 without /proc."""
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


PROCESS_START = time.perf_counter() - _seconds_since_process_start()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")


def import_program():
    """Import proben.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SOURCE)
    try:
        import proben.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import proben from {SOURCE}: {exc}")
    if not os.path.abspath(proben.cli.__file__).startswith(SOURCE + os.sep):
        raise SystemExit(f"error: proben was imported from {proben.cli.__file__}, not {SOURCE}")
    return proben.cli


# Import the program first: set-up time counts from process start to here,
# plus the median time of one `proben synth`.
CLI = import_program()
IMPORT_SECONDS = time.perf_counter() - PROCESS_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

from checks import Checker  # noqa: E402
from tracing import Tracer, layer_metrics, unit  # noqa: E402
from workloads import WORKLOADS, sha256  # noqa: E402

SETUPS = 3
OUT = os.path.join(ROOT, "perfbench", "out")
# What the commands write, their standard output included: fuse.stdout,
# fused.jsonl, eval.*, calibrate.*.
OUTPUT_PREFIXES = ("fuse", "eval.", "calibrate.")


def run_command(argv, stdout_path):
    """Run one proben command in-process; returns (seconds, succeeded)."""
    start = time.perf_counter()
    try:
        with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            code = CLI.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc()
        code = None
    return time.perf_counter() - start, code == 0


def output_digest(workdir):
    names = sorted(n for n in os.listdir(workdir) if n.startswith(OUTPUT_PREFIXES))
    return tuple((n, sha256(os.path.join(workdir, n))) for n in names)


def set_up(workload, seed, workdir, tracer=None, times=SETUPS):
    """Generate the inputs `times` times, then apply the workload's transforms.

    Returns the seconds of each `proben synth` and the set of input digests
    (one element when every set-up wrote the same files)."""
    os.makedirs(workdir)
    seconds, digests = [], set()
    for _ in range(times):
        if tracer:
            tracer.begin("setup")
        elapsed, ok = run_command(workload.synth_argv(seed, workdir),
                                  os.path.join(workdir, "synth.stdout"))
        if not ok:
            raise SystemExit(f"error: proben synth failed for {workload.name}")
        seconds.append(elapsed)
        digests.add(tuple((os.path.basename(p), sha256(p))
                          for p in workload.generated_files(workdir)))
    workload.transform_inputs(workdir)
    return seconds, digests


def run_round(workload, workdir):
    """One round of the workload's commands; returns the seconds of each step that succeeded."""
    timings = {}
    for step, argv in workload.commands(workdir):
        elapsed, ok = run_command(argv, os.path.join(workdir, f"{step}.stdout"))
        if ok:
            timings[step] = elapsed
    return timings


def measure(workload, workdir, deadline, tracer):
    """At least one round, then more while a round as long as the last one
    ends by the deadline (a perf_counter value); returns the rounds' timings
    and the set of output digests (one element when every round agreed)."""
    rounds, outputs = [], set()
    while True:
        if tracer:
            tracer.begin("round")
        began = time.perf_counter()
        rounds.append(run_round(workload, workdir))
        outputs.add(output_digest(workdir))
        now = time.perf_counter()
        if now + (now - began) > deadline:
            return rounds, outputs


def failed_steps(steps, rounds):
    """Problems for steps that failed in every round, and the steps whose
    outputs cannot be checked because their last call failed."""
    problems = [f"{step}: failed in all {len(rounds)} rounds"
                for step in steps if not any(step in r for r in rounds)]
    return problems, {step for step in steps if step not in rounds[-1]}


def end_to_end(workload, synth_seconds, rounds, peak_rss_mb):
    """The end-to-end metrics; a step with no successful round has no throughput."""
    metrics = {"setup_s": (IMPORT_SECONDS + statistics.median(synth_seconds), "s")}
    for name, step, amount in (("fuse_images_per_s", "fuse", workload.images),
                               ("eval_images_per_s", "eval", workload.images),
                               ("calibrate_points_per_s", "calibrate", workload.grid_points())):
        seconds = [r[step] for r in rounds if step in r]
        if seconds:
            metrics[name] = (statistics.median(amount / s for s in seconds), "1/s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, "work", workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = Tracer() if args.trace else None

    with tracer.installed() if tracer else contextlib.nullcontext():
        synth_seconds, input_digests = set_up(workload, args.seed, workdir, tracer)
        rounds, outputs = measure(workload, workdir, PROCESS_START + args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    steps = [step for step, _ in workload.commands(workdir)]
    problems, unchecked = failed_steps(steps, rounds)
    checker = Checker(workload, workdir)
    problems += checker.check(skip=unchecked)
    if len(input_digests) != 1:
        problems.append("set-up: proben synth wrote different files for the same seed")
    if len(outputs) != 1:
        problems.append("outputs differ between rounds of the same inputs")
    attempted = len(rounds) * len(steps)
    failed = attempted - sum(len(r) for r in rounds)

    e2e = end_to_end(workload, synth_seconds, rounds, peak_rss_mb)
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "inputs": dict(checker.makeup(),
                       sha256=dict(next(iter(input_digests)))),
        "synth_seconds": synth_seconds,
        "round_seconds": rounds,
        "problems": problems,
    }))
    if tracer:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.write(os.path.join(OUT, "traces", f"{workload.name}-seed{args.seed}.jsonl"),
                     {"workload": workload.name, "seed": args.seed})
        metrics = {name: (value, unit(name))
                   for name, value in sorted(layer_metrics(tracer).items())}
        print("end-to-end (traced): " + json.dumps({k: v[0] for k, v in e2e.items()}),
              file=sys.stderr)
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
