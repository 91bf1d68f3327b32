"""Time each stage of proben's pipeline in process on the seeded kaist-like scene.

    python3 tools/stage_times.py [--seed 0] [--images 2000] [--repeat 9]

Run from anywhere; proben is imported from this checkout's ``src/``. Each
stage runs ``--repeat`` times in a row on what the stage before it made,
through the same calls the commands make: ``generate`` and ``synth``'s
writes, the JSONL reads, ``DetectionBatch``, ``fuse_columns`` and the output
step of ``fuse_detections`` (as ``fuse`` does, with ``--score-fusion proben
--box-fusion v-avg``), the fused file's write and read, ``breakdown`` and the
precision/recall and miss-rate/FPPI curve CSVs (as ``eval --breakdown
--curves`` does) and ``grid_search`` over the one grid point (T=1, b=0).
``synth`` and ``eval --breakdown --curves`` are also timed whole, through
``proben.cli.main``.

Standard output is one JSON object: the seed, image count and repeat count,
and for each stage, in pipeline order, the best and the median milliseconds.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from proben import cli, engine  # noqa: E402
from proben.calibrate import GridSpec, grid_search  # noqa: E402
from proben.engine import DetectionBatch, FusionConfig, fuse_columns, fuse_detections  # noqa: E402
from proben.fileio import (  # noqa: E402
    read_detections,
    read_ground_truth,
    write_curves_csv,
    write_detections,
    write_ground_truth,
)
from proben.metrics import breakdown  # noqa: E402
from proben.synth import generate, kaist_like_spec  # noqa: E402

CONFIG = FusionConfig(score_fusion="proben", box_fusion="v-avg")


def write_pr_curves(report, prefix):
    """The precision/recall CSVs of ``eval --curves``."""
    for key, subset in report.subsets.items():
        for cls, (recall, precision) in subset.pr_curves.items():
            write_curves_csv(f"{prefix}.{key}.class{cls}.pr.csv", ("recall", "precision"),
                             recall, precision)


def write_miss_curves(report, prefix):
    """The miss-rate/FPPI CSVs of ``eval --curves``."""
    for key, subset in report.subsets.items():
        write_curves_csv(f"{prefix}.{key}.miss_fppi.csv", ("fppi", "miss_rate"), *subset.miss_curve)


def stage_times(seed: int, images: int, repeat: int, workdir: str) -> dict:
    """Seconds of each run of each stage, by stage name in pipeline order."""
    times = {}

    def timed(name, fn, *args, **kwargs):
        runs = times.setdefault(name, [])
        for _ in range(repeat):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            runs.append(time.perf_counter() - start)
        return result

    def path(name):
        return os.path.join(workdir, name)

    spec = kaist_like_spec(seed=seed, image_count=images)
    dataset = timed("generate", generate, spec)
    timed("write gt.jsonl", write_ground_truth, path("gt.jsonl"), dataset.ground_truths,
          dataset.tags, dataset.num_classes, class_names=spec.class_names)
    modalities = sorted(dataset.detections)
    for m in modalities:
        timed(f"write det_{m}.jsonl", write_detections, path(f"det_{m}.jsonl"),
              dataset.detections[m])
    with contextlib.redirect_stdout(io.StringIO()):
        timed("synth", cli.main, ["synth", "--out-dir", workdir, "--seed", str(seed),
                                  "--images", str(images)])

    gts, tags, num_classes, class_names, gt_images = timed(
        "read gt.jsonl", read_ground_truth, path("gt.jsonl")
    )
    sets = []
    for m in modalities:
        first_id = sum(map(len, sets))
        sets.append(timed(f"read det_{m}.jsonl", read_detections, path(f"det_{m}.jsonl"),
                          num_classes=num_classes, start_det_id=first_id))
    batch = timed("DetectionBatch", DetectionBatch, sets)
    core = timed("fuse_columns", fuse_columns, batch, CONFIG)
    # fuse_detections on the core's columns made above: its output step alone
    engine.fuse_columns = lambda *_: core
    try:
        fused = timed("fuse_detections output step", fuse_detections, batch, CONFIG)
    finally:
        engine.fuse_columns = fuse_columns
    timed("write fused.jsonl", write_detections, path("fused.jsonl"), fused)

    dets = timed("read fused.jsonl", read_detections, path("fused.jsonl"),
                 num_classes=num_classes)
    report = timed("breakdown", breakdown, dets, gts, tags, num_classes=num_classes,
                   class_names=class_names, image_ids=gt_images)
    timed("PR curve CSVs", write_pr_curves, report, path("eval"))
    timed("miss/FPPI curve CSVs", write_miss_curves, report, path("eval"))
    with contextlib.redirect_stdout(io.StringIO()):
        timed("eval", cli.main, ["eval", path("fused.jsonl"), path("gt.jsonl"), "--breakdown",
                                 "--curves", "--out-prefix", path("eval")])
    image_ids = sorted(set(gt_images).union(*(d.image_id for d in sets)))
    timed("grid_search point", grid_search, sets, gts, "rgb", GridSpec(1.0, 1.0, 1),
          GridSpec(0.0, 0.0, 1), config=CONFIG, num_classes=num_classes, image_ids=image_ids)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--images", type=int, default=2000)
    parser.add_argument("--repeat", type=int, default=9)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory() as workdir:
        times = stage_times(args.seed, args.images, args.repeat, workdir)
    stages = {
        name: {"best_ms": round(min(runs) * 1e3, 3),
               "median_ms": round(statistics.median(runs) * 1e3, 3)}
        for name, runs in times.items()
    }
    print(json.dumps({"seed": args.seed, "images": args.images, "repeat": args.repeat,
                      "stages": stages}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
