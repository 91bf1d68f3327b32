"""A tiny run of tools/stage_times.py, so that the stage timer cannot rot
unnoticed: it must run every stage and print one JSON object."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STAGES = [
    "generate",
    "write gt.jsonl",
    "write det_rgb.jsonl",
    "write det_thermal.jsonl",
    "synth",
    "read gt.jsonl",
    "read det_rgb.jsonl",
    "read det_thermal.jsonl",
    "DetectionBatch",
    "fuse_columns",
    "fuse_detections output step",
    "write fused.jsonl",
    "read fused.jsonl",
    "breakdown",
    "PR curve CSVs",
    "miss/FPPI curve CSVs",
    "eval",
    "grid_search point",
]


def test_stage_timer_runs_every_stage():
    argv = [sys.executable, os.path.join("tools", "stage_times.py"),
            "--images", "20", "--repeat", "1"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert (result["seed"], result["images"], result["repeat"]) == (0, 20, 1)
    assert list(result["stages"]) == STAGES
    for times in result["stages"].values():
        assert 0 < times["best_ms"] <= times["median_ms"]
