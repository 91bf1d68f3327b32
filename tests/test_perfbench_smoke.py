"""A tiny run of the benchmark harness (perfbench/run.py), so that it cannot
rot unnoticed: with tracing on, every name it wraps must still resolve,
every output must still pass its checks, and the traced file reads and
writes must still see every record."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_calib_grid_run_is_correct():
    argv = [sys.executable, "perfbench/run.py", "--workload", "calib-grid",
            "--seed", "0", "--seconds", "1", "--trace", "1"]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stdout.splitlines()[-2]
    assert result["failed"] == 0
    # sizes, not times: one set-up plus one round at seed 0 reads 7822 records
    # (detections and ground-truth boxes) and writes 4650 (synth and fuse)
    metrics = result["metrics"]
    assert metrics["fileio.records_read"]["value"] == 7822
    assert metrics["fileio.records_written"]["value"] == 4650
