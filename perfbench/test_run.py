"""Cases for how a run turns failed command calls into its result.

    python3 -m pytest perfbench/test_run.py
"""

import run
from workloads import WORKLOADS

STEPS = ["fuse", "eval", "calibrate"]


def test_step_that_failed_in_every_round_has_no_throughput():
    workload = WORKLOADS["calib-grid"]
    rounds = [{"fuse": 1.0, "eval": 0.5}, {"fuse": 2.0, "eval": 0.5}]
    metrics = run.end_to_end(workload, [0.25], rounds, 60.0)
    assert "calibrate_points_per_s" not in metrics
    # The median of two per-round rates is their mean.
    assert metrics["fuse_images_per_s"] == ((workload.images / 1.0 + workload.images / 2.0) / 2,
                                            "1/s")
    assert metrics["eval_images_per_s"] == (workload.images / 0.5, "1/s")
    assert metrics["peak_rss_mb"] == (60.0, "MB")


def test_step_that_failed_in_every_round_is_a_problem():
    rounds = [{"fuse": 1.0, "eval": 0.5}, {"fuse": 2.0, "eval": 0.5}]
    problems, unchecked = run.failed_steps(STEPS, rounds)
    assert problems == ["calibrate: failed in all 2 rounds"]
    assert unchecked == {"calibrate"}


def test_step_that_failed_only_in_the_last_round_is_not_checked():
    rounds = [{"fuse": 1.0, "eval": 0.5, "calibrate": 3.0}, {"eval": 0.5, "calibrate": 3.0}]
    problems, unchecked = run.failed_steps(STEPS, rounds)
    assert problems == []
    assert unchecked == {"fuse"}
