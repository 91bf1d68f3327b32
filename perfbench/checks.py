"""Check each command's outputs against the reference computations.

Every check returns a list of problems; an empty list means the outputs
agree with ``reference``: fused records within 1e-9, eval counts exactly and
AP/LAMR within 1e-9, and calibration surface points within 1e-9.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Dict, List, Optional, Sequence

import reference
from workloads import Workload, grid_values

TOLERANCE = 1e-9
MAX_PROBLEMS = 10
# How much lower than every T=1 point the best surface point must be when a
# miscalibration is planted: on `calib-grid`, seeds 0-39, the gap was
# 0.023-0.074 LAMR (mean 0.043, sd 0.012); with nothing planted the best T is
# near 1 and the gap is 0.
MIN_CALIBRATION_GAIN = 0.01


def _close(a: Optional[float], b: Optional[float], tolerance: float = TOLERANCE) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tolerance


def _close_all(a: Sequence[float], b: Sequence[float], tolerance: float = TOLERANCE) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tolerance for x, y in zip(a, b))


def _read_fused(path: str) -> List[reference.Det]:
    return [reference.det_from_record(r, i) for i, r in enumerate(reference.read_jsonl(path))]


def _last_line(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[-1] if lines else ""


class Checker:
    """Checks one workload's outputs in its work directory."""

    def __init__(self, workload: Workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.inputs = reference.read_detection_files(workload.detection_files(workdir))
        self.truth = reference.GroundTruthFile.read(self.path("gt.jsonl"))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def makeup(self) -> dict:
        per_modality: Dict[str, int] = {}
        for d in self.inputs:
            per_modality[d.modality] = per_modality.get(d.modality, 0) + 1
        return {
            "images": len(self.truth.image_ids | {d.image_id for d in self.inputs}),
            "detections": dict(sorted(per_modality.items())),
            "ground_truth_boxes": len(self.truth.truths),
        }

    def check_fuse(self) -> List[str]:
        expected = reference.fuse(self.inputs)
        actual = _read_fused(self.path("fused.jsonl"))
        problems = []
        if len(actual) != len(expected):
            problems.append(f"fuse: {len(actual)} fused records, reference has {len(expected)}")
        for i, (a, e) in enumerate(zip(actual, expected)):
            if (a.image_id, a.modality) != (e.image_id, e.modality):
                problems.append(f"fuse: record {i} is {a.image_id}/{a.modality}, "
                                f"reference {e.image_id}/{e.modality}")
            elif not _close_all(a.posteriors, e.posteriors):
                problems.append(f"fuse: record {i} posteriors {a.posteriors} != {e.posteriors}")
            elif not _close_all(a.box, e.box):
                problems.append(f"fuse: record {i} box {a.box} != {e.box}")
            elif not _close(a.variance / e.variance, 1.0):
                problems.append(f"fuse: record {i} box variance {a.variance} != {e.variance}")
        images = len({e.image_id for e in expected})
        summary = f"total: {len(expected)} detections over {images} images"
        if _last_line(self.path("fuse.stdout")) != summary:
            problems.append(f"fuse: summary line is not {summary!r}")
        return problems

    def check_eval(self) -> List[str]:
        fused = _read_fused(self.path("fused.jsonl"))
        all_ids = sorted(self.truth.image_ids | {d.image_id for d in fused})
        labels = reference.label_images(fused, self.truth.truths, all_ids)
        subsets = {"all": all_ids}
        for tag in sorted(set(self.truth.tags.values())):
            subsets[tag] = [i for i in all_ids if self.truth.tags.get(i) == tag]
        with open(self.path("eval.json"), "r", encoding="utf-8") as fh:
            report = json.load(fh)["subsets"]
        if sorted(report) != sorted(subsets):
            return [f"eval: subsets {sorted(report)}, reference {sorted(subsets)}"]
        problems = []
        for key, ids in subsets.items():
            e = reference.subset_summary(labels, self.truth.truths, ids, self.truth.num_classes)
            a = report[key]
            for field in ("num_images", "tp", "fp"):
                if a[field] != e[field]:
                    problems.append(f"eval: {key} {field} {a[field]}, reference {e[field]}")
            if a["num_gt"] != {str(c): n for c, n in sorted(e["num_gt"].items())}:
                problems.append(f"eval: {key} num_gt {a['num_gt']}, reference {e['num_gt']}")
            for c, value in e["ap"].items():
                if not _close(a["ap"].get(str(c)), value):
                    problems.append(f"eval: {key} AP[{c}] {a['ap'].get(str(c))}, reference {value}")
            for field in ("mean_ap", "lamr"):
                if not _close(a[field], e[field]):
                    problems.append(f"eval: {key} {field} {a[field]}, reference {e[field]}")
        return problems

    def surface_value(self, temperature: float, shift: float) -> float:
        """LAMR of reference ProbEn fusion with rgb calibrated by (T, b)."""
        calibrated = [
            d.calibrated(temperature, shift) if d.modality == "rgb" else d for d in self.inputs
        ]
        fused = reference.fuse(calibrated)
        image_ids = sorted(self.truth.image_ids | {d.image_id for d in self.inputs})
        labels = reference.label_images(fused, self.truth.truths, image_ids)
        summary = reference.subset_summary(
            labels, self.truth.truths, image_ids, self.truth.num_classes
        )
        return summary["lamr"]

    def check_calibrate(self) -> List[str]:
        with open(self.path("calibrate.surface.csv"), "r", encoding="utf-8") as fh:
            surface = [(float(r["temperature"]), float(r["shift"]), float(r["lamr"]))
                       for r in csv.DictReader(fh)]
        with open(self.path("calibrate.best.json"), "r", encoding="utf-8") as fh:
            best = json.load(fh)
        grid_t = grid_values(self.workload.grid_t)
        grid_b = grid_values(self.workload.grid_b)
        grid = [(t, b) for t in grid_t for b in grid_b]
        if not _close_all([x for p in surface for x in p[:2]], [x for p in grid for x in p], 1e-12):
            return [f"calibrate: surface grid {[p[:2] for p in surface]}, expected {grid}"]
        problems = []
        chosen = min(
            range(len(surface)),
            key=lambda i: (surface[i][2], (surface[i][0] - 1.0) ** 2 + surface[i][1] ** 2,
                           surface[i][0], surface[i][1]),
        )
        if (best["temperature"], best["shift"]) != surface[chosen][:2]:
            problems.append(f"calibrate: best {best}, surface minimum at {surface[chosen][:2]}")
        sampled = {0, chosen, len(surface) - 1}
        planted = self.workload.planted_temperature
        if planted is not None:
            step = grid_t[1] - grid_t[0]
            if abs(best["temperature"] - planted) > step + 1e-12:
                problems.append(f"calibrate: best T {best['temperature']} is more than one "
                                f"step ({step}) from the planted {planted}")
            uncalibrated = [i for i, p in enumerate(surface) if p[0] == 1.0]
            gain = min(surface[i][2] for i in uncalibrated) - surface[chosen][2]
            if gain < MIN_CALIBRATION_GAIN:
                problems.append(f"calibrate: best LAMR is {gain:.4f} below the best at T=1, "
                                f"less than {MIN_CALIBRATION_GAIN}")
            sampled.update(uncalibrated)
        for i in sorted(sampled):
            t, b, value = surface[i]
            expected = self.surface_value(t, b)
            if not _close(value, expected):
                problems.append(
                    f"calibrate: surface at T={t} b={b} is {value}, reference {expected}"
                )
        return problems

    def check(self, skip: Sequence[str] = ()) -> List[str]:
        """Problems found in the outputs of every step not in skip."""
        problems: List[str] = []
        for step, check in (("fuse", self.check_fuse), ("eval", self.check_eval),
                            ("calibrate", self.check_calibrate)):
            if step not in skip:
                problems.extend(check()[:MAX_PROBLEMS])
        return problems
