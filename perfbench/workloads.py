"""The benchmark's workloads: how each makes its inputs and which commands it runs.

Inputs come from ``proben synth --preset kaist-like`` with the run's seed.
``calib-grid`` then rewrites the generated files (the benchmark's own
transform, kept out of every timing): the rgb logits are scaled by 3 to
plant a known miscalibration, and thermal becomes ``posteriors`` records so
that both score ingest paths run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from reference import softmax

# Both workloads use the kaist-like preset's two modalities.
MODALITIES = ("rgb", "thermal")


@dataclass(frozen=True)
class Workload:
    name: str
    images: int
    grid_t: str
    grid_b: str
    as_posteriors: Tuple[str, ...] = ()
    logit_scale: Dict[str, float] = field(default_factory=dict)
    planted_temperature: Optional[float] = None

    def synth_argv(self, seed: int, workdir: str) -> List[str]:
        return ["synth", "--out-dir", workdir, "--seed", str(seed),
                "--preset", "kaist-like", "--images", str(self.images)]

    def detection_files(self, workdir: str) -> List[str]:
        return [os.path.join(workdir, f"det_{m}.jsonl") for m in MODALITIES]

    def generated_files(self, workdir: str) -> List[str]:
        return [os.path.join(workdir, "gt.jsonl")] + self.detection_files(workdir)

    def transform_inputs(self, workdir: str):
        """Rewrite the generated detection files as this workload asks."""
        for modality in MODALITIES:
            scale = self.logit_scale.get(modality)
            if modality not in self.as_posteriors and scale is None:
                continue
            path = os.path.join(workdir, f"det_{modality}.jsonl")
            with open(path, "r", encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            for r in records:
                if scale is not None:
                    r["logits"] = [v * scale for v in r["logits"]]
                if modality in self.as_posteriors:
                    r["posteriors"] = softmax(r.pop("logits"))
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(r) + "\n" for r in records)

    def grid_points(self) -> int:
        return int(self.grid_t.split(":")[2]) * int(self.grid_b.split(":")[2])

    def commands(self, workdir: str) -> List[Tuple[str, List[str]]]:
        """The measured steps of one round, in order: (step, argv)."""
        join = os.path.join
        inputs = self.detection_files(workdir)
        gt = join(workdir, "gt.jsonl")
        fusion = ["--score-fusion", "proben", "--box-fusion", "v-avg"]
        return [
            ("fuse", ["fuse", *inputs, *fusion, "--out", join(workdir, "fused.jsonl")]),
            ("eval", ["eval", join(workdir, "fused.jsonl"), gt, "--breakdown", "--curves",
                      "--out-prefix", join(workdir, "eval")]),
            ("calibrate", ["calibrate", *inputs, *fusion, "--ground-truth", gt,
                           "--calibrate-modality", "rgb", f"--grid-t={self.grid_t}",
                           f"--grid-b={self.grid_b}", "--out-prefix", join(workdir, "calibrate")]),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's aligned rgb-thermal day/night setting at 2000 images:
        # many small images, so `metrics` (eval, and matching inside
        # calibrate) is the largest cost; one grid point bypasses any
        # sharing of work across points.
        Workload(
            name="kaist-2k",
            images=2000,
            grid_t="1:1:1",
            grid_b="0:0:1",
        ),
        # Eight grid points re-fuse and re-match the same inputs, so
        # calibration, and the fusion inside it, dominates. A T step of 1
        # keeps the planted-scale check seed-proof: the LAMR surface is flat
        # between T=2.5 and 4.5 at a few hundred images.
        Workload(
            name="calib-grid",
            images=400,
            grid_t="1:4:4",
            grid_b="-0.5:0:2",
            as_posteriors=("thermal",),
            logit_scale={"rgb": 3.0},
            planted_temperature=3.0,
        ),
    )
}


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def grid_values(raw: str) -> List[float]:
    """The values ``proben calibrate`` visits for START:STOP:STEPS (numpy.linspace)."""
    start, stop, steps = raw.split(":")
    start, stop, steps = float(start), float(stop), int(steps)
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]
