"""Which functions of proben no command reaches.

Every command runs in process on a 60-image scene under ``sys.setprofile``,
and the functions of the package never entered are compared with a pinned
list, each with the reason it stays. A function that no command, test view
or benchmark wrapper needs fails this test, and so does one the commands
reach again: delete it, or pin it with its reason.
"""

import ast
import json
import os
import sys

import proben
from proben.box_fusion import BOX_FUSION_MODES
from proben.cli import main
from proben.engine import SCORE_FUSION_MODES

PACKAGE = os.path.dirname(proben.__file__)

WRAPPED = "wrapped by perfbench/tracing.py"
OBJECT_VIEW = "object view the tests build"
ACCEPTANCE = "acceptance criterion"
ERROR_PATH = "error path"
RARE_INPUT = "input that synth never writes"
PUBLIC = "public helper"

NEVER_ENTERED = {
    "box_fusion.fuse_boxes": WRAPPED,
    "detections.ClassScores.stack": OBJECT_VIEW,
    "detections.ClassScores.__eq__": OBJECT_VIEW,
    "detections.check_box_variance": ERROR_PATH,
    "detections.Detection.__post_init__": OBJECT_VIEW,
    "detections.Detection.class_id": OBJECT_VIEW,
    "detections.Detection.score": OBJECT_VIEW,
    "detections.Detection.sort_key": OBJECT_VIEW,
    "detections.GroundTruth.__post_init__": OBJECT_VIEW,
    "detections.DetectionColumns.to_detections": OBJECT_VIEW,
    "engine._select_per_modality": WRAPPED,
    "engine.fuse_all": WRAPPED,
    "engine.fuse": WRAPPED,
    "errors.ParseError.__init__": ERROR_PATH,
    "fileio._check_row": ERROR_PATH,
    "fileio._extend_slowly": RARE_INPUT,  # a bbox or score entry that is not a number
    "fileio._json_record": RARE_INPUT,  # NaN, long integers, long lines, bad JSON
    "geometry.BBox.__post_init__": OBJECT_VIEW,  # and the error of a bad box
    "geometry.BBox.as_list": OBJECT_VIEW,
    "geometry.BBox.x2": OBJECT_VIEW,
    "geometry.BBox.y2": OBJECT_VIEW,
    "geometry.BBox.area": OBJECT_VIEW,
    "geometry.iou": WRAPPED,  # and the oracle of box_iou
    "geometry.convex_combination": WRAPPED,  # and the oracle of weighted_average
    "geometry.box_array": OBJECT_VIEW,
    "metrics.MatchResult.merge": WRAPPED,
    "metrics.match": WRAPPED,
    "score_fusion.fuse_max": ACCEPTANCE,
}

SPEC = {
    "seed": 3,
    "image_count": 60,
    "num_classes": 2,
    "ignore_fraction": 0.2,
    "class_names": ["person", "car"],
    "profiles": {
        modality: {
            tag: {"recall": 0.8, "fp_rate": 0.4, "tp_concentration": 3.0,
                  "fp_concentration": 1.0, "loc_noise": 3.0}
            for tag in ("day", "night")
        }
        for modality in ("rgb", "thermal")
    },
}


def defined_functions():
    """(file, first line) -> module.qualified name of every function the
    package defines; the first line is that of the first decorator, as in
    the function's code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[path, first] = name
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            path = os.path.join(PACKAGE, filename)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            visit(tree, path, filename[:-3] + ".")
    return found


def run_every_command(tmp):
    preset, spec_dir, spec_path = tmp / "preset", tmp / "spec", tmp / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    commands = [
        ["synth", "--out-dir", str(preset), "--images", "60", "--modalities", "3"],
        ["synth", "--out-dir", str(spec_dir), "--spec", str(spec_path)],
    ]
    inputs = [str(preset / f"det_{m}.jsonl") for m in ("aux1", "rgb", "thermal")]
    gt = str(preset / "gt.jsonl")
    calibration = ["--temperature", "rgb=1.5", "--shift", "thermal=-0.25"]
    for score in [*SCORE_FUSION_MODES, "pooling"]:
        for box in BOX_FUSION_MODES:
            out = str(tmp / f"fused_{score}_{box}.jsonl")
            commands.append(
                ["fuse", *inputs, "--out", out, "--score-fusion", score, "--box-fusion", box,
                 *calibration]
            )
    spec_inputs = [str(spec_dir / f"det_{m}.jsonl") for m in ("rgb", "thermal")]
    fused = str(tmp / "fused_counted.jsonl")
    spec_gt = str(spec_dir / "gt.jsonl")
    commands += [
        ["fuse", *spec_inputs, "--out", fused, "--ground-truth", spec_gt,
         "--prior", "counted:0.9"],
        ["eval", fused, spec_gt, "--breakdown", "--curves", "--out-prefix", str(tmp / "e")],
        ["eval", str(tmp / "fused_proben_v-avg.jsonl"), gt, "--metric", "ap",
         "--out-prefix", str(tmp / "e2")],
    ]
    for objective in ("lamr", "ap"):
        commands.append(
            ["calibrate", *inputs, "--ground-truth", gt, "--calibrate-modality", "rgb",
             "--grid-t", "0.5:2:2", "--grid-b", "-0.5:0:2", "--objective", objective,
             "--out-prefix", str(tmp / f"cal_{objective}")]
        )
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(commands)
    return entered


def test_never_entered_functions_are_the_pinned_ones(tmp_path):
    entered = run_every_command(tmp_path)
    never = {name for key, name in defined_functions().items() if key not in entered}
    assert never == set(NEVER_ENTERED)
