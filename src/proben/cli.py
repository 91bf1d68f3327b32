"""Command-line surface: ``fuse``, ``eval``, ``calibrate`` and ``synth``.

Exit codes: 0 on success, 2 on an input that cannot be read or parsed, 3 on
configuration errors and outputs that cannot be written. All commands are
deterministic functions of their inputs and flags; randomness is confined to
the synthetic generator's seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import re
import sys
from typing import Dict, List, Optional, Sequence

from .box_fusion import BOX_FUSION_MODES
from .calibrate import GridSpec, grid_search
from .detections import ClassPrior, DetectionColumns, estimate_class_prior
from .engine import (
    SCORE_FUSION_MODES,
    DetectionBatch,
    FusionConfig,
    check_iou_threshold,
    fuse_detections,
    pool,
)
from .errors import ConfigurationError, FusionError, ParseError
from .fileio import (
    read_detections,
    read_ground_truth,
    read_json,
    write_curves_csv,
    write_detections,
    write_ground_truth,
    write_json,
)
from .metrics import breakdown
from .score_fusion import CalibrationParams
from .synth import ModalityProfile, ScenarioSpec, generate, kaist_like_spec

# fuse_all is not called here; perfbench/tracing.py wraps it under this name.
from .engine import fuse_all  # noqa: F401

PARSE_ERROR = 2
CONFIG_ERROR = 3


def _parse_assignment(raw: str, flag: str):
    if "=" not in raw:
        raise ConfigurationError(f"{flag} expects KEY=VALUE, got {raw!r}")
    key, value = raw.split("=", 1)
    return key, value


def _parse_calibration(args) -> Dict[str, CalibrationParams]:
    temps: Dict[str, float] = {}
    shifts: Dict[str, float] = {}
    for raw in args.temperature or []:
        modality, value = _parse_assignment(raw, "--temperature")
        temps[modality] = float(value)
    for raw in args.shift or []:
        modality, value = _parse_assignment(raw, "--shift")
        shifts[modality] = float(value)
    calibration = {}
    for modality in sorted(set(temps) | set(shifts)):
        calibration[modality] = CalibrationParams(
            temperature=temps.get(modality, 1.0), shift=shifts.get(modality, 0.0)
        )
    return calibration


def _parse_prior(raw: str, gts, num_classes: int) -> Optional[ClassPrior]:
    if raw == "uniform":
        return None
    if raw.startswith("counted:"):
        background = float(raw.split(":", 1)[1])
        if gts is None:
            raise ConfigurationError("--prior counted requires --ground-truth")
        return estimate_class_prior(gts, background, num_classes=num_classes)
    raise ConfigurationError(f"--prior must be 'uniform' or 'counted:<bg>', got {raw!r}")


def _read_detection_sets(args, num_classes: Optional[int] = None) -> List[DetectionColumns]:
    """The detection files of args, read with the class count of the ground
    truth when given, else with that of the first file that holds a record."""
    overrides = dict(_parse_assignment(raw, "--modality") for raw in args.modality or [])
    sets: List[DetectionColumns] = []
    next_id = 0
    for path in args.inputs:
        dets = read_detections(
            path,
            modality_override=overrides.get(path),
            num_classes=num_classes,
            start_det_id=next_id,
        )
        if len(dets) and num_classes is None:
            num_classes = dets.scores.num_foreground
        next_id += len(dets)
        sets.append(dets)
    return sets


def _build_config(args, gts, num_classes) -> FusionConfig:
    """The fusion flags of args, checked. Pooling reads none of them, but a
    bad one fails as in every mode: its config takes the default score fusion."""
    pooling = args.score_fusion == "pooling"
    return FusionConfig(
        iou_threshold=args.iou_threshold,
        score_fusion=FusionConfig.score_fusion if pooling else args.score_fusion,
        box_fusion=args.box_fusion,
        prior=_parse_prior(args.prior, gts, num_classes),
        calibration=_parse_calibration(args),
    )


def cmd_fuse(args) -> int:
    gts = num_classes = None
    if args.ground_truth:
        gts, _, num_classes, _, _ = read_ground_truth(args.ground_truth)
    detection_sets = _read_detection_sets(args, num_classes)

    config = _build_config(args, gts, num_classes)
    if args.score_fusion == "pooling":
        fused = pool(detection_sets)
    else:
        fused = fuse_detections(DetectionBatch(detection_sets), config)
    write_detections(args.out, fused)
    images = len(set(fused.image_id))
    print(f"total: {len(fused)} detections over {images} images")
    return 0


def cmd_eval(args) -> int:
    check_iou_threshold(args.iou_threshold)
    gts, tags, num_classes, class_names, gt_images = read_ground_truth(args.ground_truth)
    dets = read_detections(args.detections, num_classes=num_classes)
    orphan = len(set(dets.image_id).difference(gt_images))
    if orphan:
        print(
            f"warning: {orphan} image(s) carry detections but no ground-truth record",
            file=sys.stderr,
        )

    report = breakdown(
        dets,
        gts,
        tags if args.breakdown else {},
        iou_threshold=args.iou_threshold,
        num_classes=num_classes,
        class_names=class_names,
        image_ids=gt_images,
    )

    payload = report.to_dict()
    if args.metric != "both":
        dropped = ("lamr",) if args.metric == "ap" else ("ap", "mean_ap")
        for subset in payload["subsets"].values():
            for key in dropped:
                subset.pop(key, None)
    write_json(args.out_prefix + ".json", payload)
    with open(args.out_prefix + ".txt", "w", encoding="utf-8") as fh:
        fh.write(report.to_text())

    if args.curves:
        for key, subset in report.subsets.items():
            write_curves_csv(
                f"{args.out_prefix}.{key}.miss_fppi.csv", ("fppi", "miss_rate"), *subset.miss_curve
            )
            for cls, (recall, precision) in subset.pr_curves.items():
                write_curves_csv(
                    f"{args.out_prefix}.{key}.class{cls}.pr.csv",
                    ("recall", "precision"),
                    recall,
                    precision,
                )

    overall = report.subsets["all"]
    mean_ap = "n/a" if overall.mean_ap is None else f"{overall.mean_ap:.4f}"
    lamr_s = "n/a" if overall.lamr is None else f"{overall.lamr:.4f}"
    print(f"mAP@{args.iou_threshold}: {mean_ap}  LAMR: {lamr_s}")
    return 0


def _parse_grid(raw: str, flag: str) -> GridSpec:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"{flag} expects START:STOP:STEPS, got {raw!r}")
    try:
        return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigurationError(f"invalid {flag}: {exc}") from exc


def cmd_calibrate(args) -> int:
    gts, _, num_classes, _, gt_images = read_ground_truth(args.ground_truth)
    detection_sets = _read_detection_sets(args, num_classes)
    config = _build_config(args, gts, num_classes)
    image_ids = sorted(set(gt_images).union(*(dets.image_id for dets in detection_sets)))

    best, surface = grid_search(
        detection_sets,
        gts,
        modality=args.calibrate_modality,
        t_grid=_parse_grid(args.grid_t, "--grid-t"),
        b_grid=_parse_grid(args.grid_b, "--grid-b"),
        objective=args.objective,
        config=config,
        num_classes=num_classes,
        image_ids=image_ids,
    )

    header = ("temperature", "shift", args.objective)
    write_curves_csv(args.out_prefix + ".surface.csv", header, *zip(*surface))
    write_json(
        args.out_prefix + ".best.json",
        {
            "modality": args.calibrate_modality,
            "temperature": best.temperature,
            "shift": best.shift,
            "objective": args.objective,
        },
    )
    print(
        f"best calibration for {args.calibrate_modality}: "
        f"T={best.temperature!r} b={best.shift!r} ({args.objective})"
    )
    return 0


def _spec_from_json(path) -> ScenarioSpec:
    payload = read_json(path)

    def require(ok: bool, what: str, value) -> None:
        if not ok:
            raise ConfigurationError(f"invalid scenario spec: {what}, got {value!r}")

    require(isinstance(payload, dict), "the spec must be a JSON object", payload)
    shape = "profiles must map modality -> tag -> profile object"
    raw = payload.pop("profiles", None)
    require(isinstance(raw, dict), shape, raw)
    for by_tag in raw.values():
        require(isinstance(by_tag, dict), shape, by_tag)
        for profile in by_tag.values():
            require(isinstance(profile, dict), shape, profile)
    for key in ("class_names", "image_size"):
        value = payload.get(key)
        require(value is None or isinstance(value, list), f"{key} must be a list", value)
        if value is not None:
            payload[key] = tuple(value)
    try:
        profiles = {
            modality: {tag: ModalityProfile(**profile) for tag, profile in by_tag.items()}
            for modality, by_tag in raw.items()
        }
        return ScenarioSpec(profiles=profiles, **payload)
    except TypeError as exc:  # a missing or unknown field
        raise ConfigurationError(f"invalid scenario spec: {exc}") from exc


def _expanded_preset(seed: int, images: int, modalities: int) -> ScenarioSpec:
    """The kaist-like preset (rgb, thermal) plus modalities - 2 auxiliary ones."""
    if modalities < 2:
        raise ConfigurationError(
            f"--modalities must be >= 2 for the kaist-like preset, got {modalities}"
        )
    spec = kaist_like_spec(seed=seed, image_count=images)
    profiles = dict(spec.profiles)
    balanced = ModalityProfile(
        recall=0.7, fp_rate=0.5, tp_concentration=2.8, fp_concentration=1.6, loc_noise=4.5
    )
    for i in range(modalities - 2):
        profiles[f"aux{i + 1}"] = {"day": balanced, "night": balanced}
    return dataclasses.replace(spec, profiles=profiles)


PRESET_DEFAULTS = {"seed": 0, "images": 2000, "modalities": 2}


def cmd_synth(args) -> int:
    given = {name: getattr(args, name) for name in PRESET_DEFAULTS}
    given = {name: value for name, value in given.items() if value is not None}
    if args.spec:
        if given:
            flags = ", ".join(f"--{name}" for name in given)
            raise ConfigurationError(f"{flags}: only a preset takes these; --spec sets its own")
        spec = _spec_from_json(args.spec)
    elif args.preset == "kaist-like":
        spec = _expanded_preset(**{**PRESET_DEFAULTS, **given})
    else:
        raise ConfigurationError(f"unknown preset {args.preset!r}")
    # det_*.jsonl files of an earlier scenario, which a det_*.jsonl glob would mix in
    found = glob.glob(os.path.join(glob.escape(args.out_dir), "det_*.jsonl"))
    stale = sorted(p for p in found if os.path.basename(p)[4:-6] not in spec.profiles)
    if stale:
        raise ConfigurationError(
            f"{stale[0]} holds detections of a modality this scenario does not write; "
            "remove it or choose another --out-dir"
        )

    dataset = generate(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    write_ground_truth(
        os.path.join(args.out_dir, "gt.jsonl"),
        dataset.ground_truths,
        dataset.tags,
        dataset.num_classes,
        class_names=spec.class_names,
    )
    for modality in sorted(dataset.detections):
        write_detections(
            os.path.join(args.out_dir, f"det_{modality}.jsonl"),
            dataset.detections[modality],
        )
        print(f"{modality}: {len(dataset.detections[modality])} detections")
    print(
        f"{len(dataset.tags)} images, {len(dataset.ground_truths)} ground-truth objects "
        f"-> {args.out_dir}"
    )
    return 0


def _add_fusion_flags(parser, score_fusion_modes=SCORE_FUSION_MODES):
    parser.add_argument("--iou-threshold", type=float, default=0.5)
    parser.add_argument("--score-fusion", default="proben", choices=score_fusion_modes)
    parser.add_argument("--box-fusion", default="avg", choices=BOX_FUSION_MODES)
    parser.add_argument("--prior", default="uniform")
    parser.add_argument("--temperature", action="append", metavar="MODALITY=T")
    parser.add_argument("--shift", action="append", metavar="MODALITY=B")
    parser.add_argument("--modality", action="append", metavar="FILE=TAG")
    parser.add_argument("--ground-truth", metavar="FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proben",
        description="Very-late fusion of multimodal detections, with evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuse = sub.add_parser("fuse", help="fuse one or more detection files")
    p_fuse.add_argument("inputs", nargs="+")
    p_fuse.add_argument("--out", required=True)
    _add_fusion_flags(p_fuse, [*SCORE_FUSION_MODES, "pooling"])
    p_fuse.set_defaults(func=cmd_fuse)

    p_eval = sub.add_parser("eval", help="evaluate detections against ground truth")
    p_eval.add_argument("detections")
    p_eval.add_argument("ground_truth")
    p_eval.add_argument("--metric", default="both", choices=["ap", "lamr", "both"])
    p_eval.add_argument("--breakdown", action="store_true")
    p_eval.add_argument("--curves", action="store_true")
    p_eval.add_argument("--iou-threshold", type=float, default=0.5)
    p_eval.add_argument("--out-prefix", default="eval_report")
    p_eval.set_defaults(func=cmd_eval)

    p_cal = sub.add_parser("calibrate", help="grid-search temperature/shift calibration")
    p_cal.add_argument("inputs", nargs="+")
    p_cal.add_argument("--grid-t", default="0.5:5:19", metavar="START:STOP:STEPS")
    p_cal.add_argument("--grid-b", default="0:0:1", metavar="START:STOP:STEPS")
    p_cal.add_argument("--objective", default="lamr", choices=["lamr", "ap"])
    p_cal.add_argument("--calibrate-modality", required=True)
    p_cal.add_argument("--out-prefix", default="calibration")
    _add_fusion_flags(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--preset", default="kaist-like")
    p_synth.add_argument("--spec", metavar="FILE")
    # preset only, defaulting to PRESET_DEFAULTS
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--images", type=int)
    p_synth.add_argument("--modalities", type=int)
    p_synth.set_defaults(func=cmd_synth)

    return parser


GRID_FLAGS = ("--grid-t", "--grid-b")


def _attach_grid_values(argv: Sequence[str]) -> List[str]:
    """Rewrite ``--grid-b -0.5:0:2`` as ``--grid-b=-0.5:0:2``: argparse takes
    a separate value that starts with '-' for an option."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in GRID_FLAGS and re.match(r"-[\d.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_grid_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (FusionError, ValueError) as exc:  # ParseError is a FusionError
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR if isinstance(exc, ParseError) else CONFIG_ERROR
    except OSError as exc:  # an input that cannot be opened is a ParseError
        name = exc.filename or "output"
        print(f"error: cannot write {name}: {exc.strerror or exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
