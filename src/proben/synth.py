"""Deterministic synthetic multimodal scenario generator.

Produces ground truths plus per-modality detection streams whose detection
events are sampled independently per modality given the ground truth - the
conditional-independence regime in which probabilistic score fusion is the
optimal combination rule. Profiles are per modality and per scene tag
(day/night) so the two modalities can be made complementary.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .detections import ClassScores, DetectionColumns, GroundTruthColumns
from .errors import ConfigurationError

_MIN_EXTENT = 2.0
_MIN_NOISE_STD = 1e-3


def _is_number(value) -> bool:
    """A finite real number, bools excluded."""
    return (
        isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    )


def _check_number(name: str, value) -> None:
    if not _is_number(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")


def _check_integer(name: str, value, minimum: int) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class ModalityProfile:
    """Behavior of one detector under one scene tag."""

    recall: float  # probability a ground-truth object is detected
    fp_rate: float  # expected false positives per image
    tp_concentration: float  # mean true-class logit on real detections
    fp_concentration: float  # mean hallucinated-class logit on false positives
    loc_noise: float  # pixel std added to each box coordinate
    variance_noise: float = 0.0  # lognormal sigma on the reported box variance

    def __post_init__(self):
        for name in ("recall", "fp_rate", "tp_concentration", "fp_concentration",
                     "loc_noise", "variance_noise"):
            _check_number(name, getattr(self, name))
        if not 0.0 <= self.recall <= 1.0:
            raise ConfigurationError(f"recall must lie in [0, 1], got {self.recall}")
        if self.fp_rate < 0:
            raise ConfigurationError(f"fp_rate must be >= 0, got {self.fp_rate}")
        if self.loc_noise < 0 or self.variance_noise < 0:
            raise ConfigurationError("noise stds must be >= 0")


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    image_count: int
    num_classes: int = 1
    image_size: Tuple[int, int] = (640, 480)
    objects_per_image: float = 2.0  # Poisson mean
    night_fraction: float = 0.4
    ignore_fraction: float = 0.0
    profiles: Mapping[str, Mapping[str, ModalityProfile]] = field(default_factory=dict)
    class_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        _check_integer("seed", self.seed, 0)
        _check_integer("image_count", self.image_count, 1)
        _check_integer("num_classes", self.num_classes, 1)
        for name in ("objects_per_image", "night_fraction", "ignore_fraction"):
            _check_number(name, getattr(self, name))
        size = self.image_size
        if not (
            isinstance(size, (tuple, list))
            and len(size) == 2
            and all(_is_number(v) and v > 0 for v in size)
        ):
            raise ConfigurationError(f"image_size must be two positive numbers, got {size!r}")
        if not 0.0 <= self.night_fraction <= 1.0:
            raise ConfigurationError("night_fraction must lie in [0, 1]")
        if not 0.0 <= self.ignore_fraction <= 1.0:
            raise ConfigurationError("ignore_fraction must lie in [0, 1]")
        if self.objects_per_image < 0:
            raise ConfigurationError("objects_per_image must be >= 0")
        if self.class_names is not None and (
            len(self.class_names) != self.num_classes
            or not all(isinstance(n, str) for n in self.class_names)
        ):
            raise ConfigurationError(
                f"class_names must hold num_classes={self.num_classes} strings, "
                f"got {self.class_names!r}"
            )
        if not self.profiles:
            raise ConfigurationError("at least one modality profile is required")
        for modality, by_tag in self.profiles.items():
            for tag in ("day", "night"):
                if tag not in by_tag:
                    raise ConfigurationError(
                        f"modality {modality!r} lacks a profile for tag {tag!r}"
                    )


@dataclass
class SyntheticDataset:
    """A generated scenario as columns: every ground-truth box, each
    modality's detections (det_ids unique across modalities), and the
    day/night tag of every image."""

    ground_truths: GroundTruthColumns
    detections: Dict[str, DetectionColumns]
    tags: Dict[str, str]
    num_classes: int


Box = Tuple[float, float, float, float]  # x, y, w, h


def _random_box(rng, image_size) -> Box:
    width, height = image_size
    w = rng.uniform(25.0, 70.0)
    h = rng.uniform(55.0, 140.0)
    x = rng.uniform(0.0, max(width - w, 1.0))
    y = rng.uniform(0.0, max(height - h, 1.0))
    return x, y, w, h


def _perturbed_box(rng, box: Box, std: float) -> Box:
    if std == 0.0:
        return box
    dx, dy, dw, dh = rng.normal(0.0, std, size=4).tolist()
    x, y, w, h = box
    return x + dx, y + dy, max(w + dw, _MIN_EXTENT), max(h + dh, _MIN_EXTENT)


def _logits(rng, num_classes: int, class_id: int, concentration: float) -> np.ndarray:
    logits = rng.normal(0.0, 1.0, size=num_classes + 1)
    logits[class_id] += concentration
    return logits


def _reported_variance(rng, profile: ModalityProfile) -> float:
    base = max(profile.loc_noise, _MIN_NOISE_STD) ** 2
    if profile.variance_noise > 0:
        base *= float(np.exp(rng.normal(0.0, profile.variance_noise)))
    return base


class _Fired:
    """One modality's detections, appended field by field."""

    def __init__(self):
        self.image_ids: List[str] = []
        self.boxes, self.logits, self.variances = array("d"), array("d"), array("d")

    def append(self, image_id: str, box: Box, logits: np.ndarray, variance: float):
        self.image_ids.append(image_id)
        self.boxes.extend(box)
        self.logits.frombytes(logits.tobytes())
        self.variances.append(variance)

    def columns(self, modality: str, width: int, first_id: int) -> DetectionColumns:
        logits = np.frombuffer(self.logits).reshape(-1, width)
        n = len(self.image_ids)
        return DetectionColumns(
            image_id=self.image_ids,
            modality=[modality] * n,
            boxes=np.frombuffer(self.boxes).reshape(-1, 4),
            variances=np.frombuffer(self.variances),
            scores=ClassScores(logits),
            det_id=np.arange(first_id, first_id + n, dtype=np.int64),
        )


def generate(spec: ScenarioSpec) -> SyntheticDataset:
    """Deterministic given the seed: one RNG stream, fixed iteration order."""
    rng = np.random.default_rng(spec.seed)
    modalities = sorted(spec.profiles)

    gt_images: List[str] = []
    gt_boxes, gt_classes, gt_ignore = array("d"), array("q"), array("b")
    fired = {m: _Fired() for m in modalities}
    tags: Dict[str, str] = {}

    for i in range(spec.image_count):
        image_id = f"img{i:05d}"
        tag = "night" if rng.random() < spec.night_fraction else "day"
        tags[image_id] = tag

        objects: List[Tuple[Box, int]] = []
        for _ in range(rng.poisson(spec.objects_per_image)):
            box = _random_box(rng, spec.image_size)
            class_id = int(rng.integers(1, spec.num_classes + 1))
            gt_ignore.append(rng.random() < spec.ignore_fraction)
            objects.append((box, class_id))
            gt_images.append(image_id)
            gt_boxes.extend(box)
            gt_classes.append(class_id)

        for modality in modalities:
            profile = spec.profiles[modality][tag]
            out = fired[modality]
            for gt_box, class_id in objects:
                if rng.random() >= profile.recall:
                    continue
                box = _perturbed_box(rng, gt_box, profile.loc_noise)
                logits = _logits(rng, spec.num_classes, class_id, profile.tp_concentration)
                out.append(image_id, box, logits, _reported_variance(rng, profile))
            for _ in range(rng.poisson(profile.fp_rate)):
                fp_class = int(rng.integers(1, spec.num_classes + 1))
                box = _random_box(rng, spec.image_size)
                logits = _logits(rng, spec.num_classes, fp_class, profile.fp_concentration)
                out.append(image_id, box, logits, _reported_variance(rng, profile))

    # det_ids are unique across modalities and numbered modality by modality,
    # as the CLI numbers the files written here when it reads them in order
    detections: Dict[str, DetectionColumns] = {}
    next_id = 0
    for modality in modalities:
        detections[modality] = fired[modality].columns(modality, spec.num_classes + 1, next_id)
        next_id += len(detections[modality])

    return SyntheticDataset(
        ground_truths=GroundTruthColumns(
            image_id=gt_images,
            boxes=np.frombuffer(gt_boxes).reshape(-1, 4),
            class_id=np.frombuffer(gt_classes, dtype=np.int64),
            ignore=np.frombuffer(gt_ignore, dtype=bool),
        ),
        detections=detections,
        tags=tags,
        num_classes=spec.num_classes,
    )


def kaist_like_spec(seed: int = 0, image_count: int = 2000) -> ScenarioSpec:
    """Two complementary modalities: RGB strong by day, thermal strong at night."""
    rgb_strong = ModalityProfile(
        recall=0.92, fp_rate=0.40, tp_concentration=4.0, fp_concentration=0.5, loc_noise=4.0
    )
    rgb_weak = ModalityProfile(
        recall=0.80, fp_rate=0.60, tp_concentration=2.5, fp_concentration=0.5, loc_noise=6.0
    )
    thermal_strong = ModalityProfile(
        recall=0.95, fp_rate=0.35, tp_concentration=4.2, fp_concentration=0.5, loc_noise=4.0
    )
    thermal_weak = ModalityProfile(
        recall=0.85, fp_rate=0.55, tp_concentration=2.7, fp_concentration=0.5, loc_noise=5.5
    )
    return ScenarioSpec(
        seed=seed,
        image_count=image_count,
        num_classes=1,
        objects_per_image=2.5,
        night_fraction=0.4,
        profiles={
            "rgb": {"day": rgb_strong, "night": rgb_weak},
            "thermal": {"day": thermal_weak, "night": thermal_strong},
        },
        class_names=("person",),
    )
