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


def _uniform(low, high, u):
    """``rng.uniform(low, high)`` whose one ``rng.random()`` draw was u."""
    return low + (high - low) * u


def _normal(loc, scale, z):
    """``rng.normal(loc, scale)`` whose one ``rng.standard_normal()`` draw was z."""
    return loc + scale * z


def _boxes(u: np.ndarray, image_size) -> np.ndarray:
    """(x, y, w, h) rows from rows of four uniform draws, taken as w, h, x, y."""
    width, height = image_size
    w = _uniform(25.0, 70.0, u[:, 0])
    h = _uniform(55.0, 140.0, u[:, 1])
    x = _uniform(0.0, np.maximum(width - w, 1.0), u[:, 2])
    y = _uniform(0.0, np.maximum(height - h, 1.0), u[:, 3])
    return np.column_stack([x, y, w, h])


def _scored(z: np.ndarray, classes, concentration: float, profile: ModalityProfile):
    """Logits and reported box variances from rows of standard normal draws:
    the logits' draws, then one variance draw when variance_noise > 0."""
    width = z.shape[1] - (profile.variance_noise > 0)
    logits = _normal(0.0, 1.0, z[:, :width])
    logits[np.arange(len(logits)), classes] += concentration
    variances = np.full(len(logits), max(profile.loc_noise, _MIN_NOISE_STD) ** 2)
    if profile.variance_noise > 0:
        variances *= np.exp(_normal(0.0, profile.variance_noise, z[:, width]))
    return logits, variances


def generate(spec: ScenarioSpec) -> SyntheticDataset:
    """Deterministic given the seed: one RNG stream, drawn in a pinned order.

    The loop makes every draw in that order, one call per group of draws:
    per image, the tag's ``random`` and a ``poisson``; per object, four
    uniforms (w, h, x, y), its class and the ignore ``random``; then per
    modality (sorted), per object a ``random`` coin and, if it fires, one
    ``standard_normal`` call for the box noise (when loc_noise > 0), the
    logits and the variance noise (when variance_noise > 0); then a
    ``poisson`` and, per false positive, its class, four uniforms and the
    logits' and variance's normals. The arithmetic then runs on the stacked
    draws, as ``rng.uniform`` and ``rng.normal`` would have applied it.
    """
    rng = np.random.default_rng(spec.seed)
    modalities = sorted(spec.profiles)
    width = spec.num_classes + 1
    several = spec.num_classes > 1  # integers(1, 2) draws nothing
    nights: List[bool] = []
    gt_image, gt_u, gt_class, gt_ignore = [], [], [], []
    # per modality and tag: the profile, the normals per true and per false
    # positive, the true positives' ground truths and normals, and the false
    # positives' images, classes, uniforms and normals
    drawn = {}
    for modality in modalities:
        for night in (False, True):
            p = spec.profiles[modality]["night" if night else "day"]
            size = width + (p.variance_noise > 0)
            drawn[modality, night] = (p, size + 4 * (p.loc_noise > 0), size, [], [], [], [], [], [])

    for i in range(spec.image_count):
        night = rng.random() < spec.night_fraction
        nights.append(night)
        first = len(gt_image)
        for _ in range(rng.poisson(spec.objects_per_image)):
            gt_image.append(i)
            gt_u.append(rng.random(4))
            gt_class.append(int(rng.integers(1, width)) if several else 1)
            gt_ignore.append(rng.random())
        for modality in modalities:
            p, tp_size, fp_size, tp_gt, tp_z, fp_image, fp_class, fp_u, fp_z = drawn[modality, night]
            for g in range(first, len(gt_image)):
                if rng.random() < p.recall:
                    tp_gt.append(g)
                    tp_z.append(rng.standard_normal(tp_size))
            for _ in range(rng.poisson(p.fp_rate)):
                fp_image.append(i)
                fp_class.append(int(rng.integers(1, width)) if several else 1)
                fp_u.append(rng.random(4))
                fp_z.append(rng.standard_normal(fp_size))

    names = [f"img{i:05d}" for i in range(spec.image_count)]
    gt_image, gt_class = np.array(gt_image, dtype=np.intp), np.array(gt_class, dtype=np.int64)
    gt_boxes = _boxes(np.reshape(gt_u, (-1, 4)), spec.image_size)
    # det_ids are unique across modalities and numbered modality by modality,
    # as the CLI numbers the files written here when it reads them in order
    detections: Dict[str, DetectionColumns] = {}
    for modality in modalities:
        parts = []  # (2 * image, + 1 for a false positive), boxes, logits, variances
        for night in (False, True):
            p, tp_size, fp_size, tp_gt, tp_z, fp_image, fp_class, fp_u, fp_z = drawn[modality, night]
            tp_gt, z = np.array(tp_gt, dtype=np.intp), np.reshape(tp_z, (-1, tp_size))
            boxes = gt_boxes[tp_gt]
            if p.loc_noise > 0:
                boxes = boxes + _normal(0.0, p.loc_noise, z[:, :4])
                boxes[:, 2:] = np.maximum(boxes[:, 2:], _MIN_EXTENT)
                z = z[:, 4:]
            parts.append((2 * gt_image[tp_gt], boxes,
                          *_scored(z, gt_class[tp_gt], p.tp_concentration, p)))
            fp_z, fp_class = np.reshape(fp_z, (-1, fp_size)), np.array(fp_class, dtype=np.intp)
            parts.append((2 * np.array(fp_image, dtype=np.intp) + 1,
                          _boxes(np.reshape(fp_u, (-1, 4)), spec.image_size),
                          *_scored(fp_z, fp_class, p.fp_concentration, p)))
        key, boxes, logits, variances = (np.concatenate(column) for column in zip(*parts))
        order = np.argsort(key, kind="stable")  # by image, true positives first
        first_id = sum(map(len, detections.values()))
        detections[modality] = DetectionColumns(
            image_id=[names[i] for i in (key[order] // 2).tolist()],
            modality=[modality] * len(order),
            boxes=boxes[order],
            variances=variances[order],
            scores=ClassScores(logits[order]),
            det_id=np.arange(first_id, first_id + len(order), dtype=np.int64),
        )

    return SyntheticDataset(
        ground_truths=GroundTruthColumns(
            image_id=[names[i] for i in gt_image.tolist()],
            boxes=gt_boxes,
            class_id=gt_class,
            ignore=np.array(gt_ignore) < spec.ignore_fraction,
        ),
        detections=detections,
        tags={name: "night" if night else "day" for name, night in zip(names, nights)},
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
