"""Deterministic synthetic multimodal scenario generator.

Produces ground truths plus per-modality detection streams whose detection
events are sampled independently per modality given the ground truth - the
conditional-independence regime in which probabilistic score fusion is the
optimal combination rule. Profiles are per modality and per scene tag
(day/night) so the two modalities can be made complementary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .detections import ClassScores, Detection, GroundTruth
from .errors import ConfigurationError
from .geometry import BBox

_MIN_EXTENT = 2.0
_MIN_NOISE_STD = 1e-3


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
        if self.image_count < 1:
            raise ConfigurationError("image_count must be >= 1")
        if self.num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1")
        if not 0.0 <= self.night_fraction <= 1.0:
            raise ConfigurationError("night_fraction must lie in [0, 1]")
        if not 0.0 <= self.ignore_fraction <= 1.0:
            raise ConfigurationError("ignore_fraction must lie in [0, 1]")
        if self.objects_per_image < 0:
            raise ConfigurationError("objects_per_image must be >= 0")
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
    ground_truths: List[GroundTruth]
    detections: Dict[str, List[Detection]]
    tags: Dict[str, str]
    num_classes: int


def _random_box(rng, image_size) -> BBox:
    width, height = image_size
    w = rng.uniform(25.0, 70.0)
    h = rng.uniform(55.0, 140.0)
    x = rng.uniform(0.0, max(width - w, 1.0))
    y = rng.uniform(0.0, max(height - h, 1.0))
    return BBox(x, y, w, h)


def _perturbed_box(rng, box: BBox, std: float) -> BBox:
    if std == 0.0:
        return box
    dx, dy, dw, dh = rng.normal(0.0, std, size=4)
    return BBox(
        box.x + dx,
        box.y + dy,
        max(box.w + dw, _MIN_EXTENT),
        max(box.h + dh, _MIN_EXTENT),
    )


def _logits(rng, num_classes: int, class_id: int, concentration: float) -> np.ndarray:
    logits = rng.normal(0.0, 1.0, size=num_classes + 1)
    logits[class_id] += concentration
    return logits


def _reported_variance(rng, profile: ModalityProfile) -> float:
    base = max(profile.loc_noise, _MIN_NOISE_STD) ** 2
    if profile.variance_noise > 0:
        base *= float(np.exp(rng.normal(0.0, profile.variance_noise)))
    return base


def generate(spec: ScenarioSpec) -> SyntheticDataset:
    """Deterministic given the seed: one RNG stream, fixed iteration order."""
    rng = np.random.default_rng(spec.seed)
    modalities = sorted(spec.profiles)

    ground_truths: List[GroundTruth] = []
    # per modality: (image_id, box, logits, variance) of each detection
    fired: Dict[str, List[tuple]] = {m: [] for m in modalities}
    tags: Dict[str, str] = {}

    for i in range(spec.image_count):
        image_id = f"img{i:05d}"
        tag = "night" if rng.random() < spec.night_fraction else "day"
        tags[image_id] = tag

        objects: List[GroundTruth] = []
        for _ in range(rng.poisson(spec.objects_per_image)):
            objects.append(
                GroundTruth(
                    image_id=image_id,
                    box=_random_box(rng, spec.image_size),
                    class_id=int(rng.integers(1, spec.num_classes + 1)),
                    ignore=bool(rng.random() < spec.ignore_fraction),
                )
            )
        ground_truths.extend(objects)

        for modality in modalities:
            profile = spec.profiles[modality][tag]
            for gt in objects:
                if rng.random() >= profile.recall:
                    continue
                box = _perturbed_box(rng, gt.box, profile.loc_noise)
                logits = _logits(rng, spec.num_classes, gt.class_id, profile.tp_concentration)
                fired[modality].append((image_id, box, logits, _reported_variance(rng, profile)))
            for _ in range(rng.poisson(profile.fp_rate)):
                fp_class = int(rng.integers(1, spec.num_classes + 1))
                box = _random_box(rng, spec.image_size)
                logits = _logits(rng, spec.num_classes, fp_class, profile.fp_concentration)
                fired[modality].append((image_id, box, logits, _reported_variance(rng, profile)))

    # det_ids are unique across modalities and numbered modality by modality,
    # as the CLI numbers the files written here when it reads them in order;
    # each modality's score rows are one stack
    detections: Dict[str, List[Detection]] = {}
    next_id = 0
    for modality in modalities:
        rows = fired[modality]
        if rows:
            stack = ClassScores.from_logits(np.array([logits for _, _, logits, _ in rows]))
        detections[modality] = [
            Detection(image_id, modality, box, stack.row(i), variance, next_id + i)
            for i, (image_id, box, _, variance) in enumerate(rows)
        ]
        next_id += len(rows)

    return SyntheticDataset(
        ground_truths=ground_truths,
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
