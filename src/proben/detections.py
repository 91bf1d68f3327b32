"""Detection data model: score vectors, logit/posterior conversion, priors.

Class index 0 is always the explicit background class; foreground classes
occupy indices 1..K. Files that carry a single scalar confidence per box are
ingested as binary posteriors (1-c on background, c on the predicted class).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidScoreError
from .geometry import BBox, box_array, first_invalid_box

POSTERIOR_EPS = 1e-7


def _finite(logits) -> np.ndarray:
    arr = np.asarray(logits, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise InvalidScoreError(f"softmax requires finite entries, got {arr!r}")
    return arr


def _softmax(arr: np.ndarray) -> np.ndarray:
    shifted = arr - arr.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax (max-subtraction) along the last axis."""
    return _softmax(_finite(logits))


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) along the last axis, kept as a length-1 axis.

    The formula of ``scipy.special.logsumexp`` (1.17) for finite input, so
    results match it bit for bit: the entries equal to the row maximum are
    taken out of the sum of exponentials and counted instead.
    """
    top = x.max(axis=-1, keepdims=True)
    at_top = x == top
    count = at_top.sum(axis=-1, keepdims=True)
    rest = np.exp(np.where(at_top, -np.inf, x) - top).sum(axis=-1, keepdims=True)
    return np.log1p(rest / count) + np.log(count) + top


def logits_from_posteriors(posteriors) -> np.ndarray:
    """One valid logit preimage of a probability vector: elementwise log.

    Entries outside (eps, 1-eps) are clamped with a warning so that exact
    zeros and ones stay invertible.
    """
    p = np.asarray(posteriors, dtype=float)
    if p.size == 0 or not np.all(np.isfinite(p)):
        raise InvalidScoreError(f"posteriors must be finite, got {p!r}")
    if np.any(p < POSTERIOR_EPS) or np.any(p > 1.0 - POSTERIOR_EPS):
        warnings.warn(
            "posterior entries clamped to [%.0e, 1-%.0e] before log"
            % (POSTERIOR_EPS, POSTERIOR_EPS),
            stacklevel=2,
        )
        p = np.clip(p, POSTERIOR_EPS, 1.0 - POSTERIOR_EPS)
    return np.log(p)


@dataclass(frozen=True)
class ClassScores:
    """(K+1)-way logit vectors along the last axis.

    One detection holds one vector; a stack of shape (N, K+1) holds the rows
    of N detections, and every method then answers per row. The posteriors
    (the softmax of the logits) and the ranking fields (score, foreground
    argmax, log-posteriors) are derived once per instance, on first use, from
    its own logits, so what fusion ranks by is what a writer of the logits
    writes. They are derived row by row: a row's values do not depend on
    which rows share its stack.
    """

    logits: np.ndarray

    def __post_init__(self):
        self.logits.flags.writeable = False  # so what is derived from it cannot go stale

    @classmethod
    def from_logits(cls, logits) -> "ClassScores":
        return cls(logits=_finite(np.array(logits, dtype=float)))

    @classmethod
    def from_posteriors(cls, posteriors) -> "ClassScores":
        p = np.asarray(posteriors, dtype=float)
        if p.size == 0 or not np.all(np.isfinite(p)):
            raise InvalidScoreError(f"posteriors must be finite, got {p!r}")
        if np.any(p < -1e-9) or np.any(p > 1.0 + 1e-9):
            raise InvalidScoreError("posterior entries must lie in [0, 1]")
        total = p.sum(axis=-1, keepdims=True)
        off = np.abs(total - 1.0) > 1e-6
        if np.any(off):
            raise InvalidScoreError(f"posteriors must sum to 1, got {total[off][0]}")
        return cls(logits=logits_from_posteriors(np.clip(p, 0.0, 1.0) / total))

    @classmethod
    def stack(cls, rows: Sequence["ClassScores"]) -> "ClassScores":
        """A stack holding the given score vectors as its rows; with none, an
        empty stack of one-class rows."""
        return cls(logits=np.array([r.logits for r in rows] or np.zeros((0, 2)), dtype=float))

    def __eq__(self, other):
        if not isinstance(other, ClassScores):
            return NotImplemented
        return np.array_equal(self.logits, other.logits)

    def take(self, rows) -> "ClassScores":
        """The stack of the given rows."""
        return ClassScores(logits=self.logits[rows])

    @property
    def num_foreground(self) -> int:
        return self.logits.shape[-1] - 1

    @cached_property
    def posteriors(self) -> np.ndarray:
        out = _softmax(self.logits)
        out.flags.writeable = False
        return out

    @cached_property
    def log_posteriors(self) -> np.ndarray:
        out = self.logits - _logsumexp(self.logits)
        out.flags.writeable = False
        return out

    @cached_property
    def _ranking(self):
        if self.num_foreground < 1:
            raise InvalidScoreError("score vector has no foreground classes")
        if self.posteriors.ndim == 1:
            cls = 1 + int(np.argmax(self.posteriors[1:]))
            return float(self.posteriors[cls]), cls
        cls = 1 + np.argmax(self.posteriors[:, 1:], axis=1)
        return self.posteriors[np.arange(len(cls)), cls], cls

    def argmax_foreground(self):
        """Highest-posterior foreground class; ties go to the lower class id."""
        return self._ranking[1]

    @property
    def score(self):
        """Posterior of the argmax foreground class (the ranking score)."""
        return self._ranking[0]


def check_box_variance(v: Optional[float]) -> None:
    """Raise ValueError unless v is None or a finite positive number."""
    if v is not None and not (math.isfinite(v) and v > 0):
        raise ValueError(f"box_variance must be finite and positive, got {v}")


@dataclass(frozen=True)
class Detection:
    image_id: str
    modality: str
    box: BBox
    scores: ClassScores
    box_variance: Optional[float] = None
    det_id: int = 0

    def __post_init__(self):
        check_box_variance(self.box_variance)

    @property
    def class_id(self) -> int:
        return self.scores.argmax_foreground()

    @property
    def score(self) -> float:
        return self.scores.score

    @property
    def sort_key(self):
        """Total order: higher score first, then lower class id, then lower det_id."""
        return (-self.score, self.class_id, self.det_id)


@dataclass(frozen=True)
class GroundTruth:
    image_id: str
    box: BBox
    class_id: int
    ignore: bool = False

    def __post_init__(self):
        if self.class_id < 1:
            raise ValueError(f"class_id must be a foreground class >= 1, got {self.class_id}")


@dataclass(frozen=True)
class DetectionColumns:
    """Detections as columns, one row per detection: what a list of
    ``Detection`` holds, without an object per row.

    Box variances are NaN where a detection reports none. Construction makes
    the checks that ``Detection`` and ``BBox`` make, and raises their error
    for the first row that fails.
    """

    image_id: List[str]
    modality: List[str]
    boxes: np.ndarray  # (N, 4) rows (x, y, w, h)
    variances: np.ndarray  # (N,)
    scores: ClassScores  # (N, K+1) stack
    det_id: np.ndarray  # (N,) int64

    def __post_init__(self):
        v = self.variances
        bad = first_invalid_box(self.boxes, (v <= 0) | np.isinf(v))
        if bad >= 0:
            BBox(*self.boxes[bad].tolist())
            check_box_variance(float(v[bad]))

    def __len__(self) -> int:
        return len(self.det_id)

    @classmethod
    def of(cls, detections) -> "DetectionColumns":
        """Columns as given, or the columns of a sequence of ``Detection``."""
        if isinstance(detections, DetectionColumns):
            return detections
        return cls(
            image_id=[d.image_id for d in detections],
            modality=[d.modality for d in detections],
            boxes=box_array(d.box for d in detections),
            variances=np.array(
                [np.nan if d.box_variance is None else d.box_variance for d in detections],
                dtype=float,
            ),
            scores=ClassScores.stack([d.scores for d in detections]),
            det_id=np.array([d.det_id for d in detections], dtype=np.int64),
        )

    @classmethod
    def concatenate(cls, sets: Sequence) -> "DetectionColumns":
        """The rows of every set (columns or a ``Detection`` sequence), in
        order; empty sets add nothing."""
        sets = [s for s in map(cls.of, sets) if len(s)]
        widths = sorted({s.scores.logits.shape[1] for s in sets})
        if len(widths) > 1:
            raise ConfigurationError(f"inconsistent class counts across inputs: {widths}")
        if not sets:
            return cls.of([])
        if len(sets) == 1:
            return sets[0]
        return cls(
            image_id=[i for s in sets for i in s.image_id],
            modality=[m for s in sets for m in s.modality],
            boxes=np.concatenate([s.boxes for s in sets]),
            variances=np.concatenate([s.variances for s in sets]),
            scores=ClassScores(logits=np.concatenate([s.scores.logits for s in sets])),
            det_id=np.concatenate([s.det_id for s in sets]),
        )

    def take(self, rows: np.ndarray) -> "DetectionColumns":
        """The columns of the given rows, in that order."""
        picked = rows.tolist()
        return DetectionColumns(
            image_id=[self.image_id[i] for i in picked],
            modality=[self.modality[i] for i in picked],
            boxes=self.boxes[rows],
            variances=self.variances[rows],
            scores=self.scores.take(rows),
            det_id=self.det_id[rows],
        )

    def to_detections(self) -> List[Detection]:
        """One ``Detection`` per row."""
        return [
            Detection(
                image_id,
                modality,
                BBox(*box),
                ClassScores(logits=row),
                None if math.isnan(variance) else variance,
                det_id,
            )
            for image_id, modality, box, row, variance, det_id in zip(
                self.image_id,
                self.modality,
                self.boxes.tolist(),
                self.scores.logits,
                self.variances.tolist(),
                self.det_id.tolist(),
            )
        ]


@dataclass(frozen=True)
class GroundTruthColumns:
    """Ground truths as columns, one row per box: what a list of
    ``GroundTruth`` holds, without an object per row."""

    image_id: List[str]
    boxes: np.ndarray  # (G, 4) rows (x, y, w, h)
    class_id: np.ndarray  # (G,) int64, foreground classes >= 1
    ignore: np.ndarray  # (G,) bool

    def __len__(self) -> int:
        return len(self.class_id)

    @classmethod
    def of(cls, gts) -> "GroundTruthColumns":
        """Columns as given, or the columns of a sequence of ``GroundTruth``."""
        if isinstance(gts, GroundTruthColumns):
            return gts
        return cls(
            image_id=[g.image_id for g in gts],
            boxes=box_array(g.box for g in gts),
            class_id=np.array([g.class_id for g in gts], dtype=np.int64),
            ignore=np.array([g.ignore for g in gts], dtype=bool),
        )


@dataclass(frozen=True)
class ClassPrior:
    """Marginal class distribution over background + K foreground classes."""

    priors: np.ndarray

    def __post_init__(self):
        p = np.array(self.priors, dtype=float)
        p.flags.writeable = False
        if np.any(p <= 0):
            raise ValueError("class priors must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"class priors must sum to 1, got {p.sum()}")
        object.__setattr__(self, "priors", p)

    @classmethod
    def uniform(cls, num_foreground: int) -> "ClassPrior":
        n = num_foreground + 1
        return cls(priors=np.full(n, 1.0 / n))


def estimate_class_prior(
    gts,
    background_prior: float,
    num_classes: Optional[int] = None,
) -> ClassPrior:
    """Foreground priors proportional to ground-truth counts, background fixed.

    gts is ``GroundTruthColumns`` or a ``GroundTruth`` sequence. Classes with
    zero count receive a floor of 1e-6 before renormalization so the prior
    stays strictly positive.
    """
    if not 0.0 < background_prior < 1.0:
        raise ValueError(f"background_prior must lie in (0, 1), got {background_prior}")
    gts = GroundTruthColumns.of(gts)
    counted = gts.class_id[~gts.ignore]
    if not len(counted):
        raise ValueError("estimate_class_prior requires at least one non-ignored ground truth")
    if num_classes is None:
        num_classes = int(counted.max())
    over = counted[counted > num_classes]
    if len(over):
        raise ValueError(f"ground-truth class {over[0]} exceeds num_classes={num_classes}")
    counts = np.bincount(counted - 1, minlength=num_classes).astype(float)
    counts = np.maximum(counts, 1e-6)
    foreground = counts / counts.sum() * (1.0 - background_prior)
    return ClassPrior(priors=np.concatenate(([background_prior], foreground)))
