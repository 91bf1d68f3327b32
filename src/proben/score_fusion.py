"""Per-cluster class-score fusion rules and score calibration.

All rules consume the score vectors of one overlap cluster and emit a single
fused score vector. Except ``fuse_max``, they also fuse a group of
same-size clusters in one call: member j of every cluster is then one row of
the j-th member's stacked ``ClassScores``, and the result holds one row per
cluster. The probabilistic rule multiplies per-modality posteriors
and divides by the class prior raised to (M-1); under a uniform prior this is
identical to a softmax over summed logits, which is how it is computed here
for numerical stability.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from .detections import ClassPrior, ClassScores
from .errors import ConfigurationError, EmptyClusterError


@dataclass(frozen=True)
class CalibrationParams:
    """Per-modality logit transform: s -> s/T (+ b on foreground entries)."""

    temperature: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.temperature) or self.temperature <= 0:
            raise ConfigurationError(
                f"temperature must be finite and > 0, got {self.temperature}"
            )
        if not math.isfinite(self.shift):
            raise ConfigurationError(f"shift must be finite, got {self.shift}")


@dataclass(frozen=True)
class LinearFusionWeights:
    """Per-modality, per-class logit weights for learned linear fusion."""

    weights: Mapping[str, np.ndarray]

    def __post_init__(self):
        frozen = {}
        for modality, w in dict(self.weights).items():
            arr = np.array(w, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"weights for {modality!r} must be finite")
            arr.flags.writeable = False
            frozen[modality] = arr
        object.__setattr__(self, "weights", frozen)

    def for_modality(self, modality: str) -> np.ndarray:
        try:
            return self.weights[modality]
        except KeyError:
            raise ConfigurationError(f"no fusion weights for modality {modality!r}") from None


def _require_members(member_scores: Sequence[ClassScores]):
    if len(member_scores) == 0:
        raise EmptyClusterError("fusion requires a nonempty cluster")


def fuse_max(member_scores: Sequence[ClassScores]) -> ClassScores:
    """Keep the whole score vector of the highest-scoring member."""
    _require_members(member_scores)
    best = min(
        range(len(member_scores)),
        key=lambda i: (-member_scores[i].score, member_scores[i].argmax_foreground(), i),
    )
    return member_scores[best]


def fuse_avg_posteriors(member_scores: Sequence[ClassScores]) -> ClassScores:
    _require_members(member_scores)
    mean = np.mean([s.posteriors for s in member_scores], axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # averaged posteriors may contain exact zeros
        return ClassScores.from_posteriors(mean)


def fuse_avg_logits(member_scores: Sequence[ClassScores]) -> ClassScores:
    _require_members(member_scores)
    mean = np.mean([s.logits for s in member_scores], axis=0)
    return ClassScores.from_logits(mean)


def fuse_proben(
    member_scores: Sequence[ClassScores],
    prior: ClassPrior,
    m_effective: int,
) -> ClassScores:
    """Multiply member posteriors, divide by prior^(M-1), renormalize.

    m_effective is the number of distinct modalities present in the cluster;
    modalities that did not fire are marginalized simply by their absence.
    """
    _require_members(member_scores)
    if m_effective < 1:
        raise ConfigurationError(f"m_effective must be >= 1, got {m_effective}")
    fused = np.sum([s.log_posteriors for s in member_scores], axis=0)
    fused = fused - (m_effective - 1) * np.log(prior.priors)
    return ClassScores.from_logits(fused)


def fuse_linear(
    scores_by_modality: Mapping[str, ClassScores],
    weights: LinearFusionWeights,
) -> ClassScores:
    """Softmax of the per-class weighted sum of per-modality logits.

    Absent modalities contribute zero, consistent with summed-logit
    marginalization.
    """
    if len(scores_by_modality) == 0:
        raise EmptyClusterError("fusion requires a nonempty cluster")
    fused = None
    for modality, scores in scores_by_modality.items():
        w = weights.for_modality(modality)
        if len(w) != scores.logits.shape[-1]:
            raise ConfigurationError(
                f"weight vector for {modality!r} has length {len(w)}, "
                f"expected {scores.logits.shape[-1]}"
            )
        term = w * scores.logits
        fused = term if fused is None else fused + term
    return ClassScores.from_logits(fused)


def fit_linear_weights(
    training_clusters: Sequence[Tuple[Mapping[str, np.ndarray], bool]],
    step_size: float = 0.1,
    iterations: int = 5000,
) -> LinearFusionWeights:
    """Learn per-modality logit weights by full-batch logistic regression.

    Each training example pairs the per-modality logit vectors of one overlap
    cluster (absent modalities contribute zero features) with a binary
    true/false-positive label. Deterministic gradient descent from a zero
    initialization; the mean logistic loss is non-increasing for the default
    step size on typical logit magnitudes.
    """
    if len(training_clusters) == 0:
        raise ConfigurationError("fit_linear_weights requires training examples")
    modalities = sorted({m for logits, _ in training_clusters for m in logits})
    widths = {
        len(v) for logits, _ in training_clusters for v in logits.values()
    }
    if len(widths) != 1:
        raise ConfigurationError(f"inconsistent logit vector lengths: {sorted(widths)}")
    width = widths.pop()

    n = len(training_clusters)
    x = np.zeros((n, len(modalities) * width))
    y = np.zeros(n)
    for row, (logits, label) in enumerate(training_clusters):
        y[row] = 1.0 if label else 0.0
        for col, modality in enumerate(modalities):
            if modality in logits:
                x[row, col * width : (col + 1) * width] = np.asarray(logits[modality], float)

    if len(set(y)) < 2:
        warnings.warn("training data carries a single label; weights are non-separable")

    w = np.zeros(x.shape[1])
    for _ in range(iterations):
        # the logistic function in a form that cannot overflow
        grad = x.T @ (0.5 + 0.5 * np.tanh(0.5 * (x @ w)) - y) / n
        w = w - step_size * grad

    per_modality: Dict[str, np.ndarray] = {
        modality: w[col * width : (col + 1) * width]
        for col, modality in enumerate(modalities)
    }
    return LinearFusionWeights(weights=per_modality)


def calibrate_scores(scores: ClassScores, params: CalibrationParams) -> ClassScores:
    """Apply s/T to all logits and add the shift to foreground entries only.

    A shift applied to every class would cancel in the softmax; restricting
    it to foreground entries reproduces the scalar relative-logit shift.
    Identity parameters (T=1, b=0) return the scores unchanged, so that
    posteriors read from a file are not re-derived through log and softmax.
    """
    if params.temperature == 1.0 and params.shift == 0.0:
        return scores
    logits = scores.logits / params.temperature
    logits[..., 1:] += params.shift
    return ClassScores.from_logits(logits)
