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
from dataclasses import dataclass
from typing import Sequence

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


def calibrate_scores(scores: ClassScores, params: CalibrationParams) -> ClassScores:
    """Apply s/T to all logits and add the shift to foreground entries only.

    A shift applied to every class would cancel in the softmax; restricting
    it to foreground entries reproduces the scalar relative-logit shift.
    Identity parameters (T=1, b=0) return the scores unchanged: adding a
    shift of 0.0 would turn a -0.0 logit into 0.0, and ``max`` mode writes
    the calibrated seeds.
    """
    if params.temperature == 1.0 and params.shift == 0.0:
        return scores
    with np.errstate(over="ignore"):
        logits = scores.logits / params.temperature
        logits[..., 1:] += params.shift
    if not np.isfinite(logits).all():
        raise ConfigurationError(
            f"calibration T={params.temperature}, b={params.shift} "
            "takes a logit beyond the float range"
        )
    return ClassScores.from_logits(logits)
