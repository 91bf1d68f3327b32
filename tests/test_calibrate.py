import dataclasses

import numpy as np
import pytest

from proben import (
    ClassScores,
    FusionConfig,
    ModalityProfile,
    ScenarioSpec,
    average_precision,
    fuse_all,
    generate,
    lamr,
    match_all,
)
from proben.calibrate import GridSpec, grid_search
from proben.score_fusion import CalibrationParams


@pytest.fixture(scope="module")
def three_modalities():
    """Two classes, three modalities; thermal arrives as posteriors records."""
    profile = ModalityProfile(
        recall=0.8, fp_rate=0.8, tp_concentration=2.5, fp_concentration=1.0, loc_noise=3.0
    )
    spec = ScenarioSpec(
        seed=11,
        image_count=30,
        num_classes=2,
        objects_per_image=3.0,
        profiles={m: {"day": profile, "night": profile} for m in ("aux", "rgb", "thermal")},
    )
    dataset = generate(spec)
    sets = []
    for modality in sorted(dataset.detections):
        dets = dataset.detections[modality]
        if modality == "thermal":
            posteriors = ClassScores.from_posteriors(dets.scores.posteriors)
            dets = dataclasses.replace(dets, scores=posteriors)
        sets.append(dets)
    return sets, dataset.ground_truths


def fresh_objective(sets, gts, image_ids, config, objective):
    result = match_all(fuse_all(sets, config), gts, config.iou_threshold, image_ids=image_ids)
    if objective == "lamr":
        return lamr(result, len(image_ids))
    values = [average_precision(result, c) for c in (1, 2)]
    return float(np.mean([v for v in values if v is not None]))


@pytest.mark.parametrize("objective", ["lamr", "ap"])
@pytest.mark.parametrize("box_fusion", ["argmax", "avg", "s-avg", "v-avg"])
@pytest.mark.parametrize("score_fusion", ["max", "avg-posteriors", "avg-logits", "proben"])
@pytest.mark.parametrize("modality", ["rgb", "thermal"])
def test_shared_batch_matches_fresh_fusion_at_every_point(
    three_modalities, modality, score_fusion, box_fusion, objective
):
    """grid_search fuses one batch at every point; each point must equal a
    fresh fuse_all with that point's calibration (no state carried over)."""
    sets, gts = three_modalities
    config = FusionConfig(
        score_fusion=score_fusion,
        box_fusion=box_fusion,
        calibration={"aux": CalibrationParams(temperature=0.8, shift=0.2)},
    )
    image_ids = sorted(set(gts.image_id).union(*(s.image_id for s in sets)))
    _, surface = grid_search(
        sets,
        gts,
        modality,
        GridSpec(0.5, 1.5, 3),
        GridSpec(-0.5, 0.0, 2),
        objective=objective,
        config=config,
        num_classes=2,
        image_ids=image_ids,
    )
    assert len(surface) == 6
    for t, b, value in surface:
        calibration = dict(config.calibration)
        calibration[modality] = CalibrationParams(temperature=t, shift=b)
        trial = FusionConfig(
            score_fusion=score_fusion,
            box_fusion=box_fusion,
            calibration=calibration,
        )
        assert value == fresh_objective(sets, gts, image_ids, trial, objective), (t, b)
