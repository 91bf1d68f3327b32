import numpy as np
import pytest

from proben import ConfigurationError, ModalityProfile, ScenarioSpec, generate, kaist_like_spec
from proben.cli import _read_detection_sets
from proben.fileio import write_detections


def perfect_profile():
    return ModalityProfile(
        recall=1.0, fp_rate=0.0, tp_concentration=25.0, fp_concentration=0.0, loc_noise=0.0
    )


def two_modality_spec(**overrides):
    profile = perfect_profile()
    defaults = dict(
        seed=3,
        image_count=20,
        num_classes=2,
        objects_per_image=2.0,
        night_fraction=0.5,
        profiles={
            "rgb": {"day": profile, "night": profile},
            "thermal": {"day": profile, "night": profile},
        },
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def dataset_fingerprint(dataset):
    return (
        [(g.image_id, g.box, g.class_id, g.ignore) for g in dataset.ground_truths],
        {
            m: [
                (d.image_id, d.box, tuple(d.scores.logits), d.box_variance, d.det_id)
                for d in dets
            ]
            for m, dets in dataset.detections.items()
        },
        dataset.tags,
    )


class TestScenarioSpec:
    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            ModalityProfile(recall=1.5, fp_rate=0, tp_concentration=1, fp_concentration=1, loc_noise=0)
        with pytest.raises(ConfigurationError):
            ModalityProfile(recall=0.5, fp_rate=-1, tp_concentration=1, fp_concentration=1, loc_noise=0)
        with pytest.raises(ConfigurationError):
            ModalityProfile(recall=0.5, fp_rate=0, tp_concentration=1, fp_concentration=1, loc_noise=-2)

    def test_requires_profiles(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(seed=0, image_count=10, profiles={})

    def test_requires_both_tags(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                seed=0,
                image_count=10,
                profiles={"rgb": {"day": perfect_profile()}},
            )

    def test_image_count_positive(self):
        with pytest.raises(ConfigurationError):
            two_modality_spec(image_count=0)


class TestGenerate:
    def test_degenerate_spec_reproduces_ground_truth(self):
        dataset = generate(two_modality_spec())
        n_gt = len(dataset.ground_truths)
        for dets in dataset.detections.values():
            assert len(dets) == n_gt
            for d, g in zip(dets, sorted(dataset.ground_truths, key=lambda g: g.image_id)):
                pass  # ordering checked via boxes below
        gt_boxes = {(g.image_id, g.box.x, g.box.y) for g in dataset.ground_truths}
        for dets in dataset.detections.values():
            for d in dets:
                assert (d.image_id, d.box.x, d.box.y) in gt_boxes
                assert d.score > 0.999

    def test_same_seed_identical_output(self):
        a = generate(two_modality_spec())
        b = generate(two_modality_spec())
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_different_seed_differs(self):
        a = generate(two_modality_spec())
        b = generate(two_modality_spec(seed=4))
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_zero_recall_emits_only_fps(self):
        profile = ModalityProfile(
            recall=0.0, fp_rate=2.0, tp_concentration=3.0, fp_concentration=2.0, loc_noise=1.0
        )
        spec = two_modality_spec(
            profiles={
                "rgb": {"day": profile, "night": profile},
                "thermal": {"day": perfect_profile(), "night": perfect_profile()},
            }
        )
        dataset = generate(spec)
        gt_keys = {(g.image_id, g.box.x) for g in dataset.ground_truths}
        assert dataset.detections["rgb"]  # Poisson(2) over 20 images: FPs present
        for d in dataset.detections["rgb"]:
            assert (d.image_id, d.box.x) not in gt_keys

    def test_detection_probability_tracks_recall(self):
        half = ModalityProfile(
            recall=0.5, fp_rate=0.0, tp_concentration=3.0, fp_concentration=2.0, loc_noise=1.0
        )
        spec = two_modality_spec(
            seed=11,
            image_count=400,
            profiles={
                "rgb": {"day": half, "night": half},
                "thermal": {"day": half, "night": half},
            },
        )
        dataset = generate(spec)
        n_gt = len(dataset.ground_truths)
        for dets in dataset.detections.values():
            assert 0.42 < len(dets) / n_gt < 0.58

    def test_variance_reported_with_every_detection(self):
        dataset = generate(kaist_like_spec(seed=1, image_count=30))
        for dets in dataset.detections.values():
            for d in dets:
                assert d.box_variance is not None and d.box_variance > 0

    def test_ignore_fraction(self):
        dataset = generate(two_modality_spec(seed=9, ignore_fraction=1.0))
        assert all(g.ignore for g in dataset.ground_truths)

    def test_tags_cover_all_images(self):
        spec = kaist_like_spec(seed=2, image_count=50)
        dataset = generate(spec)
        assert len(dataset.tags) == 50
        assert set(dataset.tags.values()) <= {"day", "night"}

    def test_det_ids_unique_across_modalities_as_the_cli_reads_them(self, tmp_path):
        # The CLI numbers detections file by file in the order it reads them;
        # generate numbers them the same way, modality by modality.
        dataset = generate(kaist_like_spec(seed=4, image_count=40))
        paths = []
        for modality in sorted(dataset.detections):
            paths.append(str(tmp_path / f"det_{modality}.jsonl"))
            write_detections(paths[-1], dataset.detections[modality])
        read = [d.det_id for dets in _read_detection_sets(paths, {}) for d in dets]
        generated = [
            d.det_id for m in sorted(dataset.detections) for d in dataset.detections[m]
        ]
        assert generated == read == list(range(len(read)))
