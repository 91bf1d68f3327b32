import numpy as np
import pytest

from proben import ConfigurationError, ModalityProfile, ScenarioSpec, generate, kaist_like_spec
from proben.cli import _read_detection_sets, build_parser
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
    gts = dataset.ground_truths
    return (
        (gts.image_id, gts.boxes.tolist(), gts.class_id.tolist(), gts.ignore.tolist()),
        {
            m: (
                dets.image_id,
                dets.modality,
                dets.boxes.tolist(),
                dets.scores.logits.tolist(),
                dets.variances.tolist(),
                dets.det_id.tolist(),
            )
            for m, dets in dataset.detections.items()
        },
        dataset.tags,
    )


def keyed_boxes(columns):
    """(image_id, x, y) of every row of detection or ground-truth columns."""
    return [(i, x, y) for i, (x, y) in zip(columns.image_id, columns.boxes[:, :2].tolist())]


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
        gts = dataset.ground_truths
        n_gt = len(gts)
        for dets in dataset.detections.values():
            assert len(dets) == n_gt
            # exact boxes, full recall, no false positives: one detection per
            # ground truth, in the same order
            assert dets.image_id == gts.image_id
            assert np.array_equal(dets.boxes, gts.boxes)
        gt_boxes = set(keyed_boxes(gts))
        for dets in dataset.detections.values():
            assert set(keyed_boxes(dets)) <= gt_boxes
            assert np.all(dets.scores.score > 0.999)

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
        gts, rgb = dataset.ground_truths, dataset.detections["rgb"]
        gt_keys = set(zip(gts.image_id, gts.boxes[:, 0].tolist()))
        assert len(rgb)  # Poisson(2) over 20 images: FPs present
        assert not gt_keys & set(zip(rgb.image_id, rgb.boxes[:, 0].tolist()))

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
            # fails on NaN too, which stands for no reported variance
            assert np.all(dets.variances > 0)

    def test_ignore_fraction(self):
        dataset = generate(two_modality_spec(seed=9, ignore_fraction=1.0))
        assert dataset.ground_truths.ignore.all()

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
        args = build_parser().parse_args(["fuse", *paths, "--out", str(tmp_path / "o.jsonl")])
        read = [i for dets in _read_detection_sets(args) for i in dets.det_id.tolist()]
        generated = [
            i for m in sorted(dataset.detections) for i in dataset.detections[m].det_id.tolist()
        ]
        assert generated == read == list(range(len(read)))


def synth_digests(out_dir, *argv):
    """sha256 prefix of each file ``proben synth`` writes to out_dir."""
    import hashlib

    from proben.cli import main

    assert main(["synth", "--out-dir", str(out_dir), *argv]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        for path in sorted(out_dir.iterdir())
    }


def test_kaist_like_files_are_pinned(tmp_path):
    """The written files of the seed-0, 400-image preset, by sha256 prefix (as
    listed in perfbench/README.md): stacking the softmax per modality and
    writing columns must not change a byte."""
    assert synth_digests(tmp_path, "--seed", "0", "--images", "400") == {
        "gt.jsonl": "ff795c6f550a",
        "det_rgb.jsonl": "2c60153b202b",
        "det_thermal.jsonl": "004c66fdf31c",
    }


KAIST_2K = {
    "gt.jsonl": "8d72916b4aa8",
    "det_rgb.jsonl": "b86cd064b846",
    "det_thermal.jsonl": "d963324ea15d",
}


def test_kaist_2k_files_are_pinned(tmp_path):
    """The ``kaist-2k`` benchmark inputs at seed 0, as listed in perfbench/README.md."""
    assert synth_digests(tmp_path, "--seed", "0", "--images", "2000") == KAIST_2K


def test_preset_defaults_are_seed_0_and_2000_images(tmp_path):
    """``--seed``, ``--images`` and ``--modalities`` default to None on the
    command line, and the preset applies 0, 2000 and 2."""
    assert synth_digests(tmp_path, "--preset", "kaist-like") == KAIST_2K


def test_four_modality_preset_files_are_pinned(tmp_path):
    argv = ("--seed", "0", "--images", "400", "--modalities", "4")
    assert synth_digests(tmp_path, *argv) == {
        "gt.jsonl": "e6937ff28c29",
        "det_rgb.jsonl": "c9901fddfffa",
        "det_thermal.jsonl": "cbc9cf566521",
        "det_aux1.jsonl": "a39b7e872732",
        "det_aux2.jsonl": "1107927f99f6",
    }


def profile_json(recall, fp_rate, tp, loc_noise, **extra):
    return dict(recall=recall, fp_rate=fp_rate, tp_concentration=tp,
                fp_concentration=1.0, loc_noise=loc_noise, **extra)


# Three classes and ignore regions; rgb reports noisy variances by day,
# thermal reports exact boxes (no perturbation draw) in both scenes.
PINNED_SPEC = {
    "seed": 5,
    "image_count": 60,
    "num_classes": 3,
    "image_size": [320, 240],
    "objects_per_image": 3.0,
    "night_fraction": 0.5,
    "ignore_fraction": 0.25,
    "class_names": ["person", "car", "bike"],
    "profiles": {
        "rgb": {
            "day": profile_json(0.9, 0.6, 3.0, 2.5, variance_noise=0.4),
            "night": profile_json(0.6, 1.2, 1.5, 5.0),
        },
        "thermal": {
            "day": dict(profile_json(0.7, 0.8, 2.0, 0), fp_concentration=0.5),
            "night": dict(profile_json(0.95, 0.3, 3.5, 0, variance_noise=0.3),
                          fp_concentration=0.5),
        },
    },
}


def test_spec_scenario_files_are_pinned(tmp_path):
    import json

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(PINNED_SPEC))
    digests = synth_digests(tmp_path / "out", "--spec", str(spec))
    assert digests == {
        "gt.jsonl": "55894c1c0613",
        "det_rgb.jsonl": "83237361c81e",
        "det_thermal.jsonl": "98f2f5e17dca",
    }
    gt = (tmp_path / "out" / "gt.jsonl").read_text()
    assert '"ignore": true' in gt and '"class_id": 3' in gt
