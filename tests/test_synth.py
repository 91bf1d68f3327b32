from array import array
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proben import ConfigurationError, ModalityProfile, ScenarioSpec, generate, kaist_like_spec
from proben.cli import _read_detection_sets, build_parser
from proben.detections import ClassScores, DetectionColumns, GroundTruthColumns
from proben.fileio import write_detections
from proben.synth import _MIN_EXTENT, _MIN_NOISE_STD, SyntheticDataset


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


# The generator as it made one RNG call per draw, kept as the oracle of the
# batched draws of ``generate``: both must give every value bit for bit.

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


def reference_generate(spec: ScenarioSpec) -> SyntheticDataset:
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


NOISE = st.just(0.0) | st.floats(0.01, 80.0)  # large enough for the _MIN_EXTENT clamp
PROFILES = st.builds(
    ModalityProfile,
    recall=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    fp_rate=st.just(0.0) | st.floats(0.0, 3.0),
    tp_concentration=st.floats(-5.0, 5.0),
    fp_concentration=st.floats(-5.0, 5.0),
    loc_noise=NOISE,
    variance_noise=st.just(0.0) | st.floats(0.01, 2.0),
)


@st.composite
def scenario_specs(draw):
    # inserted unsorted, so that the modalities' sorted draw order shows
    names = ["rgb", "thermal", "aux1", "aux2"][: draw(st.integers(1, 4))]
    return ScenarioSpec(
        seed=draw(st.integers(0, 2**32)),
        image_count=draw(st.integers(1, 30)),
        num_classes=draw(st.integers(1, 4)),
        # boxes wider than the image take max(width - w, 1.0)
        image_size=draw(st.sampled_from([(30, 40), (100.5, 60.0), (640, 480)])),
        objects_per_image=draw(st.just(0.0) | st.floats(0.0, 6.0)),
        night_fraction=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        ignore_fraction=draw(st.floats(0.0, 1.0)),
        profiles={name: {"day": draw(PROFILES), "night": draw(PROFILES)} for name in names},
    )


def bit_columns(dataset):
    """Every column of a dataset, each float as its float64 bit pattern."""

    def bits(values):
        return np.ascontiguousarray(values, dtype=np.float64).view(np.int64).tolist()

    gts = dataset.ground_truths
    return (
        (gts.image_id, bits(gts.boxes), gts.class_id.tolist(), gts.ignore.tolist()),
        (gts.boxes.shape, gts.class_id.dtype, gts.ignore.dtype),
        [
            (m, d.image_id, d.modality, bits(d.boxes), bits(d.scores.logits),
             bits(d.variances), d.det_id.tolist(), d.scores.logits.shape)
            for m, d in dataset.detections.items()
        ],
        dataset.tags,
        dataset.num_classes,
    )


@settings(max_examples=200, deadline=None)
@given(scenario_specs())
def test_batched_draws_equal_one_call_per_draw(spec):
    assert bit_columns(generate(spec)) == bit_columns(reference_generate(spec))


def test_numpy_facts_the_batched_draws_rest_on():
    """What ``generate`` relies on to batch its draws and stack their
    arithmetic; a numpy release that breaks one names the fact here."""

    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.int64).tolist()

    one, batched = np.random.default_rng(11), np.random.default_rng(11)
    width = 100.0
    drawn = [
        (w, h, one.uniform(0.0, max(width - w, 1.0)), one.uniform(0.0, max(60.0 - h, 1.0)))
        for w, h in ((one.uniform(25.0, 70.0), one.uniform(55.0, 140.0)) for _ in range(500))
    ]
    u = np.array([batched.random(4) for _ in range(500)])
    w = 25.0 + (70.0 - 25.0) * u[:, 0]
    h = 55.0 + (140.0 - 55.0) * u[:, 1]
    x = 0.0 + (np.maximum(width - w, 1.0) - 0.0) * u[:, 2]
    y = 0.0 + (np.maximum(60.0 - h, 1.0) - 0.0) * u[:, 3]
    assert bits(drawn) == bits(np.column_stack([w, h, x, y])), (
        "four rng.uniform(lo, hi) calls equal lo + (hi - lo) * rng.random(4), bit for bit"
    )

    # 500 rounds reach the ziggurat's rarer branches, which draw more
    one, batched = np.random.default_rng(12), np.random.default_rng(12)
    parts = [(4.0, 4), (1.0, 3), (0.4, None)]  # box noise, logits, variance noise
    drawn = [np.hstack([one.normal(0.0, s, size=n) for s, n in parts]) for _ in range(500)]
    z = np.array([batched.standard_normal(8) for _ in range(500)])
    mapped = np.hstack([0.0 + 4.0 * z[:, :4], 0.0 + 1.0 * z[:, 4:7], 0.0 + 0.4 * z[:, 7:]])
    assert bits(drawn) == bits(mapped), (
        "consecutive rng.normal(loc, scale, size) calls equal one rng.standard_normal "
        "call mapped through loc + scale * z"
    )

    rng = np.random.default_rng(13)
    rng.integers(1, 3)  # leaves half of a 64-bit draw buffered for the next integer
    before = rng.bit_generator.state
    rng.integers(1, 2)
    assert rng.bit_generator.state == before, "rng.integers(1, 2) leaves the stream where it was"

    column = 0.0 + 0.4 * np.random.default_rng(14).standard_normal(1000)
    for n in (1, 2, 3, 7, 8, 9, 16, 17, 1000):
        assert bits(np.exp(column[:n].copy())) == bits([np.exp(v) for v in column[:n].tolist()]), (
            "np.exp over a stacked column equals np.exp of each value"
        )


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
