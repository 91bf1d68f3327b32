import json
import subprocess
import sys

import pytest

from proben.cli import main


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


@pytest.fixture
def fig3_inputs(tmp_path):
    """Two modalities seeing the same object, plus a single-modality object."""
    rgb = tmp_path / "rgb.jsonl"
    thermal = tmp_path / "thermal.jsonl"
    write_jsonl(
        rgb,
        [
            {"image_id": "i", "modality": "rgb", "bbox": [0, 0, 10, 20], "posteriors": [0.2, 0.8]},
            {"image_id": "i", "modality": "rgb", "bbox": [50, 50, 10, 20], "posteriors": [0.15, 0.85]},
        ],
    )
    write_jsonl(
        thermal,
        [
            {"image_id": "i", "modality": "thermal", "bbox": [1, 1, 10, 20], "posteriors": [0.3, 0.7]},
        ],
    )
    return rgb, thermal


@pytest.fixture
def gt_file(tmp_path):
    path = tmp_path / "gt.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": {"num_classes": 1, "class_names": ["person"]}}) + "\n")
        fh.write(json.dumps({"image_id": "i", "bbox": [0, 0, 10, 20], "class_id": 1, "tag": "day"}) + "\n")
    return path


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class TestFuse:
    def test_overlapping_pair_fuses_above_either_input(self, fig3_inputs, tmp_path):
        rgb, thermal, out = *fig3_inputs, tmp_path / "fused.jsonl"
        assert main(["fuse", str(rgb), str(thermal), "--out", str(out)]) == 0
        records = read_jsonl(out)
        assert len(records) == 2
        by_modality = {r["modality"]: r for r in records}
        fused = by_modality["rgb+thermal"]
        import numpy as np

        logits = np.array(fused["logits"])
        posterior = float(np.exp(logits[1]) / np.exp(logits).sum())
        assert posterior == pytest.approx(0.9032, abs=5e-4)

    def test_pooling_concatenates(self, fig3_inputs, tmp_path):
        rgb, thermal, out = *fig3_inputs, tmp_path / "pooled.jsonl"
        assert main(["fuse", str(rgb), str(thermal), "--score-fusion", "pooling", "--out", str(out)]) == 0
        assert len(read_jsonl(out)) == 3

    def test_max_mode_keeps_stronger_member(self, fig3_inputs, tmp_path):
        rgb, thermal, out = *fig3_inputs, tmp_path / "nms.jsonl"
        assert main(["fuse", str(rgb), str(thermal), "--score-fusion", "max", "--out", str(out)]) == 0
        modalities = {r["modality"] for r in read_jsonl(out)}
        assert modalities == {"rgb"}

    def test_modality_override_flag(self, tmp_path):
        src = tmp_path / "anon.jsonl"
        write_jsonl(src, [{"image_id": "i", "bbox": [0, 0, 5, 5], "posteriors": [0.4, 0.6]}])
        out = tmp_path / "out.jsonl"
        argv = ["fuse", str(src), "--modality", f"{src}=lidar", "--out", str(out)]
        assert main(argv) == 0
        assert read_jsonl(out)[0]["modality"] == "lidar"

    def test_temperature_flag_applies(self, fig3_inputs, tmp_path):
        rgb, thermal, out = *fig3_inputs, tmp_path / "cal.jsonl"
        argv = [
            "fuse", str(rgb), str(thermal),
            "--score-fusion", "max", "--temperature", "rgb=1000",
            "--out", str(out),
        ]
        assert main(argv) == 0
        by_modality = {r["modality"] for r in read_jsonl(out)}
        # rgb flattened toward 0.5, so thermal wins the shared cluster
        assert "thermal" in by_modality

    def test_module_entry_point(self, fig3_inputs, tmp_path):
        rgb, thermal, out = *fig3_inputs, tmp_path / "fused.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "proben.cli", "fuse", str(rgb), str(thermal), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "total: 2 detections" in proc.stdout


class TestEval:
    def fuse_then_eval(self, fig3_inputs, gt_file, tmp_path, extra=()):
        rgb, thermal = fig3_inputs
        fused = tmp_path / "fused.jsonl"
        assert main(["fuse", str(rgb), str(thermal), "--out", str(fused)]) == 0
        prefix = tmp_path / "report"
        argv = ["eval", str(fused), str(gt_file), "--out-prefix", str(prefix), *extra]
        assert main(argv) == 0
        return prefix

    def test_writes_json_and_text(self, fig3_inputs, gt_file, tmp_path, capsys):
        prefix = self.fuse_then_eval(fig3_inputs, gt_file, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert "all" in payload["subsets"]
        assert (tmp_path / "report.txt").read_text()
        assert "mAP@0.5" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, fig3_inputs, gt_file, tmp_path):
        prefix = self.fuse_then_eval(fig3_inputs, gt_file, tmp_path)
        first = (tmp_path / "report.json").read_bytes(), (tmp_path / "report.txt").read_bytes()
        prefix = self.fuse_then_eval(fig3_inputs, gt_file, tmp_path)
        second = (tmp_path / "report.json").read_bytes(), (tmp_path / "report.txt").read_bytes()
        assert first == second

    def test_metric_filter_drops_other_metric(self, fig3_inputs, gt_file, tmp_path):
        self.fuse_then_eval(fig3_inputs, gt_file, tmp_path, extra=["--metric", "ap"])
        payload = json.loads((tmp_path / "report.json").read_text())
        subset = payload["subsets"]["all"]
        assert "ap" in subset and "lamr" not in subset

    def test_breakdown_adds_tag_subsets(self, fig3_inputs, gt_file, tmp_path):
        self.fuse_then_eval(fig3_inputs, gt_file, tmp_path, extra=["--breakdown"])
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["subsets"]["day"] is not None
        assert payload["subsets"].get("night") is None  # no night images present

    def test_curves_emitted(self, fig3_inputs, gt_file, tmp_path):
        self.fuse_then_eval(fig3_inputs, gt_file, tmp_path, extra=["--curves"])
        assert (tmp_path / "report.all.miss_fppi.csv").exists()
        assert (tmp_path / "report.all.class1.pr.csv").exists()

    def test_declared_empty_images_count_without_breakdown(self, fig3_inputs, gt_file, tmp_path):
        with open(gt_file, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"image_id": "empty", "tag": "night"}) + "\n")
        subsets = {}
        for extra in ([], ["--breakdown"]):
            self.fuse_then_eval(fig3_inputs, gt_file, tmp_path, extra=extra)
            subsets[bool(extra)] = json.loads((tmp_path / "report.json").read_text())["subsets"]
        assert subsets[False]["all"]["num_images"] == 2
        assert subsets[False]["all"] == subsets[True]["all"]


class TestDeclaredImages:
    """Image b is declared by a record with neither bbox nor tag."""

    @pytest.fixture
    def inputs(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        write_jsonl(
            gt,
            [
                {"meta": {"num_classes": 1}},
                {"image_id": "a", "bbox": [0, 0, 10, 20], "class_id": 1},
                {"image_id": "a", "bbox": [50, 0, 10, 20], "class_id": 1},
                {"image_id": "b"},
            ],
        )
        dets = tmp_path / "dets.jsonl"
        # a TP, three FPs on c, then the second TP: LAMR depends on the image count
        scored = [("a", 0, 0.9), ("c", 200, 0.8), ("c", 300, 0.79), ("c", 400, 0.75), ("a", 50, 0.7)]
        write_jsonl(
            dets,
            [
                {"image_id": i, "modality": "rgb", "bbox": [x, 0, 10, 20], "posteriors": [1 - p, p]}
                for i, x, p in scored
            ],
        )
        return dets, gt

    def test_eval_counts_every_declared_image(self, inputs, tmp_path):
        dets, gt = inputs
        for extra in ([], ["--breakdown"]):
            prefix = tmp_path / "report"
            assert main(["eval", str(dets), str(gt), "--out-prefix", str(prefix), *extra]) == 0
            subsets = json.loads((tmp_path / "report.json").read_text())["subsets"]
            assert subsets["all"]["num_images"] == 3

    def test_calibrate_counts_every_declared_image(self, inputs, tmp_path):
        from proben import lamr, match_all
        from proben.fileio import read_detections, read_ground_truth

        dets, gt = inputs
        prefix = tmp_path / "cal"
        argv = [
            "calibrate", str(dets), "--ground-truth", str(gt), "--calibrate-modality", "rgb",
            "--grid-t", "1:1:1", "--grid-b", "0:0:1", "--out-prefix", str(prefix),
        ]
        assert main(argv) == 0
        value = float((tmp_path / "cal.surface.csv").read_text().splitlines()[1].split(",")[2])
        result = match_all(read_detections(dets), read_ground_truth(gt)[0])
        assert lamr(result, 2) != lamr(result, 3)
        assert value == lamr(result, 3)


class TestCalibrate:
    def test_grid_outputs(self, fig3_inputs, gt_file, tmp_path):
        rgb, thermal = fig3_inputs
        prefix = tmp_path / "cal"
        # a negative START, attached with '=' or given as the next argument
        for grid_b in (["--grid-b=-1:1:3"], ["--grid-b", "-1:1:3"]):
            argv = [
                "calibrate", str(rgb), str(thermal),
                "--ground-truth", str(gt_file),
                "--calibrate-modality", "rgb",
                "--grid-t", "0.5:2:4", *grid_b,
                "--out-prefix", str(prefix),
            ]
            assert main(argv) == 0
            surface = (tmp_path / "cal.surface.csv").read_text().strip().splitlines()
            assert len(surface) == 1 + 4 * 3  # header plus every grid point
            best = json.loads((tmp_path / "cal.best.json").read_text())
            assert best["modality"] == "rgb"
            assert set(best) == {"modality", "temperature", "shift", "objective"}

    def test_degenerate_grid_returns_identity(self, fig3_inputs, gt_file, tmp_path):
        rgb, thermal = fig3_inputs
        prefix = tmp_path / "cal"
        argv = [
            "calibrate", str(rgb), str(thermal),
            "--ground-truth", str(gt_file),
            "--calibrate-modality", "rgb",
            "--grid-t", "1:1:1", "--grid-b", "0:0:1",
            "--out-prefix", str(prefix),
        ]
        assert main(argv) == 0
        best = json.loads((tmp_path / "cal.best.json").read_text())
        assert best["temperature"] == 1.0 and best["shift"] == 0.0


class TestSynth:
    def dir_bytes(self, directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            argv = ["synth", "--out-dir", str(out), "--seed", "3", "--images", "25"]
            assert main(argv) == 0
        assert self.dir_bytes(a) == self.dir_bytes(b)

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out-dir", str(a), "--seed", "3", "--images", "25"]) == 0
        assert main(["synth", "--out-dir", str(b), "--seed", "4", "--images", "25"]) == 0
        assert self.dir_bytes(a) != self.dir_bytes(b)

    def test_expected_files(self, tmp_path):
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), "--images", "10"]) == 0
        assert {p.name for p in out.iterdir()} == {"gt.jsonl", "det_rgb.jsonl", "det_thermal.jsonl"}

    def test_extra_modalities(self, tmp_path):
        out = tmp_path / "data"
        argv = ["synth", "--out-dir", str(out), "--images", "10", "--modalities", "3"]
        assert main(argv) == 0
        assert "det_aux1.jsonl" in {p.name for p in out.iterdir()}

    def test_spec_file(self, tmp_path):
        spec = {
            "seed": 5,
            "image_count": 8,
            "num_classes": 2,
            "profiles": {
                "rgb": {
                    "day": {"recall": 0.9, "fp_rate": 0.2, "tp_concentration": 3.0,
                            "fp_concentration": 1.0, "loc_noise": 2.0},
                    "night": {"recall": 0.5, "fp_rate": 0.4, "tp_concentration": 2.0,
                              "fp_concentration": 1.0, "loc_noise": 4.0},
                }
            },
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), "--spec", str(spec_path)]) == 0
        assert {p.name for p in out.iterdir()} == {"gt.jsonl", "det_rgb.jsonl"}


class TestExitCodes:
    def test_malformed_input_returns_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        out = tmp_path / "out.jsonl"
        assert main(["fuse", str(bad), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "first, second, line",
        [
            ({}, {"box_variance": [1]}, 2),
            ({}, {"box_variance": {"v": 1}}, 2),
            ({"logits": [1.0]}, {"logits": [1.0]}, 1),
        ],
        ids=["list-variance", "object-variance", "one-entry-logits"],
    )
    def test_malformed_field_returns_2_with_line(
        self, gt_file, tmp_path, capsys, first, second, line
    ):
        record = {"image_id": "i", "modality": "rgb", "bbox": [0, 0, 10, 20], "logits": [0, 1]}
        bad = tmp_path / "bad.jsonl"
        write_jsonl(bad, [dict(record, **first), dict(record, **second)])
        argv = ["eval", str(bad), str(gt_file), "--out-prefix", str(tmp_path / "e")]
        assert main(argv) == 2
        assert f"{bad}:{line}:" in capsys.readouterr().err

    DET = '{"image_id": "i", "modality": "rgb", "bbox": [0, 0, %s, 20], "logits": [0, 1]}'
    META = '{"meta": {"num_classes": %s}}'
    GT = '{"image_id": "i", "bbox": [0, 0, %s, 20], "class_id": %s}'
    HUGE = "1" + "0" * 400  # an integer too large for a float

    @pytest.mark.parametrize(
        "detection, truth, bad, line",
        [
            (DET % HUGE, [META % 1, GT % (10, 1)], "det", 1),
            (DET % 10, [META % 1, GT % (HUGE, 1)], "gt", 2),
            (DET % 10, [META % 1, GT % (10, "1e999")], "gt", 2),
            (DET % 10, [META % "1e999", GT % (10, 1)], "gt", 1),
            (DET % 10, [META % '"x"', GT % (10, 1)], "gt", 1),
            (DET % 10, ['{"meta": {"num_classes": 1, "class_names": 5}}', GT % (10, 1)], "gt", 1),
        ],
        ids=["det-bbox-huge-int", "gt-bbox-huge-int", "class-id-1e999", "num-classes-1e999",
             "num-classes-string", "class-names-number"],
    )
    def test_numbers_out_of_range_return_2_with_line(
        self, tmp_path, capsys, detection, truth, bad, line
    ):
        paths = {"det": tmp_path / "det.jsonl", "gt": tmp_path / "gt.jsonl"}
        paths["det"].write_text(detection + "\n", encoding="utf-8")
        paths["gt"].write_text("\n".join(truth) + "\n", encoding="utf-8")
        argv = ["eval", str(paths["det"]), str(paths["gt"]), "--out-prefix", str(tmp_path / "e")]
        assert main(argv) == 2
        assert f"{paths[bad]}:{line}:" in capsys.readouterr().err

    def test_bad_prior_returns_3(self, fig3_inputs, tmp_path):
        rgb, thermal = fig3_inputs
        out = tmp_path / "out.jsonl"
        argv = ["fuse", str(rgb), str(thermal), "--prior", "gaussian", "--out", str(out)]
        assert main(argv) == 3

    def test_counted_prior_without_gt_returns_3(self, fig3_inputs, tmp_path):
        rgb, thermal = fig3_inputs
        out = tmp_path / "out.jsonl"
        argv = ["fuse", str(rgb), str(thermal), "--prior", "counted:0.5", "--out", str(out)]
        assert main(argv) == 3

    def test_bad_iou_threshold_returns_3(self, fig3_inputs, tmp_path):
        rgb, thermal = fig3_inputs
        out = tmp_path / "out.jsonl"
        argv = ["fuse", str(rgb), str(thermal), "--iou-threshold", "1.5", "--out", str(out)]
        assert main(argv) == 3

    def test_bad_assignment_returns_3(self, fig3_inputs, tmp_path):
        rgb, thermal = fig3_inputs
        out = tmp_path / "out.jsonl"
        argv = ["fuse", str(rgb), str(thermal), "--temperature", "rgb:2", "--out", str(out)]
        assert main(argv) == 3

    def test_single_modality_preset_returns_3(self, tmp_path):
        out = tmp_path / "data"
        argv = ["synth", "--out-dir", str(out), "--images", "10", "--modalities", "1"]
        assert main(argv) == 3
        assert not out.exists()

    def test_linear_without_weights_returns_3(self, fig3_inputs, tmp_path):
        rgb, thermal = fig3_inputs
        out = tmp_path / "out.jsonl"
        argv = ["fuse", str(rgb), str(thermal), "--score-fusion", "linear", "--out", str(out)]
        assert main(argv) == 3


class TestVarianceChecks:
    def pair(self, tmp_path, variance):
        rgb, thermal = tmp_path / "rgb.jsonl", tmp_path / "thermal.jsonl"
        for path, modality in ((rgb, "rgb"), (thermal, "thermal")):
            write_jsonl(
                path,
                [{"image_id": "i", "modality": modality, "bbox": [0, 0, 10, 20],
                  "posteriors": [0.2, 0.8], "box_variance": variance}],
            )
        return rgb, thermal

    @pytest.mark.parametrize("box_fusion", ["avg", "v-avg"])
    def test_subnormal_variance_is_a_parse_error_at_its_line(self, tmp_path, capsys, box_fusion):
        rgb, thermal = self.pair(tmp_path, 1e-320)
        argv = ["fuse", str(rgb), str(thermal), "--box-fusion", box_fusion,
                "--out", str(tmp_path / "out.jsonl")]
        assert main(argv) == 2
        assert f"{rgb}:1: box_variance 1e-320 has no finite inverse" in capsys.readouterr().err

    @pytest.mark.parametrize("box_fusion", ["avg", "v-avg"])
    def test_fused_variance_must_be_positive(self, tmp_path, capsys, box_fusion):
        # each inverse is finite, but their sum overflows: the fused variance is 0
        rgb, thermal = self.pair(tmp_path, 1.1e-308)
        out = tmp_path / "out.jsonl"
        assert main(["fuse", str(rgb), str(thermal), "--box-fusion", box_fusion,
                     "--out", str(out)]) == 3
        assert "error: box_variance must be finite and positive, got 0.0" in capsys.readouterr().err
        assert not out.exists()


class TestNoPerRecordObjects:
    def test_fuse_eval_and_calibrate_build_no_detection_box_or_ground_truth(
        self, tmp_path, monkeypatch
    ):
        from proben import BBox, Detection, GroundTruth

        assert main(["synth", "--out-dir", str(tmp_path), "--images", "30", "--seed", "3"]) == 0
        built = []
        for cls in (Detection, GroundTruth, BBox):
            init = cls.__init__

            def counted(self, *args, init=init, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        inputs = [str(tmp_path / "det_rgb.jsonl"), str(tmp_path / "det_thermal.jsonl")]
        gt = str(tmp_path / "gt.jsonl")
        fused = str(tmp_path / "fused.jsonl")
        for argv in (
            ["fuse", *inputs, "--box-fusion", "v-avg", "--out", fused],
            ["fuse", *inputs, "--score-fusion", "pooling", "--out", fused],
            ["fuse", *inputs, "--score-fusion", "max", "--temperature", "rgb=2", "--out", fused],
            ["eval", fused, gt, "--breakdown", "--curves", "--out-prefix", str(tmp_path / "ev")],
            ["calibrate", *inputs, "--ground-truth", gt, "--prior", "counted:0.5",
             "--calibrate-modality", "rgb", "--grid-t", "1:2:2",
             "--out-prefix", str(tmp_path / "cal")],
        ):
            assert main(argv) == 0, argv
        assert built == []
        # the counting itself works: the object view still builds them
        from proben.fileio import read_detections

        read_detections(inputs[0]).to_detections()
        assert "Detection" in built and "BBox" in built
