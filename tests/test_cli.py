import json
import subprocess
import sys

import pytest

from proben.box_fusion import BOX_FUSION_MODES
from proben.cli import main
from proben.detections import softmax
from proben.engine import SCORE_FUSION_MODES


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
            assert surface[0] == "temperature,shift,lamr"
            for row in surface[1:]:  # every value as repr spells it
                assert row == ",".join(repr(float(v)) for v in row.split(","))
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


SPEC = {
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
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
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
            (DET % 10, [META % 10**19, GT % (10, 2**63)], "gt", 1),
        ],
        ids=["det-bbox-huge-int", "gt-bbox-huge-int", "class-id-1e999", "num-classes-1e999",
             "num-classes-string", "class-names-number", "num-classes-beyond-int64"],
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

    def test_score_class_id_beyond_int64_returns_2_at_its_line(self, tmp_path, capsys):
        dets = tmp_path / "det.jsonl"
        score = '{"image_id": "i", "modality": "rgb", "bbox": [0, 0, 10, 20], "score": 0.5, "class_id": %d}'
        dets.write_text(score % 10**19 + "\n", encoding="utf-8")
        assert main(["fuse", str(dets), "--out", str(tmp_path / "fused.jsonl")]) == 2
        self.clean_error(capsys, f"{dets}:1: invalid score: class_id must fit int64, got {10**19}")

    def test_a_second_ground_truth_header_returns_2_at_its_line(self, tmp_path, capsys):
        dets, gt = tmp_path / "det.jsonl", tmp_path / "gt.jsonl"
        gt.write_text("\n".join([self.META % 2, self.GT % (10, 2), self.META % 1]) + "\n")
        dets.write_text(self.DET % 10 + "\n", encoding="utf-8")
        assert main(["eval", str(dets), str(gt), "--out-prefix", str(tmp_path / "e")]) == 2
        self.clean_error(capsys, f"{gt}:3: only the first record may be a meta header")
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--iou-threshold", "5"], "iou_threshold must lie in (0, 1), got 5.0"),
            (["--prior", "bogus"], "--prior must be 'uniform' or 'counted:<bg>', got 'bogus'"),
            (["--prior", "counted:0.5"], "--prior counted requires --ground-truth"),
            (["--temperature", "rgb=-1"], "temperature must be finite and > 0, got -1.0"),
            (["--shift", "rgb=inf"], "shift must be finite, got inf"),
            (["--temperature", "rgb"], "--temperature expects KEY=VALUE, got 'rgb'"),
        ],
        ids=["iou", "prior", "counted-prior", "temperature", "shift", "assignment"],
    )
    @pytest.mark.parametrize("mode", ["pooling", "max"])
    def test_bad_fusion_flag_returns_3_in_every_mode(
        self, fig3_inputs, tmp_path, capsys, flag, message, mode
    ):
        rgb, thermal = fig3_inputs
        out = tmp_path / "out.jsonl"
        argv = ["fuse", str(rgb), str(thermal), "--score-fusion", mode, *flag, "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("threshold", ["0", "1", "2", "nan", "-1"])
    def test_bad_iou_threshold_on_eval_returns_3_as_on_fuse(
        self, fig3_inputs, gt_file, tmp_path, capsys, threshold
    ):
        rgb, thermal = fig3_inputs
        prefix = tmp_path / "report"
        argv = ["eval", str(rgb), str(gt_file), f"--iou-threshold={threshold}",
                "--out-prefix", str(prefix)]
        assert main(argv) == 3
        eval_error = capsys.readouterr().err
        argv = ["fuse", str(rgb), str(thermal), f"--iou-threshold={threshold}",
                "--out", str(tmp_path / "out.jsonl")]
        assert main(argv) == 3
        message = f"error: iou_threshold must lie in (0, 1), got {float(threshold)}\n"
        assert eval_error == capsys.readouterr().err == message
        assert not (tmp_path / "report.json").exists()

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

    # a bad field of a --spec file, and the word its error message names
    BAD_SPECS = {
        "fractional num_classes": ({"num_classes": 2.5}, "num_classes"),
        "profiles as a list": ({"profiles": []}, "profiles"),
        "tag profiles as a list": ({"profiles": {"rgb": []}}, "profiles"),
        "non-numeric image_size": ({"image_size": [640, "x"]}, "image_size"),
        "class_names of another length": ({"class_names": ["person"]}, "class_names"),
    }

    @pytest.mark.parametrize("change, named", BAD_SPECS.values(), ids=list(BAD_SPECS))
    def test_bad_spec_returns_3(self, tmp_path, capsys, change, named):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(SPEC, **change)))
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), "--spec", str(spec_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not out.exists()

    def test_fusion_modes_are_those_of_the_fusion_modules(self, capsys):
        from proben.box_fusion import BOX_FUSION_MODES
        from proben.cli import build_parser
        from proben.engine import SCORE_FUSION_MODES

        parser = build_parser()
        fuse = ["fuse", "in.jsonl", "--out", "o"]
        calibrate = ["calibrate", "in.jsonl", "--calibrate-modality", "rgb"]
        # pooling fuses nothing, so calibrate has nothing to calibrate with it
        for argv, offered, refused in ((fuse, [*SCORE_FUSION_MODES, "pooling"], ["linear"]),
                                       (calibrate, SCORE_FUSION_MODES, ["linear", "pooling"])):
            for mode in offered:
                assert parser.parse_args([*argv, "--score-fusion", mode]).score_fusion == mode
            for mode in BOX_FUSION_MODES:
                assert parser.parse_args([*argv, "--box-fusion", mode]).box_fusion == mode
            for mode in refused:
                with pytest.raises(SystemExit) as exit_info:
                    parser.parse_args([*argv, "--score-fusion", mode])
                assert exit_info.value.code == 2
                assert f"invalid choice: '{mode}'" in capsys.readouterr().err

    def test_calibrate_modality_that_no_input_holds_returns_3(
        self, fig3_inputs, gt_file, tmp_path, capsys
    ):
        rgb, thermal = fig3_inputs
        prefix = tmp_path / "cal"
        argv = ["calibrate", str(rgb), str(thermal), "--ground-truth", str(gt_file),
                "--calibrate-modality", "rbg", "--grid-t", "0.5:2:4", "--out-prefix", str(prefix)]
        assert main(argv) == 3
        self.clean_error(capsys, "'rbg'", "'rgb', 'thermal'")
        assert not (tmp_path / "cal.surface.csv").exists()

    @staticmethod
    def clean_error(capsys, *named):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        for text in named:
            assert text in err, err

    @pytest.mark.parametrize("missing", ["detections", "ground truth", "spec", "directory"])
    def test_input_that_cannot_be_opened_returns_2_naming_it(
        self, fig3_inputs, gt_file, tmp_path, capsys, missing
    ):
        rgb, _ = fig3_inputs
        nope, prefix = tmp_path / "nope.jsonl", str(tmp_path / "e")
        argv = {
            "detections": ["eval", str(nope), str(gt_file), "--out-prefix", prefix],
            "ground truth": ["eval", str(rgb), str(nope), "--out-prefix", prefix],
            "spec": ["synth", "--out-dir", str(tmp_path / "data"), "--spec", str(nope)],
            "directory": ["fuse", str(rgb), str(tmp_path), "--out", str(tmp_path / "o.jsonl")],
        }[missing]
        assert main(argv) == 2
        self.clean_error(capsys, str(tmp_path if missing == "directory" else nope))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("which", ["det", "gt"])
    def test_undecodable_line_returns_2_at_its_line(self, tmp_path, capsys, newline, which):
        record = '{"image_id": "%s", "modality": "rgb", "bbox": [0, 0, 10, 20], "logits": [0, 1]}'
        lines = {
            "det": [record % "a", "", record % "b", record % "\xff", record % "c"],
            "gt": ['{"meta": {"num_classes": 1}}', '{"image_id": "a"}', "",
                   '{"image_id": "\xff"}'],
        }
        paths = {"det": tmp_path / "det.jsonl", "gt": tmp_path / "gt.jsonl"}
        for name in paths:
            text = newline.join(lines[name]) + newline
            bad = text.encode("utf-8")
            if name == which:  # "\xff" becomes the byte 0xff, which is not UTF-8
                bad = text.encode("latin-1")
            paths[name].write_bytes(bad)
        argv = ["eval", str(paths["det"]), str(paths["gt"]), "--out-prefix", str(tmp_path / "e")]
        assert main(argv) == 2
        self.clean_error(capsys, f"{paths[which]}:4: not UTF-8: byte 0xff")

    @pytest.mark.parametrize("command", ["fuse", "eval", "calibrate", "synth"])
    def test_output_that_cannot_be_written_returns_3_naming_it(
        self, fig3_inputs, gt_file, tmp_path, capsys, command
    ):
        rgb, thermal = fig3_inputs
        missing = tmp_path / "missing"
        blocked = tmp_path / "file"
        blocked.write_text("")
        argv, named = {
            "fuse": (["fuse", str(rgb), "--out", str(missing / "o.jsonl")], missing / "o.jsonl"),
            "eval": (["eval", str(rgb), str(gt_file), "--out-prefix", str(missing / "e")],
                     missing / "e.json"),
            "calibrate": (["calibrate", str(rgb), str(thermal), "--ground-truth", str(gt_file),
                           "--calibrate-modality", "rgb", "--grid-t", "1:2:2",
                           "--out-prefix", str(missing / "c")], missing / "c.surface.csv"),
            "synth": (["synth", "--out-dir", str(blocked / "data"), "--images", "5"],
                      blocked / "data"),
        }[command]
        assert main(argv) == 3
        self.clean_error(capsys, f"cannot write {named}")

    @pytest.mark.parametrize(
        "flag", [["--seed", "9"], ["--images", "50"], ["--modalities", "3"]], ids=lambda f: f[0]
    )
    def test_preset_flags_with_spec_return_3(self, tmp_path, capsys, flag):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), "--spec", str(spec_path), *flag]) == 3
        self.clean_error(capsys, flag[0])
        assert not out.exists()

    def test_stale_detection_files_return_3_before_writing(self, tmp_path, capsys):
        out = tmp_path / "data"
        argv = ["synth", "--out-dir", str(out), "--images", "5"]
        assert main([*argv, "--modalities", "3"]) == 0
        assert main([*argv, "--modalities", "3"]) == 0  # the same modalities again
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main([*argv, "--seed", "1"]) == 3
        self.clean_error(capsys, str(out / "det_aux1.jsonl"))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_default_valued_preset_flag_with_spec_returns_3(self, tmp_path, capsys):
        """A preset flag is refused with --spec when given at all, even at
        the value the preset path would apply."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), "--spec", str(spec_path), "--seed", "0"]) == 3
        self.clean_error(capsys, "--seed")
        assert not out.exists()

    def test_spec_run_into_a_preset_directory_returns_3(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))  # writes rgb only
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), "--images", "5"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["synth", "--out-dir", str(out), "--spec", str(spec_path)]) == 3
        self.clean_error(capsys, str(out / "det_thermal.jsonl"))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_files_that_are_not_detection_files_are_left_alone(self, tmp_path):
        out = tmp_path / "data"
        out.mkdir()
        kept = {"det_aux1.jsonl.bak": b"old", "notes.jsonl": b"{}", "det_aux1.json": b"{}"}
        for name, data in kept.items():
            (out / name).write_bytes(data)
        assert main(["synth", "--out-dir", str(out), "--images", "5"]) == 0
        for name, data in kept.items():
            assert (out / name).read_bytes() == data
        assert sorted(p.name for p in out.glob("det_*.jsonl")) == [
            "det_rgb.jsonl", "det_thermal.jsonl"
        ]

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (b'{"seed": 1,', 1, "invalid JSON: Expecting property name"),
            (b'{\n  "seed": 1,\n  "image_count": ]\n}\n', 3, "invalid JSON: Expecting value"),
            (b'{\r\n  "seed": 1,\r\n  "x": "\xff"\r\n}', 3, "not UTF-8: byte 0xff"),
            (b"", 1, "invalid JSON: Expecting value"),
        ],
        ids=["truncated", "third-line", "not-utf8", "empty"],
    )
    def test_spec_that_is_not_json_returns_2_at_its_line(
        self, tmp_path, capsys, text, line, message
    ):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(text)
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), "--spec", str(spec_path)]) == 2
        self.clean_error(capsys, f"{spec_path}:{line}: {message}")
        assert not out.exists()

    DEEP = "[" * 3000 + "]" * 3000  # nested beyond the interpreter's recursion limit
    DEEP_OBJECT = '{"a": ' * 3000 + "1" + "}" * 3000
    RECORD = '{"image_id": %s, "modality": %s, "bbox": %s, "logits": [0, 1]%s}'
    BOX = '{"image_id": %s, "bbox": %s, "class_id": 1%s}'

    @pytest.mark.parametrize(
        "detection, truth, bad, line",
        [
            (RECORD % ('"i"', '"rgb"', "[0, 0, 10, 20]", ', "v": NaN, "x": ' + DEEP), [], "det", 2),
            (RECORD % ('"i"', '"rgb"', DEEP, ""), [], "det", 2),
            (RECORD % (DEEP, '"rgb"', "[0, 0, 10, 20]", ""), [], "det", 2),
            (RECORD % ('"i"', DEEP, "[0, 0, 10, 20]", ""), [], "det", 2),
            (None, [META % DEEP], "gt", 1),
            (None, ['{"meta": {"num_classes": 1, "class_names": %s}}' % DEEP_OBJECT], "gt", 1),
            (None, ['{"meta": {"num_classes": 1, "class_names": [%s]}}' % DEEP], "gt", 1),
            (None, [META % 1, '{"image_id": "i", "tag": %s}' % DEEP], "gt", 2),
            (None, [META % 1, BOX % ('"i"', "[0, 0, 10, 20]", ', "ignore": ' + DEEP)], "gt", 2),
            (None, [META % 1, BOX % ('"i"', DEEP, "")], "gt", 2),
            (None, [META % 1, BOX % (DEEP, "[0, 0, 10, 20]", "")], "gt", 2),
        ],
        ids=["det-nan-and-deep-field", "det-bbox", "det-image-id", "det-modality",
             "num-classes", "class-names-object", "class-name-list", "tag", "ignore",
             "gt-bbox", "gt-image-id"],
    )
    def test_deeply_nested_record_returns_2_at_its_line(
        self, tmp_path, capsys, detection, truth, bad, line
    ):
        paths = {"det": tmp_path / "det.jsonl", "gt": tmp_path / "gt.jsonl"}
        detections = [self.DET % 10] + ([detection] if detection else [])
        paths["det"].write_text("\n".join(detections) + "\n", encoding="utf-8")
        truth = truth or [self.META % 1, self.GT % (10, 1)]
        paths["gt"].write_text("\n".join(truth) + "\n", encoding="utf-8")
        argv = ["eval", str(paths["det"]), str(paths["gt"]), "--out-prefix", str(tmp_path / "e")]
        assert main(argv) == 2
        self.clean_error(capsys, f"{paths[bad]}:{line}: record nested too deeply")

    def test_line_too_deep_for_orjson_returns_2(self, tmp_path):
        """A line nested 10^6 deep overflows orjson's C stack; json reads it
        and stops at its depth. Run in a subprocess, so that a crash fails
        this test instead of ending the run."""
        path = tmp_path / "det.jsonl"
        path.write_text("[" * 10**6 + "]" * 10**6 + "\n", encoding="utf-8")
        out = tmp_path / "fused.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "proben.cli", "fuse", str(path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (2, f"error: {path}:1: record nested too deeply\n")

    def test_spec_nested_too_deeply_returns_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"seed": ' + self.DEEP + "}", encoding="utf-8")
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", str(out), "--spec", str(spec_path)]) == 2
        self.clean_error(capsys, f"{spec_path}: invalid JSON: nested too deeply")
        assert not out.exists()


class TestIgnoreFlag:
    """One image, two ground truths, one detection on the first of them."""

    def eval(self, tmp_path, ignore):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(
            '{"meta": {"num_classes": 1}}\n'
            f'{{"image_id": "i", "bbox": [0, 0, 10, 20], "class_id": 1, "ignore": {ignore}}}\n'
            '{"image_id": "i", "bbox": [50, 50, 10, 20], "class_id": 1}\n'
        )
        dets = tmp_path / "dets.jsonl"
        write_jsonl(dets, [{"image_id": "i", "modality": "rgb", "bbox": [0, 0, 10, 20],
                            "posteriors": [0.2, 0.8]}])
        prefix = tmp_path / "report"
        return main(["eval", str(dets), str(gt), "--out-prefix", str(prefix)]), prefix

    def test_false_counts_the_box(self, tmp_path):
        code, prefix = self.eval(tmp_path, "false")
        assert code == 0
        overall = json.loads(prefix.with_suffix(".json").read_text())["subsets"]["all"]
        assert (overall["num_gt"], overall["tp"], overall["mean_ap"]) == ({"1": 2}, 1, 0.5)

    def test_true_leaves_the_box_out(self, tmp_path):
        code, prefix = self.eval(tmp_path, "true")
        assert code == 0
        overall = json.loads(prefix.with_suffix(".json").read_text())["subsets"]["all"]
        assert (overall["num_gt"], overall["tp"]) == ({"1": 1}, 0)

    @pytest.mark.parametrize("ignore", ['"false"', "0"])
    def test_other_values_return_2_at_their_line(self, tmp_path, capsys, ignore):
        code, prefix = self.eval(tmp_path, ignore)
        assert code == 2
        spelled = repr(json.loads(ignore))
        assert capsys.readouterr().err.endswith(
            f"gt.jsonl:2: ignore must be true or false, got {spelled}\n"
        )
        assert not prefix.with_suffix(".json").exists()


@pytest.fixture(scope="module")
def synth_300(tmp_path_factory):
    directory = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out-dir", str(directory), "--seed", "5", "--images", "300"]) == 0
    return directory


@pytest.fixture(scope="module")
def synth_300_thermal_posteriors(synth_300, tmp_path_factory):
    """synth_300 with its thermal detections rewritten as posteriors records."""
    directory = tmp_path_factory.mktemp("posteriors")
    for name in ("gt.jsonl", "det_rgb.jsonl"):
        (directory / name).write_bytes((synth_300 / name).read_bytes())
    records = read_jsonl(synth_300 / "det_thermal.jsonl")
    for record in records:
        record["posteriors"] = softmax(record.pop("logits")).tolist()
    write_jsonl(directory / "det_thermal.jsonl", records)
    return directory


@pytest.mark.parametrize("thermal", ["logits", "posteriors"])
@pytest.mark.parametrize("objective", ["lamr", "ap"])
@pytest.mark.parametrize("box_fusion", BOX_FUSION_MODES)
@pytest.mark.parametrize("score_fusion", SCORE_FUSION_MODES)
def test_calibrate_surface_equals_eval_of_the_fused_file(
    request, tmp_path, score_fusion, box_fusion, objective, thermal
):
    """On logits inputs, and with thermal given as posteriors records,
    calibrate's value at a grid point equals what eval reports for fuse's
    output under the same calibration, through the files."""
    data = request.getfixturevalue(
        "synth_300" if thermal == "logits" else "synth_300_thermal_posteriors"
    )
    inputs = [str(data / "det_rgb.jsonl"), str(data / "det_thermal.jsonl")]
    gt = str(data / "gt.jsonl")
    fusion = ["--score-fusion", score_fusion, "--box-fusion", box_fusion]
    argv = ["calibrate", *inputs, *fusion, "--ground-truth", gt, "--calibrate-modality", "rgb",
            "--grid-t", "0.5:1.5:3", "--grid-b=-0.5:0.5:3", "--objective", objective,
            "--out-prefix", str(tmp_path / "cal")]
    assert main(argv) == 0
    rows = (tmp_path / "cal.surface.csv").read_text().splitlines()[1:]
    surface = {(float(t), float(b)): float(v) for t, b, v in (row.split(",") for row in rows)}
    key = "lamr" if objective == "lamr" else "mean_ap"
    for t, b in [(1.0, 0.0), (1.5, 0.5)]:
        fused = tmp_path / "fused.jsonl"
        argv = ["fuse", *inputs, *fusion, f"--temperature=rgb={t}", f"--shift=rgb={b}",
                "--out", str(fused)]
        assert main(argv) == 0
        assert main(["eval", str(fused), gt, "--out-prefix", str(tmp_path / "eval")]) == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert surface[t, b] == report["subsets"]["all"][key], (t, b)


@pytest.mark.parametrize("score_fusion", [*SCORE_FUSION_MODES, "pooling"])
def test_scores_beyond_the_clamp_rank_alike_in_eval_fuse_and_calibrate(tmp_path, score_fusion):
    """Scores above 1 - 1e-7 are held clamped from ingest on: eval of the raw
    file, eval of the fused file and calibrate at (1, 0) give one LAMR."""
    dets, gt = tmp_path / "dets.jsonl", tmp_path / "gt.jsonl"
    write_jsonl(dets, [
        {"image_id": "i0", "modality": "rgb", "bbox": [0, 0, 10, 20], "score": 0.999999999},
        {"image_id": "i1", "modality": "rgb", "bbox": [0, 0, 10, 20], "score": 0.99999999},
        {"image_id": "i2", "modality": "rgb", "bbox": [0, 0, 10, 20], "score": 0.3},
    ])
    write_jsonl(gt, [
        {"meta": {"num_classes": 1}},
        {"image_id": "i0", "bbox": [0, 0, 10, 20], "class_id": 1},
        {"image_id": "i2", "bbox": [0, 0, 10, 20], "class_id": 1},
        *({"image_id": f"i{i}"} for i in range(1, 10)),
    ])

    def lamr_of(path):
        assert main(["eval", str(path), str(gt), "--out-prefix", str(tmp_path / "eval")]) == 0
        return json.loads((tmp_path / "eval.json").read_text())["subsets"]["all"]["lamr"]

    fused = tmp_path / "fused.jsonl"
    fusion = ["--score-fusion", score_fusion]
    assert main(["fuse", str(dets), *fusion, "--out", str(fused)]) == 0
    values = [lamr_of(dets), lamr_of(fused)]
    if score_fusion != "pooling":  # calibrate offers no pooling
        argv = ["calibrate", str(dets), *fusion, "--ground-truth", str(gt),
                "--calibrate-modality", "rgb", "--grid-t", "1:1:1",
                "--out-prefix", str(tmp_path / "cal")]
        assert main(argv) == 0
        row = (tmp_path / "cal.surface.csv").read_text().splitlines()[1]
        values.append(float(row.split(",")[2]))
    assert values == [values[0]] * len(values)


class TestClassCountFromGroundTruth:
    """A multi-class file of score records takes its class count from the
    ground truth where a command is given one, not from its first record."""

    @pytest.fixture
    def inputs(self, tmp_path):
        dets, gt = tmp_path / "det.jsonl", tmp_path / "gt.jsonl"
        write_jsonl(dets, [
            {"image_id": "i", "modality": "rgb", "bbox": [0, 0, 10, 20], "score": 0.9, "class_id": 1},
            {"image_id": "i", "modality": "rgb", "bbox": [50, 0, 10, 20], "score": 0.8, "class_id": 3},
        ])
        write_jsonl(gt, [
            {"meta": {"num_classes": 3}},
            {"image_id": "i", "bbox": [0, 0, 10, 20], "class_id": 1},
            {"image_id": "i", "bbox": [50, 0, 10, 20], "class_id": 3},
        ])
        return dets, gt

    def test_eval_fuse_and_calibrate_read_the_declared_classes(self, inputs, tmp_path):
        dets, gt = inputs
        assert main(["eval", str(dets), str(gt), "--out-prefix", str(tmp_path / "e")]) == 0
        subset = json.loads((tmp_path / "e.json").read_text())["subsets"]["all"]
        assert subset["mean_ap"] == 1.0
        fused = tmp_path / "fused.jsonl"
        argv = ["fuse", str(dets), "--ground-truth", str(gt), "--out", str(fused)]
        assert main(argv) == 0
        assert [len(r["logits"]) for r in read_jsonl(fused)] == [4, 4]
        argv = ["calibrate", str(dets), "--ground-truth", str(gt), "--calibrate-modality", "rgb",
                "--grid-t", "1:1:1", "--out-prefix", str(tmp_path / "cal")]
        assert main(argv) == 0

    def test_fuse_without_ground_truth_takes_the_first_record(self, inputs, tmp_path, capsys):
        dets, _ = inputs
        assert main(["fuse", str(dets), "--out", str(tmp_path / "fused.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {dets}:2: invalid score: class_id 3 out of range 1..1\n"

    def test_a_bad_ground_truth_is_reported_ahead_of_bad_detections(self, inputs, tmp_path, capsys):
        dets, gt = inputs
        dets.write_text("{oops\n")
        gt.write_text('{"meta": {"num_classes": 0}}\n')
        assert main(["eval", str(dets), str(gt), "--out-prefix", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err == f"error: {gt}:1: num_classes must be >= 1, got 0\n"


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
    def count_built(self, monkeypatch):
        """The names of the Detection, GroundTruth and BBox objects built
        from here on, in a list that grows."""
        from proben import BBox, Detection, GroundTruth

        built = []
        for cls in (Detection, GroundTruth, BBox):
            init = cls.__init__

            def counted(self, *args, init=init, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        return built

    @pytest.mark.parametrize("source", ["preset", "spec"])
    def test_synth_builds_no_detection_box_or_ground_truth(self, tmp_path, monkeypatch, source):
        from test_synth import PINNED_SPEC

        args = ["--images", "30", "--modalities", "3"]
        if source == "spec":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(PINNED_SPEC))
            args = ["--spec", str(spec)]
        built = self.count_built(monkeypatch)
        assert main(["synth", "--out-dir", str(tmp_path / "data"), *args]) == 0
        assert built == []

    def test_fuse_eval_and_calibrate_build_no_detection_box_or_ground_truth(
        self, tmp_path, monkeypatch
    ):
        assert main(["synth", "--out-dir", str(tmp_path), "--images", "30", "--seed", "3"]) == 0
        built = self.count_built(monkeypatch)
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


def test_kaist_like_fuse_and_eval_outputs_are_pinned(tmp_path):
    """What ``proben fuse`` (three score x box modes) and ``proben eval
    --breakdown --curves`` write on the seed-0, 400-image preset, by sha256
    prefix: the JSONL and CSV writers must not change a byte."""
    import hashlib

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()[:12]

    assert main(["synth", "--out-dir", str(tmp_path), "--seed", "0", "--images", "400"]) == 0
    inputs = [str(tmp_path / "det_rgb.jsonl"), str(tmp_path / "det_thermal.jsonl")]
    fused = {}
    for score, box in [("proben", "v-avg"), ("max", "argmax"), ("pooling", "avg")]:
        out = tmp_path / f"fused-{score}.jsonl"
        argv = ["fuse", *inputs, "--out", str(out), "--score-fusion", score, "--box-fusion", box]
        assert main(argv) == 0
        fused[score] = digest(out)
    assert fused == {"proben": "fc0df6c5638a", "max": "644eacfc2964", "pooling": "9bb69f9a46fe"}

    prefix = tmp_path / "report" / "eval"
    prefix.parent.mkdir()
    argv = ["eval", str(tmp_path / "fused-proben.jsonl"), str(tmp_path / "gt.jsonl"),
            "--breakdown", "--curves", "--out-prefix", str(prefix)]
    assert main(argv) == 0
    assert {p.name: digest(p) for p in sorted(prefix.parent.iterdir())} == {
        "eval.all.class1.pr.csv": "d8afb0839df9",
        "eval.all.miss_fppi.csv": "c639b29917b5",
        "eval.day.class1.pr.csv": "c1a5984b914c",
        "eval.day.miss_fppi.csv": "063ebaa7b4de",
        "eval.json": "91a980213237",
        "eval.night.class1.pr.csv": "5ffe55579f44",
        "eval.night.miss_fppi.csv": "431ae33f5dcd",
        "eval.txt": "dcbd71542c8f",
    }
