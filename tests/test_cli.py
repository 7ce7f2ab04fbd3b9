from __future__ import annotations

import argparse
import csv
import json
import math
import shutil

import pytest

from cascadekit.calibration import MEMORY_METHODS, load_config
from cascadekit.cli import build_parser, main
from cascadekit.confidence import ScoreFunction
from cascadekit.images import TRANSFORMS, ImageBuffer, write_image_pnm
from cascadekit.metering import RANDOM_TRANSFORM
from cascadekit.phash import FINGERPRINTS
from cascadekit.records import format_prediction_records
from cascadekit.synthetic import synthetic_image, synthetic_pair

from test_errors import BAD_FILES, bad_file

COSTS = {
    "stages": {
        "memory_lookup": {"energy_wh": 0.001, "latency_ms": 1.0},
        "memory_insert": {"energy_wh": 0.001, "latency_ms": 1.0},
        "model_a": {"energy_wh": 0.1, "latency_ms": 10.0},
        "model_b": {"energy_wh": 0.2, "latency_ms": 20.0},
    }
}


# a width of 5000 digits: more than int() converts from a string by default
OVERLONG_HEADER = b"P5 " + b"9" * 5000 + b" 4 255\n" + bytes(16)


def assert_one_error_line(capsys, prefix: str) -> None:
    """Nothing on stdout; stderr is one line starting with ``prefix``, no traceback or nan."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err and "nan" not in captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Record pair, per-sample images, cost profile, and a few configs."""
    root = tmp_path_factory.mktemp("cli")
    records_a, records_b = synthetic_pair(12, 3, seed=11)
    (root / "small.jsonl").write_text(format_prediction_records(records_a))
    (root / "big.jsonl").write_text(format_prediction_records(records_b))

    images = root / "images"
    images.mkdir()
    for i, sample_id in enumerate(records_a.ids):
        if i % 4 == 3:
            img = synthetic_image(16, 16, seed=300 + i, channels=3)
            (images / f"{sample_id}.ppm").write_bytes(write_image_pnm(img))
        else:
            img = synthetic_image(16, 16, seed=300 + i)
            (images / f"{sample_id}.pgm").write_bytes(write_image_pnm(img))

    (root / "costs.json").write_text(json.dumps(COSTS))
    for memory in ("none", "dhash", "moments"):
        config = {
            "first_model": "small",
            "second_model": "big",
            "score_fn": "diff",
            "lambda": 0.6,
            "post_check": True,
            "memory": memory,
        }
        (root / f"config_{memory}.json").write_text(json.dumps(config))
    return root


class TestComplementarity:
    def test_prints_best_pair_and_writes_matrix(self, workspace, tmp_path, capsys):
        out = tmp_path / "matrix.csv"
        code = main([
            "complementarity",
            str(workspace / "small.jsonl"),
            str(workspace / "big.jsonl"),
            "--out", str(out),
        ])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("best pair: small,big score=")
        float(line.rsplit("=", 1)[1])
        header = out.read_text().splitlines()[0]
        assert header == "model,small,big"

    @pytest.mark.parametrize("stem, shown", [("small", "small"), ("a,b", '"a,b"'), ('say "hi"', '"say ""hi"""')])
    def test_summary_line_names_the_pair_as_the_csv_does(self, workspace, tmp_path, capsys, stem, shown):
        first = tmp_path / f"{stem}.jsonl"
        first.write_bytes((workspace / "small.jsonl").read_bytes())
        out = tmp_path / "matrix.csv"
        assert main(["complementarity", str(first), str(workspace / "big.jsonl"), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == f"model,{shown},big"
        line = capsys.readouterr().out
        assert line.startswith(f"best pair: {shown},big score=") and line.count("\n") == 1

    def test_matrix_csv_quotes_names_with_separators(self, workspace, tmp_path, capsys):
        paths = [tmp_path / "a,b.jsonl", tmp_path / 'say "hi".jsonl', tmp_path / "c d.jsonl"]
        for path, source in zip(paths, ["small", "big", "small"]):
            path.write_bytes((workspace / f"{source}.jsonl").read_bytes())
        out = tmp_path / "matrix.csv"
        assert main(["complementarity", *map(str, paths), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == 'model,"a,b","say ""hi""",c d'
        assert [line.split(",0.")[0] for line in lines[1:]] == ['"a,b"', '"say ""hi"""', "c d"]
        rows = list(csv.reader(lines))
        assert rows[0] == ["model", "a,b", 'say "hi"', "c d"]
        assert all(len(row) == 4 for row in rows)

    def test_duplicate_stems_fall_back_to_paths(self, workspace, tmp_path, capsys):
        other = tmp_path / "copy"
        other.mkdir()
        dup = other / "small.jsonl"
        dup.write_text((workspace / "big.jsonl").read_text())
        code = main([
            "complementarity",
            str(workspace / "small.jsonl"),
            str(dup),
            "--out", str(tmp_path / "matrix.csv"),
        ])
        assert code == 0
        assert str(dup) in capsys.readouterr().out

    def test_one_file_is_a_usage_error(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "complementarity",
                str(workspace / "small.jsonl"),
                "--out", str(tmp_path / "matrix.csv"),
            ])
        assert err.value.code == 2

    def test_unmatched_records_fail_cleanly(self, workspace, tmp_path, capsys):
        stray = tmp_path / "stray.jsonl"
        stray.write_text('{"id": "zz", "label": 0, "logits": [1.0, 0.0, 0.0]}\n')
        code = main([
            "complementarity",
            str(workspace / "small.jsonl"),
            str(stray),
            "--out", str(tmp_path / "matrix.csv"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCalibrate:
    def test_fixed_score_writes_config_and_curve(self, workspace, tmp_path, capsys):
        out = tmp_path / "config.json"
        curve = tmp_path / "curve.csv"
        code = main([
            "calibrate",
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--score", "diff",
            "--out", str(out),
            "--curve", str(curve),
        ])
        assert code == 0
        line = capsys.readouterr().out
        assert "score_fn=diff" in line
        assert "first=small second=big" in line
        config = load_config(str(out))
        assert config.first_model == "small"
        assert config.post_check is True
        assert curve.read_text().splitlines()[0] == "lambda,accuracy,usage"

    def test_out_in_missing_directory(self, workspace, tmp_path, capsys):
        out = tmp_path / "missing" / "c.json"
        code = main([
            "calibrate",
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--out", str(out),
        ])
        assert code == 1
        assert_one_error_line(capsys, f"error: cannot write {out}: ")

    def test_auto_reports_its_choice(self, workspace, tmp_path, capsys):
        code = main([
            "calibrate",
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--out", str(tmp_path / "config.json"),
        ])
        assert code == 0
        line = capsys.readouterr().out
        assert line.startswith("score_fn=")
        assert "accuracy=" in line and "usage=" in line

    def test_integer_logit_beyond_float_range_is_a_data_error(self, workspace, tmp_path, capsys):
        lines = (workspace / "small.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["logits"][0] = 10**400
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        code = main([
            "calibrate",
            "--records-a", str(bad),
            "--records-b", str(workspace / "big.jsonl"),
            "--out", str(tmp_path / "config.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: logit out of float range at line 1\n"

    @pytest.mark.parametrize("command", ["calibrate", "complementarity"])
    def test_lone_surrogate_id_is_a_data_error(self, tmp_path, capsys, command):
        # two copies of one file whose first id is the escape of a lone surrogate
        text = (
            '{"id": "\\ud800", "label": 0, "logits": [1.0, 0.0]}\n'
            '{"id": "b", "label": 1, "logits": [0.0, 1.0]}\n'
        )
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            path.write_text(text)
        if command == "calibrate":
            argv = ["calibrate", "--records-a", str(paths[0]), "--records-b", str(paths[1])]
        else:
            argv = ["complementarity", str(paths[0]), str(paths[1])]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert_one_error_line(
            capsys, f"error: {paths[0]}: malformed record at line 1: id is not valid Unicode"
        )

    @pytest.mark.parametrize("command", ["calibrate", "complementarity"])
    @pytest.mark.parametrize(
        "repeat, message",
        [(False, "unmatched id 'a\\nb'"), (True, "duplicate id 'a\\nb' at line 3")],
        ids=["unmatched", "duplicate"],
    )
    def test_line_break_id_stays_on_one_error_line(self, tmp_path, capsys, command, repeat, message):
        # only x.jsonl holds the id "a\nb" (a JSON escape), on line 1 and maybe again on line 3
        odd = '{"id": "a\\nb", "label": 0, "logits": [1.0, 0.0]}\n'
        shared = '{"id": "b", "label": 1, "logits": [0.0, 1.0]}\n'
        paths = [tmp_path / "x.jsonl", tmp_path / "y.jsonl"]
        paths[0].write_text(odd + shared + (odd if repeat else ""))
        paths[1].write_text(shared)
        if command == "calibrate":
            argv = ["calibrate", "--records-a", str(paths[0]), "--records-b", str(paths[1])]
        else:
            argv = ["complementarity", str(paths[0]), str(paths[1])]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.endswith(f" {message}\n")
        assert captured.err.count("\n") == 1

    def test_auto_rejects_no_post_check(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "calibrate",
                "--records-a", str(workspace / "small.jsonl"),
                "--records-b", str(workspace / "big.jsonl"),
                "--no-post-check",
                "--out", str(tmp_path / "config.json"),
            ])
        assert err.value.code == 2

    def test_unknown_score_function(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "calibrate",
                "--records-a", str(workspace / "small.jsonl"),
                "--records-b", str(workspace / "big.jsonl"),
                "--score", "gini",
                "--out", str(tmp_path / "config.json"),
            ])
        assert err.value.code == 2


class TestRun:
    def _run(self, workspace, tmp_path, *extra):
        report = tmp_path / "report.json"
        argv = [
            "run",
            "--config", str(workspace / "config_none.json"),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--costs", str(workspace / "costs.json"),
            "--report", str(report),
            *extra,
        ]
        return main(argv), report

    def test_report_json_and_summary_line(self, workspace, tmp_path, capsys):
        code, report = self._run(workspace, tmp_path)
        assert code == 0
        line = capsys.readouterr().out
        assert line.startswith("samples=12 accuracy=n/a energy_wh=")
        obj = json.loads(report.read_text())
        assert obj["sample_count"] == 12
        assert obj["metrics"] is None
        assert obj["config"]["lambda"] == 0.6

    def test_labels_enable_metrics(self, workspace, tmp_path, capsys):
        code, report = self._run(workspace, tmp_path, "--labels")
        assert code == 0
        assert "accuracy=0." in capsys.readouterr().out
        assert json.loads(report.read_text())["metrics"] is not None

    def test_csv_format(self, workspace, tmp_path):
        report = tmp_path / "report.csv"
        code = main([
            "run",
            "--config", str(workspace / "config_none.json"),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--costs", str(workspace / "costs.json"),
            "--report", str(report),
            "--format", "csv",
        ])
        assert code == 0
        assert report.read_text().startswith("samples,total_energy_wh,")

    def test_traces_jsonl(self, workspace, tmp_path):
        traces = tmp_path / "traces.jsonl"
        code, _ = self._run(workspace, tmp_path, "--traces", str(traces))
        assert code == 0
        lines = traces.read_text().splitlines()
        assert len(lines) == 12
        first = json.loads(lines[0])
        assert first["path"] in ("model_a_only", "model_ab")

    def test_memory_requires_images_flag(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "run",
                "--config", str(workspace / "config_dhash.json"),
                "--records-a", str(workspace / "small.jsonl"),
                "--records-b", str(workspace / "big.jsonl"),
                "--costs", str(workspace / "costs.json"),
                "--report", str(tmp_path / "report.json"),
            ])
        assert err.value.code == 2

    def test_memory_run_loads_both_image_formats(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        code = main([
            "run",
            "--config", str(workspace / "config_dhash.json"),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--images", str(workspace / "images"),
            "--costs", str(workspace / "costs.json"),
            "--report", str(report),
        ])
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["stage_counts"]["memory_lookup"] == 12
        assert obj["stage_counts"]["memory_insert"] == 12

    def test_missing_image_is_a_data_error(self, workspace, tmp_path, capsys):
        code = main([
            "run",
            "--config", str(workspace / "config_dhash.json"),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--images", str(tmp_path),
            "--costs", str(workspace / "costs.json"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 1
        assert "no image for sample" in capsys.readouterr().err

    def test_header_number_beyond_int_parsing_names_the_image(self, workspace, tmp_path, capsys):
        images = tmp_path / "images"
        shutil.copytree(workspace / "images", images)
        bad = sorted(images.iterdir())[5]
        bad.write_bytes(OVERLONG_HEADER)
        code = main([
            "run",
            "--config", str(workspace / "config_dhash.json"),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--images", str(images),
            "--costs", str(workspace / "costs.json"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 1
        assert_one_error_line(capsys, f"error: {bad}: malformed PNM header\n")

    @pytest.mark.parametrize(
        "content",
        [
            json.dumps({"stages": {**COSTS["stages"], "model_a": {"energy_wh": math.nan, "latency_ms": 1.0}}}).encode(),
            b"\xff\xfe{}",
            json.dumps({"stages": {**COSTS["stages"], "model_b": {"energy_wh": 10**400, "latency_ms": 1.0}}}).encode(),
        ],
        ids=["non_finite", "non_utf8", "beyond_float_range"],
    )
    def test_bad_cost_profile_is_a_data_error(self, workspace, tmp_path, capsys, content):
        costs = tmp_path / "bad_costs.json"
        costs.write_bytes(content)
        code = main([
            "run",
            "--config", str(workspace / "config_none.json"),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--costs", str(costs),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {costs}: ")

    @pytest.mark.parametrize("value", ["abc", [0.5], True], ids=["string", "list", "bool"])
    def test_non_numeric_lambda_is_a_data_error(self, workspace, tmp_path, capsys, value):
        config = json.loads((workspace / "config_none.json").read_text())
        config["lambda"] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main([
            "run",
            "--config", str(path),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--costs", str(workspace / "costs.json"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: lambda must be a number\n"

    @pytest.mark.parametrize("key", ["first_model", "second_model", "memory"])
    def test_non_string_config_name_is_a_data_error(self, workspace, tmp_path, capsys, key):
        config = json.loads((workspace / "config_none.json").read_text())
        config[key] = None
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main([
            "run",
            "--config", str(path),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--costs", str(workspace / "costs.json"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: {key} must be a string\n"

    def test_missing_records_file(self, workspace, tmp_path, capsys):
        code = main([
            "run",
            "--config", str(workspace / "config_none.json"),
            "--records-a", str(tmp_path / "nope.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--costs", str(workspace / "costs.json"),
            "--report", str(tmp_path / "report.json"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestModelOrder:
    """run and duplication wire each record file to the model the config names it as."""

    @pytest.fixture
    def swapped(self, tmp_path, capsys):
        # on this pair auto_select puts --records-b's model first
        records_a, records_b = synthetic_pair(12, 3, seed=6)
        (tmp_path / "small.jsonl").write_text(format_prediction_records(records_a))
        (tmp_path / "big.jsonl").write_text(format_prediction_records(records_b))
        (tmp_path / "costs.json").write_text(json.dumps(COSTS))
        assert main([
            "calibrate",
            "--records-a", str(tmp_path / "small.jsonl"),
            "--records-b", str(tmp_path / "big.jsonl"),
            "--out", str(tmp_path / "config.json"),
        ]) == 0
        line = capsys.readouterr().out
        assert " first=big second=small " in line
        return tmp_path, line

    @pytest.mark.parametrize("files", [("small", "big"), ("big", "small")], ids=["as_calibrated", "reversed"])
    def test_run_replays_the_calibrated_order(self, swapped, capsys, files):
        root, calibrated = swapped
        assert main([
            "run",
            "--config", str(root / "config.json"),
            "--records-a", str(root / f"{files[0]}.jsonl"),
            "--records-b", str(root / f"{files[1]}.jsonl"),
            "--costs", str(root / "costs.json"),
            "--labels",
            "--report", str(root / "report.json"),
        ]) == 0
        accuracy = capsys.readouterr().out.split("accuracy=", 1)[1].split()[0]
        report = json.loads((root / "report.json").read_text())
        usage = report["stage_counts"]["model_b"] / report["sample_count"]
        assert f"accuracy={accuracy} usage={usage:.4f}" in calibrated
        assert report["config"]["first_model"] == "big"

    def test_duplication_replays_the_calibrated_order(self, swapped, capsys):
        root, _ = swapped
        energies = []
        for files in (("small", "big"), ("big", "small")):
            assert main([
                "duplication",
                "--config", str(root / "config.json"),
                "--records-a", str(root / f"{files[0]}.jsonl"),
                "--records-b", str(root / f"{files[1]}.jsonl"),
                "--costs", str(root / "costs.json"),
                "--ratios", "0,1",
                "--out", str(root / "dup.csv"),
            ]) == 0
            energies.append(capsys.readouterr().out)
        assert energies[0] == energies[1]

    @pytest.mark.parametrize(
        "command, flags",
        [("run", ["--report", "report.json"]), ("duplication", ["--ratios", "0,1", "--out", "dup.csv"])],
        ids=["run", "duplication"],
    )
    def test_unknown_file_names_are_a_data_error(self, swapped, capsys, command, flags):
        root, _ = swapped
        (root / "other.jsonl").write_text((root / "big.jsonl").read_text())
        assert main([
            command,
            "--config", str(root / "config.json"),
            "--records-a", str(root / "small.jsonl"),
            "--records-b", str(root / "other.jsonl"),
            "--costs", str(root / "costs.json"),
            *flags[:-1], str(root / flags[-1]),
        ]) == 1
        assert_one_error_line(
            capsys,
            "error: record files name models 'small' and 'other', "
            "but the config names 'big' and 'small'\n",
        )


class TestHash:
    def test_dhash_of_constant_image(self, tmp_path, capsys):
        img = ImageBuffer(9, 8, 1, bytes([128]) * 72)
        path = tmp_path / "flat.pgm"
        path.write_bytes(write_image_pnm(img))
        assert main(["hash", "--method", "dhash", str(path)]) == 0
        assert capsys.readouterr().out == "dhash: 0000000000000000\n"

    def test_moments_of_rgb_image(self, tmp_path, capsys):
        img = synthetic_image(16, 16, seed=21, channels=3)
        path = tmp_path / "img.ppm"
        path.write_bytes(write_image_pnm(img))
        assert main(["hash", "--method", "moments", str(path)]) == 0
        line = capsys.readouterr().out
        assert line.startswith("moments: ")
        assert "phi=[" in line
        phi = line.split("phi=[", 1)[1].rstrip("]\n").split(",")
        assert len(phi) == 6

    def test_black_image_has_no_moments(self, tmp_path, capsys):
        path = tmp_path / "black.pgm"
        path.write_bytes(write_image_pnm(ImageBuffer(8, 8, 1, bytes(64))))
        assert main(["hash", "--method", "moments", str(path)]) == 1
        assert "zero total intensity" in capsys.readouterr().err

    def test_missing_image(self, tmp_path, capsys):
        assert main(["hash", "--method", "dhash", str(tmp_path / "a.pgm")]) == 1
        assert "cannot read image" in capsys.readouterr().err

    def test_header_number_beyond_int_parsing_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "x.pgm"
        path.write_bytes(OVERLONG_HEADER)
        assert main(["hash", "--method", "dhash", str(path)]) == 1
        assert_one_error_line(capsys, f"error: {path}: malformed PNM header\n")

    def test_not_a_pnm(self, tmp_path, capsys):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"GIF89a...")
        assert main(["hash", "--method", "dhash", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_method_is_required(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["hash", str(tmp_path / "a.pgm")])
        assert err.value.code == 2


class TestDuplication:
    def _run(self, workspace, tmp_path, config, transform, capsys):
        out = tmp_path / f"curve_{config}_{transform}.csv"
        argv = [
            "duplication",
            "--config", str(workspace / f"config_{config}.json"),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--images", str(workspace / "images"),
            "--costs", str(workspace / "costs.json"),
            "--ratios", "0,0.5,1",
            "--transform", transform,
            "--out", str(out),
        ]
        assert main(argv) == 0
        hits = []
        for line in capsys.readouterr().out.splitlines():
            assert line.startswith("ratio=")
            hits.append(int(line.rsplit("hits=", 1)[1]))
        return out, hits

    def test_identity_duplicates_all_hit(self, workspace, tmp_path, capsys):
        out, hits = self._run(workspace, tmp_path, "dhash", "identity", capsys)
        assert hits == [0, 6, 12]
        lines = out.read_text().splitlines()
        assert lines[0] == "ratio,engine,total_energy_wh,hits"
        assert len(lines) == 4
        assert lines[1].startswith("0.0,dhash,")

    def test_rotation_defeats_dhash_but_not_moments(self, workspace, tmp_path, capsys):
        _, dhash_hits = self._run(workspace, tmp_path, "dhash", "rot90", capsys)
        _, moment_hits = self._run(workspace, tmp_path, "moments", "rot90", capsys)
        assert dhash_hits == [0, 0, 0]
        assert moment_hits == [0, 6, 12]

    def test_plain_engine_never_hits(self, workspace, tmp_path, capsys):
        _, hits = self._run(workspace, tmp_path, "none", "identity", capsys)
        assert hits == [0, 0, 0]

    def test_transform_needs_images(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "duplication",
                "--config", str(workspace / "config_none.json"),
                "--records-a", str(workspace / "small.jsonl"),
                "--records-b", str(workspace / "big.jsonl"),
                "--costs", str(workspace / "costs.json"),
                "--ratios", "0,1",
                "--transform", "rot90",
                "--out", str(tmp_path / "curve.csv"),
            ])
        assert err.value.code == 2

    def test_bad_ratio_strings(self, workspace, tmp_path):
        for ratios in ("abc", "0.5,x", ","):
            with pytest.raises(SystemExit) as err:
                main([
                    "duplication",
                    "--config", str(workspace / "config_none.json"),
                    "--records-a", str(workspace / "small.jsonl"),
                    "--records-b", str(workspace / "big.jsonl"),
                    "--costs", str(workspace / "costs.json"),
                    "--ratios", ratios,
                    "--out", str(tmp_path / "curve.csv"),
                ])
            assert err.value.code == 2

    def test_out_of_range_ratio_is_a_data_error(self, workspace, tmp_path, capsys):
        code = main([
            "duplication",
            "--config", str(workspace / "config_none.json"),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--costs", str(workspace / "costs.json"),
            "--ratios", "0,1.5",
            "--out", str(tmp_path / "curve.csv"),
        ])
        assert code == 1
        assert "outside [0, 1]" in capsys.readouterr().err


class TestReport:
    def _write_report(self, workspace, tmp_path, name, *extra, memory="none"):
        path = tmp_path / name
        code = main([
            "run",
            "--config", str(workspace / f"config_{memory}.json"),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--costs", str(workspace / "costs.json"),
            "--report", str(path),
            *extra,
        ])
        assert code == 0
        return path

    def test_reduction_table(self, workspace, tmp_path, capsys):
        baseline = self._write_report(workspace, tmp_path, "base.json")
        candidate = self._write_report(workspace, tmp_path, "cand.json")
        capsys.readouterr()
        assert main(["report", str(baseline), str(candidate)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["metric", "baseline", "candidate", "reduction"]
        assert len(lines) == 5
        assert lines[1].startswith("energy_wh")
        assert lines[1].endswith("0.00%")

    def test_energy_only_costs_have_no_latency_reduction(self, data_dir, tmp_path, capsys):
        costs = {"stages": {
            stage: {"energy_wh": entry["energy_wh"], "latency_ms": 0.0}
            for stage, entry in COSTS["stages"].items()
        }}
        (tmp_path / "energy.json").write_text(json.dumps(costs))
        records = ["--records-a", str(data_dir / "model_a.jsonl"), "--records-b", str(data_dir / "model_b.jsonl")]
        assert main(["calibrate", *records, "--out", str(tmp_path / "config.json")]) == 0
        assert main([
            "run", "--config", str(tmp_path / "config.json"), *records,
            "--costs", str(tmp_path / "energy.json"), "--report", str(tmp_path / "r.json"),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "r.json"), str(tmp_path / "r.json")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line.split() for line in captured.out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["energy_wh", "mean_ms", "p95_ms", "p99_ms"]
        assert [row[-1] for row in rows] == ["0.00%", "n/a", "n/a", "n/a"]
        assert [row[1:3] for row in rows[1:]] == [["0", "0"]] * 3

    def test_mismatched_reports(self, workspace, tmp_path, capsys):
        baseline = self._write_report(workspace, tmp_path, "base.json")
        # the first six samples, in files named after the config's models
        (tmp_path / "short").mkdir()
        short = tmp_path / "short" / "small.jsonl"
        lines = (workspace / "small.jsonl").read_text().splitlines()[:6]
        short.write_text("\n".join(lines) + "\n")
        short_b = tmp_path / "short" / "big.jsonl"
        lines_b = (workspace / "big.jsonl").read_text().splitlines()[:6]
        short_b.write_text("\n".join(lines_b) + "\n")
        candidate = tmp_path / "cand.json"
        assert main([
            "run",
            "--config", str(workspace / "config_none.json"),
            "--records-a", str(short),
            "--records-b", str(short_b),
            "--costs", str(workspace / "costs.json"),
            "--report", str(candidate),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(baseline), str(candidate)]) == 1
        assert "sample counts differ" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("path_counts", []),
            ("total_energy_wh", 10**400),
            ("total_energy_wh", math.nan),
            ("sample_count", True),
        ],
        ids=["list_path_counts", "huge_energy", "nan_energy", "bool_sample_count"],
    )
    def test_ill_typed_report_is_a_data_error(self, workspace, tmp_path, capsys, key, value):
        baseline = self._write_report(workspace, tmp_path, "base.json")
        obj = json.loads(baseline.read_text())
        obj[key] = value
        candidate = tmp_path / "cand.json"
        candidate.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["report", str(baseline), str(candidate)]) == 1
        assert_one_error_line(capsys, f"error: {candidate}: malformed run report: {key} ")

    @pytest.mark.parametrize("bad", ["baseline", "candidate"])
    def test_a_malformed_report_is_named(self, workspace, tmp_path, capsys, bad):
        good = self._write_report(workspace, tmp_path, "good.json")
        malformed = tmp_path / "bad.json"
        malformed.write_text(json.dumps({k: v for k, v in json.loads(good.read_text()).items() if k != "metrics"}))
        paths = [good, malformed] if bad == "candidate" else [malformed, good]
        capsys.readouterr()
        assert main(["report", *map(str, paths)]) == 1
        assert_one_error_line(capsys, f"error: {malformed}: malformed run report: missing key metrics\n")

    def test_non_finite_reduction_is_a_data_error(self, workspace, tmp_path, capsys):
        obj = json.loads(self._write_report(workspace, tmp_path, "run.json").read_text())
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({**obj, "total_energy_wh": 5e-324}))
        candidate = tmp_path / "cand.json"
        candidate.write_text(json.dumps({**obj, "total_energy_wh": 1.0}))
        capsys.readouterr()
        assert main(["report", str(baseline), str(candidate)]) == 1
        assert_one_error_line(capsys, "error: energy reduction is not finite")

    @pytest.mark.parametrize("memory", ["none", "dhash", "moments"])
    def test_reports_written_by_run_load(self, workspace, tmp_path, capsys, memory):
        path = self._write_report(
            workspace, tmp_path, f"{memory}.json",
            "--images", str(workspace / "images"), "--labels", memory=memory,
        )
        capsys.readouterr()
        assert main(["report", str(path), str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith("0.00%")

    def test_unreadable_report(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text("{}")
        assert main(["report", str(tmp_path / "missing.json"), str(good)]) == 1
        assert "cannot read report" in capsys.readouterr().err


class TestBadFiles:
    """Each command that reads a file exits 1 with one error line on a bad one."""

    @staticmethod
    def _argv(command: str, workspace, tmp_path, bad: str) -> list[str]:
        run = [
            "run",
            "--config", str(workspace / "config_none.json"),
            "--records-a", str(workspace / "small.jsonl"),
            "--records-b", str(workspace / "big.jsonl"),
            "--costs", str(workspace / "costs.json"),
            "--report", str(tmp_path / "report.json"),
        ]
        return {
            "hash": ["hash", "--method", "dhash", bad],
            "run_config": [*run, "--config", bad],
            "run_costs": [*run, "--costs", bad],
            "calibrate_records": [
                "calibrate",
                "--records-a", bad,
                "--records-b", str(workspace / "big.jsonl"),
                "--out", str(tmp_path / "config.json"),
            ],
            "report": ["report", bad, bad],
        }[command]

    @pytest.mark.parametrize("kind", sorted(BAD_FILES))
    @pytest.mark.parametrize(
        "command", ["hash", "run_config", "run_costs", "calibrate_records", "report"]
    )
    def test_bad_file_exits_1(self, workspace, tmp_path, capsys, command, kind):
        argv = self._argv(command, workspace, tmp_path, bad_file(tmp_path, kind))
        assert main(argv) == 1
        assert_one_error_line(capsys, "error: ")


class TestParser:
    @staticmethod
    def _choices(command: str, dest: str) -> tuple:
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return tuple(next(a for a in sub.choices[command]._actions if a.dest == dest).choices)

    def test_choices_come_from_the_registries(self):
        # the parser and calibration's MEMORY_METHODS spell these out so that neither
        # imports the modules that define them; these pin them
        assert self._choices("duplication", "transform") == (*TRANSFORMS, RANDOM_TRANSFORM)
        assert self._choices("hash", "method") == tuple(FINGERPRINTS)
        assert self._choices("calibrate", "score") == (*(fn.value for fn in ScoreFunction), "auto")
        assert MEMORY_METHODS == ("none", *FINGERPRINTS)

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_no_arguments(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["hash", "--method", "dhash", "--fast", "x.pgm"])
        assert err.value.code == 2
