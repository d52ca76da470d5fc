import json
import os
import subprocess
import sys

import pytest

from interp_lab.cli import run

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def write_payload(tmp_path, payload, name="payload.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


DISK_PAYLOAD = {
    "schema_version": 1,
    "points": [[0, 0], [0.5, 0]],
    "kernel": {"coeffs": [1]},
}


class TestAnalyzeDisk:
    def test_two_point_report(self, tmp_path, capsys):
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, DISK_PAYLOAD)])
        assert code == 0
        res = report["results"]
        assert res["lambda_min"] == pytest.approx(0.1339746, abs=1e-6)
        assert res["lambda_max"] == pytest.approx(1.8660254, abs=1e-6)
        assert res["strong_separation"] == pytest.approx(0.5, abs=1e-9)
        assert res["weak_separation"] == pytest.approx(0.5, abs=1e-9)
        assert res["multiplier_separation"]["min"] == pytest.approx(0.5, abs=1e-5)
        assert report["schema_version"] == 1
        assert report["command"] == "analyze-disk"
        assert report["input_digest"].startswith("sha256:")
        assert "riesz_tolerance" in report["config"]

    def test_single_point(self, tmp_path, capsys):
        payload = {"schema_version": 1, "points": [[0.3, 0.1]], "kernel": {"coeffs": [0.5, 0.5]}}
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, payload)])
        assert code == 0
        assert report["results"]["weak_separation"] is None
        assert report["results"]["strong_separation"] == 1.0

    def test_determinism(self, tmp_path, capsys):
        path = write_payload(tmp_path, DISK_PAYLOAD)
        code1, rep1 = run_cli(capsys, ["analyze-disk", path])
        code2, rep2 = run_cli(capsys, ["analyze-disk", path])
        assert code1 == code2 == 0
        for rep in (rep1, rep2):
            rep.pop("wall_time_s")
        assert rep1 == rep2


class TestAnalyzePolydisc:
    def test_single_point(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "points": [[[0.2, 0.1], [0.3, 0.0]]],
            "kernels": [{"coeffs": [1]}, {"coeffs": [1]}],
        }
        code, report = run_cli(capsys, ["analyze-polydisc", write_payload(tmp_path, payload)])
        assert code == 0
        assert report["results"]["M"] == 1.0
        assert report["results"]["N"] == 1.0

    def test_two_point_one_variable(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "points": [[[0, 0]], [[0.5, 0]]],
            "kernels": [{"coeffs": [1]}],
        }
        code, report = run_cli(capsys, ["analyze-polydisc", write_payload(tmp_path, payload)])
        assert code == 0
        assert report["results"]["M"] == pytest.approx(1.8660254, abs=1e-4)
        assert report["results"]["N"] == pytest.approx(0.1339746, abs=1e-4)


class TestPickCommand:
    def test_infeasible_schwarz(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "points": [[[0, 0]], [[0.5, 0]]],
            "values": [[0, 0], [0.6, 0]],
            "bound": 1.0,
            "kernels": [{"coeffs": [1]}],
        }
        code, report = run_cli(capsys, ["pick", write_payload(tmp_path, payload)])
        assert code == 0
        assert report["results"]["feasible"] is False
        assert report["results"]["method"] == "pick-psd"

    def test_bidisc_feasible(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "points": [[[0, 0], [0, 0]], [[0.5, 0], [0.5, 0]]],
            "values": [[0, 0], [0.5, 0]],
            "bound": 1.1,
            "kernels": [{"coeffs": [1]}, {"coeffs": [1]}],
        }
        code, report = run_cli(capsys, ["pick", write_payload(tmp_path, payload)])
        assert code == 0
        assert report["results"]["feasible"] is True
        assert report["results"]["method"] == "agler-sdp"


class TestPartitionCommand:
    def test_three_point_partition(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "points": [[0, 0], [0.01, 0], [0.9, 0]],
            "kernel": {"coeffs": [1]},
            "epsilon": 0.5,
        }
        code, report = run_cli(capsys, ["partition", write_payload(tmp_path, payload)])
        assert code == 0
        res = report["results"]
        assert res["classes"] == [[0, 2], [1]]
        assert res["all_riesz"] is True
        assert res["class_count"] == 2

    def test_bessel_hypothesis_warning(self, tmp_path, capsys):
        # crowd enough near-duplicates that the full-set Carleson constant
        # exceeds the (lowered) warning threshold
        points = [[k * 1e-4, 0] for k in range(6)]
        payload = {
            "schema_version": 1,
            "points": points,
            "kernel": {"coeffs": [1]},
            "epsilon": 0.3,
            "config": {"bessel_warn_threshold": 2.0},
        }
        code, report = run_cli(capsys, ["partition", write_payload(tmp_path, payload)])
        assert code == 0
        assert any("Bessel" in w for w in report["warnings"])
        assert report["results"]["carleson_constant"] > 2.0


class TestFuchsianCommand:
    def test_trivial_group_matches_disk(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "points": [[0, 0], [0.5, 0]],
            "group": {"generators": [], "max_word_length": 2},
            "degree": 50,
        }
        code, report = run_cli(capsys, ["analyze-fuchsian", write_payload(tmp_path, payload)])
        assert code == 0
        res = report["results"]
        assert res["gamma_riesz"]["lambda_min"] == pytest.approx(0.1339746, abs=1e-6)
        assert res["orbit_strong_separation"] == pytest.approx(0.5, abs=1e-8)
        assert res["invariance_residual"] == 0.0
        assert res["kernel_rank"] == 51

    def test_cyclic_group_smoke(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "points": [[0.2, 0], [0, 0.2]],
            "group": {"generators": [{"theta": 0.0, "a": [0.5, 0]}], "max_word_length": 2},
            "degree": 30,
        }
        code, report = run_cli(capsys, ["analyze-fuchsian", write_payload(tmp_path, payload)])
        assert code == 0
        res = report["results"]
        assert res["group_size"] == 5
        assert res["orbit_point_count"] == 10
        assert res["invariance_residual"] < 1e-4
        assert any("rank" in w for w in report["warnings"])

    def test_budget_error_exit_3(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "points": [[0.2, 0]],
            "group": {
                "generators": [{"theta": 0.0, "a": [0.5, 0]}, {"theta": 0.1, "a": [0, 0.4]}],
                "max_word_length": 8,
            },
            "degree": 10,
            "config": {"group_max_elements": 10},
        }
        code, report = run_cli(capsys, ["analyze-fuchsian", write_payload(tmp_path, payload)])
        assert code == 3
        assert report["error"]["type"] == "budget"


class TestValidation:
    def test_missing_key(self, tmp_path, capsys):
        payload = {"schema_version": 1, "points": [[0, 0]]}
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, payload)])
        assert code == 2
        assert report["error"]["type"] == "validation"
        assert "kernel" in report["error"]["message"]

    def test_wrong_schema_version(self, tmp_path, capsys):
        payload = dict(DISK_PAYLOAD, schema_version=2)
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, payload)])
        assert code == 2

    def test_bad_complex_encoding(self, tmp_path, capsys):
        payload = dict(DISK_PAYLOAD, points=[[0.1], [0.5, 0]])
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, payload)])
        assert code == 2
        assert "points[0]" in report["error"]["message"]

    def test_unknown_config_key(self, tmp_path, capsys):
        payload = dict(DISK_PAYLOAD, config={"no_such_knob": 1})
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, payload)])
        assert code == 2
        assert "no_such_knob" in report["error"]["message"]

    def test_point_outside_disk(self, tmp_path, capsys):
        payload = dict(DISK_PAYLOAD, points=[[0, 0], [1.2, 0]])
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, payload)])
        assert code == 2

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number(self, tmp_path, capsys, constant):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(DISK_PAYLOAD).replace("[0.5, 0]", f"[{constant}, 0]"))
        code, report = run_cli(capsys, ["analyze-disk", str(path)])
        assert code == 2
        assert report["error"]["type"] == "validation"

    def test_unreadable_input(self, capsys):
        code, report = run_cli(capsys, ["analyze-disk", "/no/such/file.json"])
        assert code == 2
        assert report["error"]["type"] == "input"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        code, report = run_cli(capsys, ["analyze-disk", str(path)])
        assert code == 2
        assert report["error"]["type"] == "input"


class TestIoFlags:
    def test_output_file_and_quiet(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = run(["analyze-disk", write_payload(tmp_path, DISK_PAYLOAD),
                    "--output", str(out_path), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(out_path.read_text())
        assert report["results"]["lambda_min"] == pytest.approx(0.1339746, abs=1e-6)

    def test_config_file_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"riesz_tolerance": 0.2}))
        code, report = run_cli(
            capsys,
            ["analyze-disk", write_payload(tmp_path, DISK_PAYLOAD), "--config", str(cfg_path)],
        )
        assert code == 0
        assert report["config"]["riesz_tolerance"] == 0.2
        assert report["results"]["is_riesz"] is False  # 0.134 < 0.2

    def test_payload_config_wins_over_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"riesz_tolerance": 0.2}))
        payload = dict(DISK_PAYLOAD, config={"riesz_tolerance": 0.01})
        code, report = run_cli(
            capsys, ["analyze-disk", write_payload(tmp_path, payload), "--config", str(cfg_path)]
        )
        assert code == 0
        assert report["config"]["riesz_tolerance"] == 0.01

    def test_stdin_input(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "interp_lab", "analyze-disk", "-"],
            input=json.dumps(DISK_PAYLOAD),
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["strong_separation"] == pytest.approx(0.5, abs=1e-9)
