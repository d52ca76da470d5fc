import hashlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from interp_lab import SZEGO, cli, normalized_gramian
from interp_lab.cli import _COMMANDS, CONFIG_DEFAULTS, run
from interp_lab.errors import NumericError
from interp_lab.fuchsian import MobiusMap
from interp_lab.pick import PickProblem

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

    def test_szego_weak_separation_of_a_close_pair_is_exact(self, tmp_path, capsys):
        # √(1 − |G_ij|²) cancels here (it read 2.107e-8); ρ over exact rationals of the doubles.
        from fractions import Fraction

        points = [[0.3, 0.2], [0.30000001, 0.2], [-0.5, 0.1]]
        payload = {"schema_version": 1, "points": points, "kernel": {"coeffs": [1]}}
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, payload)])
        exact = [[Fraction(x) for x in p] for p in points]

        def rho2(a, b):
            re, im = 1 - a[0] * b[0] - a[1] * b[1], a[0] * b[1] - a[1] * b[0]
            return ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) / (re * re + im * im)

        rho = np.sqrt(float(min(rho2(a, b) for i, a in enumerate(exact) for b in exact[:i])))
        assert code == 0
        assert report["results"]["weak_separation"] == pytest.approx(rho, rel=1e-13, abs=0.0)

    def test_determinism(self, tmp_path, capsys):
        path = write_payload(tmp_path, DISK_PAYLOAD)
        code1, rep1 = run_cli(capsys, ["analyze-disk", path])
        code2, rep2 = run_cli(capsys, ["analyze-disk", path])
        assert code1 == code2 == 0
        for rep in (rep1, rep2):
            rep.pop("wall_time_s")
        assert rep1 == rep2

    def test_szego_set_above_the_crossover_matches_eigvalsh(self, tmp_path, capsys, monkeypatch):
        # 400 Szego points: no eigvalsh on the 400×400 Gramian, and bounds within
        # 4 n eps ||G||_F of eigvalsh's, with the same verdict.
        sizes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
        rng = np.random.default_rng(400)
        z = 0.9 * np.sqrt(rng.uniform(size=400)) * np.exp(2j * np.pi * rng.uniform(size=400))
        payload = {"schema_version": 1, "points": [[p.real, p.imag] for p in z], "kernel": {"coeffs": [1]}}
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, payload)])
        assert code == 0 and 400 not in sizes
        res, g = report["results"], normalized_gramian(z, SZEGO)
        w, bound = eigvalsh(g), 4 * len(z) * np.finfo(float).eps * np.linalg.norm(g)
        assert abs(res["lambda_min"] - w[0]) <= bound and res["lambda_min"] >= 0.0
        assert abs(res["lambda_max"] - w[-1]) <= bound
        assert res["is_riesz"] == (w[0] > res["riesz_tolerance"])


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

    def test_bidisc_undecided_is_null(self, tmp_path, capsys):
        # C ≈ 0.74566 and the one-factor bound is 0.82726, so 0.78 is feasible
        # without a shortcut; 3 sweeps decide nothing, which is no verdict.
        payload = {
            "schema_version": 1,
            "points": [[[0, 0], [0, 0]], [[0.5, 0], [0.3, 0.2]], [[-0.4, 0.1], [0.2, -0.5]]],
            "values": [[0.3, 0], [0, -0.2], [0.4, 0]],
            "bound": 0.78,
            "kernels": [{"coeffs": [1]}, {"coeffs": [1]}],
            "config": {"sdp_max_iters": 3},
        }
        code, report = run_cli(capsys, ["pick", write_payload(tmp_path, payload)])
        assert code == 0
        assert report["results"]["feasible"] is None
        assert report["results"]["iterations"] == 3

    @pytest.mark.parametrize("bound", [1e8, 1e20])
    def test_bidisc_large_bound_is_feasible(self, tmp_path, capsys, bound):
        # The single-block candidate's residual is a few eps * ||T||_F, far above the
        # absolute sdp_tol at these bounds, and within the target's rounding, which the
        # report gives as its tolerance.
        payload = {
            "schema_version": 1,
            "points": [[[0, 0], [0, 0]], [[0.5, 0], [0.3, 0.2]], [[-0.4, 0.1], [0.2, -0.5]]],
            "values": [[0.3, 0], [0, -0.2], [0.4, 0]],
            "bound": bound,
            "kernels": [{"coeffs": [1]}, {"coeffs": [1]}],
        }
        code, report = run_cli(capsys, ["pick", write_payload(tmp_path, payload)])
        assert code == 0
        results = report["results"]
        assert results["feasible"] is True
        assert results["iterations"] == 1
        assert results["affine_residual"] <= results["tolerance"]
        assert results["relative_residual"] <= 4 * np.finfo(float).eps


def scaled_pick_payload(dim, bound, far_point=False):
    """README's two-point pick payload in ``dim`` coordinates, optionally with a third point at 0.999999."""
    points = [[0, 0], [0.5, 0]] + ([[0.999999, 0]] if far_point else [])
    return {
        "schema_version": 1,
        "points": [[z] * dim for z in points],
        "values": [[0, 0], [0.6, 0], [0.1, 0]][:len(points)],
        "bound": bound,
        "kernels": [{"coeffs": [1]}] * dim,
    }


class TestPickScaleLimit:
    """A bound at which a Pick matrix could overflow is a numeric error naming it, in every
    dimension, raised before any matrix is built (warnings are errors under pytest)."""

    @pytest.mark.parametrize("dim, bound, far_point", [(1, 1e200, False), (2, 1e200, False), (1, 1e153, True),
                                                        (2, 1e153, True), (1, 1e148, True), (2, 1e80, False)])
    def test_out_of_range_bound_exits_3(self, tmp_path, capsys, dim, bound, far_point):
        payload = scaled_pick_payload(dim, bound, far_point)
        code, report = run_cli(capsys, ["pick", write_payload(tmp_path, payload)])
        assert code == 3
        assert report["error"]["type"] == "numeric"
        assert report["error"]["message"].startswith(f"norm bound {bound:g} out of range")

    @pytest.mark.parametrize("dim, bound", [(1, 1e146), (2, 1e70)])
    def test_large_bound_below_the_limit_is_decided(self, tmp_path, capsys, dim, bound):
        payload = scaled_pick_payload(dim, bound, far_point=True)
        code, report = run_cli(capsys, ["pick", write_payload(tmp_path, payload)])
        assert code == 0
        assert report["results"]["feasible"] is True

    def test_huge_values_are_a_numeric_error(self):
        with pytest.raises(NumericError, match="norm bound 1 out of range"):
            PickProblem(((0,), (0.5,)), (1.5e308 + 1.5e308j, 0), 1.0)


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

    @staticmethod
    def same_orbit_payload(r):
        # The second point is g^3 of the first, g = (0, r): beyond word length 2,
        # but g of the first meets g^-2 of the second.
        g = MobiusMap(0, r)
        z1 = g(g(g(0.1 + 0.05j)))
        return {
            "schema_version": 1,
            "points": [[0.1, 0.05], [z1.real, z1.imag]],
            "group": {"generators": [{"theta": 0.0, "a": [r, 0]}, {"theta": 0.0, "a": [0, r]}],
                      "max_word_length": 2},
            "degree": 20,
        }

    def test_points_on_one_free_orbit_exit_2(self, tmp_path, capsys):
        payload = self.same_orbit_payload(0.8)
        code, report = run_cli(capsys, ["analyze-fuchsian", write_payload(tmp_path, payload)])
        assert code == 2
        assert report["error"] == {"type": "validation", "message": "points 0 and 1 lie on the same orbit: "
                                   "elements 1 and 12 of the truncated group send them "
                                   "within pseudo-hyperbolic distance 1e-09 of each other"}

    def test_points_on_one_orbit_without_a_ping_pong_proof_exit_2(self, tmp_path, capsys):
        # Overlapping isometric circles: no proof of freeness, and the same error.
        payload = self.same_orbit_payload(0.3)
        code, report = run_cli(capsys, ["analyze-fuchsian", write_payload(tmp_path, payload)])
        assert code == 2
        assert report["error"] == {"type": "validation", "message": "points 0 and 1 lie on the same orbit: "
                                   "elements 1 and 12 of the truncated group send them "
                                   "within pseudo-hyperbolic distance 1e-09 of each other"}

    @pytest.mark.parametrize("power", [1, 3])
    def test_point_near_another_orbit_exit_2(self, tmp_path, capsys, power):
        # z1 = g^power(w), w at pseudo-hyperbolic distance 1e-10 from z0, under (0.8, 0.8i) at length 2.
        g, z0 = MobiusMap(0, 0.8), 0.1 + 0.05j
        z1 = (1e-10 + z0) / (1.0 + z0.conjugate() * 1e-10)
        for _ in range(power):
            z1 = g(z1)
        payload = self.same_orbit_payload(0.8)
        payload["points"][1] = [z1.real, z1.imag]
        code, report = run_cli(capsys, ["analyze-fuchsian", write_payload(tmp_path, payload)])
        assert code == 2
        assert report["error"]["type"] == "validation"
        assert "lie on the same orbit" in report["error"]["message"]

    @pytest.mark.parametrize("length", [3, 4, 5, 6])
    def test_orbit_image_at_the_wall_names_the_point_and_the_element(self, tmp_path, capsys, length):
        # Under g = (0, 0.95), element 11 of word length 6 sends point 0 to |g(z)| = 0.999999999365,
        # inside 1e-9 of the circle; shorter words keep every image inside.
        payload = {"schema_version": 1, "points": [[0.1, 0.2], [-0.3, 0.1]], "degree": 20,
                   "group": {"generators": [{"theta": 0, "a": [0.95, 0]}], "max_word_length": length}}
        code, report = run_cli(capsys, ["analyze-fuchsian", write_payload(tmp_path, payload)])
        if length < 6:
            assert code == 0 and report["results"]["orbit_point_count"] == 2 * (2 * length + 1)
        else:
            assert code == 2
            assert report["error"] == {"type": "validation", "message": "point 0 under element 11 of the truncated "
                                       "group lands too close to the unit circle or is not finite: "
                                       "|g(z)| = 0.999999999365; use a shorter max_word_length"}

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

    def test_malformed_json(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        code, report = run_cli(capsys, ["analyze-disk", str(path)])
        assert code == 2
        assert report["error"]["type"] == "input"
        assert report["error"]["message"].startswith(f"{path}: Expecting property name")
        # The same text as config, after a good payload on stdin: the message names the config.
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(DISK_PAYLOAD)))
        code, report = run_cli(capsys, ["analyze-disk", "-", "--config", str(path)])
        assert code == 2
        assert report["error"]["message"].startswith(f"{path}: Expecting property name")
        monkeypatch.setattr(sys, "stdin", io.StringIO("{ not json"))
        code, report = run_cli(capsys, ["analyze-disk", "-"])
        assert code == 2
        assert report["error"]["message"].startswith("<stdin>: Expecting property name")

    # The byte 0xff inside a JSON string is not UTF-8: an input error, not a traceback.
    def test_invalid_utf8_payload(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"schema_version": 1, "points": [[0, 0]], "kernel": {"coeffs": [1]}, "x": "\xff"}')
        code, report = run_cli(capsys, ["analyze-disk", str(path)])
        assert code == 2
        assert report["error"]["type"] == "input"
        assert "input_digest" not in report

    def test_invalid_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"riesz_tolerance": 0.2, "x": "\xff"}')
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, DISK_PAYLOAD),
                                        "--config", str(path)])
        assert code == 2
        assert report["error"]["type"] == "input"
        assert report["error"]["message"].startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


class TestConfigRanges:
    @pytest.mark.parametrize("config", [{"sdp_max_iters": 1.5}, {"group_max_elements": 2.5}])
    def test_fractional_iteration_cap(self, tmp_path, capsys, config):
        self._assert_rejected(tmp_path, capsys, config)

    @pytest.mark.parametrize("config", [{"sdp_max_iters": 0}, {"group_max_elements": -3}])
    def test_iteration_cap_below_one(self, tmp_path, capsys, config):
        self._assert_rejected(tmp_path, capsys, config)

    @pytest.mark.parametrize("config", [{"sdp_tol": 0}, {"bisection_tol": -1}, {"sv_cutoff": 0.0},
                                        {"multiplier_alpha": -0.5}])
    def test_nonpositive_tolerance(self, tmp_path, capsys, config):
        self._assert_rejected(tmp_path, capsys, config)

    def test_negative_riesz_tolerance(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, {"riesz_tolerance": -1e-3})

    def test_overflowing_number(self, tmp_path, capsys):
        # json reads 1e400 as inf without calling parse_constant.
        self._assert_rejected(tmp_path, capsys, {"sdp_tol": 1e400})

    def test_range_ends_still_accepted(self, tmp_path, capsys):
        config = {"sdp_max_iters": 5000, "group_max_elements": 1.0, "bisection_tol": 1e-4,
                  "riesz_tolerance": 0}
        payload = dict(DISK_PAYLOAD, config=config)
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, payload)])
        assert code == 0
        assert report["config"]["group_max_elements"] == 1
        assert isinstance(report["config"]["group_max_elements"], int)

    @staticmethod
    def _assert_rejected(tmp_path, capsys, config):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(dict(DISK_PAYLOAD, config=config)).replace("Infinity", "1e400"))
        code, report = run_cli(capsys, ["analyze-disk", str(path)])
        assert code == 2
        assert report["error"]["type"] == "validation"
        assert next(iter(config)) in report["error"]["message"]


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


def test_unwritable_output_is_an_input_error(tmp_path):
    # The report's directory does not exist: exit 2 and an input error naming the
    # output file, on stdout, with no traceback.
    out = tmp_path / "missing" / "out.json"
    proc = subprocess.run([sys.executable, "-m", "interp_lab", "analyze-disk",
                           write_payload(tmp_path, DISK_PAYLOAD), "--output", str(out)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 2
    assert proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "input" and error["message"].startswith(f"{out}: ")
    assert not out.exists()


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    # The reader has gone before the report is written: exit 2 for the validation error,
    # not a BrokenPipeError traceback and exit 1.
    path = write_payload(tmp_path, dict(DISK_PAYLOAD, points=[[0, 0], [1.5, 0]]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "interp_lab", "analyze-disk", path],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ""


def sha256_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


class TestInputDigest:
    """``input_digest`` is the sha256 of the payload bytes as read, not of a re-encoding."""

    CRLF_BYTES = json.dumps(DISK_PAYLOAD, indent=2).replace("\n", "\r\n").encode()

    def test_file_digest_is_sha256_of_its_bytes(self, tmp_path, capsys):
        path = write_payload(tmp_path, DISK_PAYLOAD)
        code, report = run_cli(capsys, ["analyze-disk", path])
        assert code == 0
        with open(path, "rb") as fh:
            assert report["input_digest"] == sha256_digest(fh.read())

    def test_stdin_digest_is_sha256_of_the_bytes_fed(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-m", "interp_lab", "analyze-disk", "-"],
                              input=self.CRLF_BYTES, capture_output=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["input_digest"] == sha256_digest(self.CRLF_BYTES)

    def test_crlf_file_digest_is_of_the_raw_bytes(self, tmp_path, capsys):
        path = tmp_path / "crlf.json"
        path.write_bytes(self.CRLF_BYTES)
        code, report = run_cli(capsys, ["analyze-disk", str(path)])
        assert code == 0
        assert report["input_digest"] == sha256_digest(self.CRLF_BYTES)
        assert report["input_digest"] != sha256_digest(self.CRLF_BYTES.replace(b"\r\n", b"\n"))

    @pytest.mark.parametrize("dumps", [
        pytest.param(lambda p: json.dumps(p, indent=4), id="whitespace"),
        pytest.param(lambda p: json.dumps(dict(reversed(list(p.items())))), id="key-order"),
    ])
    def test_same_payload_other_text(self, tmp_path, capsys, dumps):
        reports = []
        for name, text in (("a.json", json.dumps(DISK_PAYLOAD)), ("b.json", dumps(DISK_PAYLOAD))):
            (tmp_path / name).write_text(text)
            code, report = run_cli(capsys, ["analyze-disk", str(tmp_path / name)])
            assert code == 0
            reports.append(report)
        assert reports[0]["input_digest"] != reports[1]["input_digest"]
        assert reports[0]["results"] == reports[1]["results"]

    @pytest.mark.parametrize("command,payload", [
        pytest.param("analyze-disk", dict(DISK_PAYLOAD, points=[[0, 0], [1.2, 0]]), id="validation"),
        pytest.param("pick", DISK_PAYLOAD, id="missing-keys"),
    ])
    def test_error_report_has_no_digest(self, tmp_path, capsys, command, payload):
        code, report = run_cli(capsys, [command, write_payload(tmp_path, payload)])
        assert code == 2
        assert "error" in report and "input_digest" not in report


def readme_payloads():
    """(command, JSON text) for each example under README's "Payloads" heading."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Payloads", 1)[1].split("\n### ", 1)[0]
    return re.findall(r"^`([a-z-]+)` —.*?```json\n(.*?)```", section, re.MULTILINE | re.DOTALL)


class TestReadmePayloads:
    def test_every_command_has_an_example(self):
        assert sorted(cmd for cmd, _ in readme_payloads()) == sorted(_COMMANDS)

    @pytest.mark.parametrize("command,text", [pytest.param(c, t, id=c) for c, t in readme_payloads()])
    def test_example_runs(self, tmp_path, capsys, command, text):
        code, report = run_cli(capsys, [command, write_payload(tmp_path, json.loads(text))])
        assert code == 0
        if command == "pick":
            # the example violates the Schwarz lemma: f(0) = 0, |f(0.5)| = 0.6
            assert report["results"]["feasible"] is False


def readme_library_code() -> str:
    """The Python code block under README's "Library" heading."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_gives_the_values_in_its_comments():
    namespace = {}
    exec(readme_library_code(), namespace)
    assert abs(namespace["m"] - (1 + 3 ** 0.5 / 2)) <= 1e-12
    assert abs(namespace["c"] - 1.0) <= 1e-12


RIESZ_KEYS = ["carleson_constant", "is_riesz", "lambda_max", "lambda_min", "riesz_tolerance"]

RESULT_KEYS = {
    "analyze-disk": sorted(["n_points", *RIESZ_KEYS, "weak_separation", "strong_separation",
                            "multiplier_separation"]),
    "analyze-polydisc": ["M", "N", "dimension", "gramian_lambda_max", "gramian_lambda_min", "n_points"],
    "analyze-fuchsian": ["degree", "gamma_riesz", "gamma_weak_separation", "group_size", "invariance_residual",
                         "kernel_rank", "kernel_residuals", "n_points", "orbit_point_count", "orbit_riesz",
                         "orbit_strong_separation", "orbit_weak_separation"],
    "pick": ["bound", "dimension", "feasible", "margin", "method", "n_points"],
    "pick-d2": ["affine_residual", "bound", "dimension", "feasible", "iterations", "method", "n_points",
                "psd_margin", "relative_residual", "tolerance"],
    "partition": ["all_riesz", "carleson_constant", "class_count", "classes", "epsilon", "n_points",
                  "per_class_lambda_min", "riesz_tolerance"],
}


class TestResultKeys:
    """The key set of every command's results: README's payloads, plus a d = 2 pick."""

    CASES = [pytest.param(c, c, json.loads(t), id=c) for c, t in readme_payloads()] + [
        pytest.param("pick", "pick-d2", scaled_pick_payload(2, 1.0), id="pick-d2")]

    @pytest.mark.parametrize("command,case,payload", CASES)
    def test_result_keys(self, tmp_path, capsys, command, case, payload):
        code, report = run_cli(capsys, [command, write_payload(tmp_path, payload)])
        assert code == 0
        results = report["results"]
        assert sorted(results) == RESULT_KEYS[case]
        if command == "analyze-disk":
            assert sorted(results["multiplier_separation"]) == ["min", "per_point"]
        if command == "analyze-fuchsian":
            assert sorted(results["gamma_riesz"]) == RIESZ_KEYS
            assert sorted(results["orbit_riesz"]) == RIESZ_KEYS


def readme_config_defaults() -> dict:
    """{key: default} from the table under README's "Config keys" heading."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, re.MULTILINE)
    return {key: float(default) for key, default in rows}


class TestReadmeConfigTable:
    def test_keys_and_defaults_match_config_defaults(self):
        assert readme_config_defaults() == {key: float(v) for key, v in CONFIG_DEFAULTS.items()}


class TestPolydiscAnchor:
    # The three-point bidisc set of the roadmap baseline, Szego x Szego.
    PAYLOAD = {
        "schema_version": 1,
        "points": [[[0, 0], [0, 0]], [[0.5, 0], [0.3, 0.2]], [[-0.4, 0.1], [0.2, -0.5]]],
        "kernels": [{"coeffs": [1]}, {"coeffs": [1]}],
    }

    def test_constants_without_dykstra(self, tmp_path, capsys, monkeypatch):
        from interp_lab import pick

        def no_dykstra(*args, **kwargs):
            raise AssertionError("Dykstra solve inside a decomposition constant")

        monkeypatch.setattr(pick, "dykstra_solve", no_dykstra)
        code, report = run_cli(capsys, ["analyze-polydisc", write_payload(tmp_path, self.PAYLOAD)])
        assert code == 0
        assert abs(report["results"]["M"] - 2.519284) <= 1e-5
        assert abs(report["results"]["N"] - 0.073577) <= 1e-5

    def test_sdp_tol_leaves_the_constants_alone(self, tmp_path, capsys):
        # sdp_tol reaches only the d >= 2 pick verdicts; M and N take no tolerance.
        results = []
        for tol in (1e-7, 1e-2):
            payload = write_payload(tmp_path, dict(self.PAYLOAD, config={"sdp_tol": tol}))
            results.append(run_cli(capsys, ["analyze-polydisc", payload])[1]["results"])
        assert results[0] == results[1]


class TestPartitionGramian:
    def test_full_gramian_built_once(self, tmp_path, capsys, monkeypatch):
        from interp_lab import gramian, partition

        points = [[0, 0], [0.01, 0], [0.9, 0], [-0.3, 0.4]]
        sizes = []
        for module in (gramian, partition):
            build = module.normalized_gramian

            def counted(pts, kernel, build=build):
                sizes.append(len(pts))
                return build(pts, kernel)

            monkeypatch.setattr(module, "normalized_gramian", counted)
        payload = {"schema_version": 1, "points": points, "kernel": {"coeffs": [1]}, "epsilon": 0.5}
        code, report = run_cli(capsys, ["partition", write_payload(tmp_path, payload)])
        assert code == 0
        assert sizes.count(len(points)) == 1
        # The Szego normalized Gramian, built directly.
        z = np.array([complex(*p) for p in points])
        d = np.sqrt(1 - np.abs(z) ** 2)
        g = np.outer(d, d) / (1 - np.outer(z, np.conj(z)))
        assert report["results"]["carleson_constant"] == pytest.approx(np.linalg.eigvalsh(g)[-1], abs=1e-12)


def seeded_partition_payload(seed, n=120):
    rng = np.random.default_rng(seed)
    z = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return {"schema_version": 1, "points": [[p.real, p.imag] for p in z],
            "kernel": {"coeffs": [1]}, "epsilon": 0.5}


class TestPartitionReport:
    def test_one_gramian_build_per_report(self, tmp_path, capsys, monkeypatch):
        from interp_lab import gramian, partition

        builds = []
        for module in (gramian, partition):
            build = module.normalized_gramian

            def counted(pts, kernel, build=build):
                builds.append(len(pts))
                return build(pts, kernel)

            monkeypatch.setattr(module, "normalized_gramian", counted)
        payload = seeded_partition_payload(7401)
        code, report = run_cli(capsys, ["partition", write_payload(tmp_path, payload)])
        assert code == 0
        assert sum(len(cls) > 1 for cls in report["results"]["classes"]) >= 2
        assert builds == [len(payload["points"])]

    def test_byte_identical_apart_from_wall_time(self, tmp_path, capsys):
        path = write_payload(tmp_path, seeded_partition_payload(7402))
        texts = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            assert run(["partition", path, "--output", str(out), "--quiet"]) == 0
            texts.append(re.sub(r'\n *"wall_time_s": [^\n]*', "", out.read_text()))
        assert texts[0] == texts[1]
        assert '"carleson_constant"' in texts[0] and "wall_time_s" not in texts[0]


def readme_usage() -> str:
    """The usage line in README's "Command-line interface" section."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Command-line interface", 1)[1]
    return re.search(r"```\n(interp-lab .*)\n```", section).group(1)


class TestGrammar:
    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in _COMMANDS)

    @pytest.mark.parametrize("argv", [["bogus", "-"], ["analyze-disk"], []])
    def test_usage_errors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "usage: interp-lab" in capsys.readouterr().err

    @pytest.mark.parametrize("options_first", [False, True])
    def test_options_before_or_after_the_command(self, tmp_path, capsys, options_first):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"riesz_tolerance": 0.2}))
        out_path = tmp_path / "report.json"
        options = ["--quiet", "--config", str(cfg_path), "--output", str(out_path)]
        positional = ["analyze-disk", write_payload(tmp_path, DISK_PAYLOAD)]
        code = run(options + positional if options_first else positional + options)
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out_path.read_text())["config"]["riesz_tolerance"] == 0.2

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_every_command_parses_in_readme_usage_form(self, command):
        from interp_lab.cli import build_parser

        assert readme_usage() == "interp-lab <command> <input.json | -> [--config FILE] [--output FILE] [--quiet]"
        args = build_parser().parse_args([command, "-", "--config", "c.json", "--output", "o.json", "--quiet"])
        assert vars(args) == {"command": command, "input": "-", "config": "c.json",
                              "output": "o.json", "quiet": True}


class TestConfigDefaultsFromLibrary:
    def test_echoed_config_is_the_library_defaults(self, tmp_path, capsys):
        from interp_lab import fuchsian, gramian, pick, sdp

        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, DISK_PAYLOAD)])
        assert code == 0
        cfg = report["config"]
        assert cfg["riesz_tolerance"] == gramian.DEFAULT_RIESZ_TOL
        assert cfg["sdp_tol"] == sdp.DEFAULT_TOL
        assert cfg["sdp_max_iters"] == sdp.DEFAULT_MAX_ITERS
        assert cfg["bisection_tol"] == pick.BISECTION_TOL
        assert cfg["sv_cutoff"] == fuchsian.DEFAULT_SV_CUTOFF
        assert cfg["group_max_elements"] == fuchsian.DEFAULT_GROUP_CAP


class TestNonFiniteReport:
    def test_finite_report_is_not_walked(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a finite report was walked")

        monkeypatch.setattr(cli, "_check_finite", refuse)
        code, report = run_cli(capsys, ["analyze-disk", write_payload(tmp_path, DISK_PAYLOAD)])
        assert code == 0 and report["results"]["n_points"] == 2

    def test_non_finite_result_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(_COMMANDS, "pick", lambda payload, cfg: ({"margins": [0.5, float("nan")]}, []))
        code, report = run_cli(capsys, ["pick", write_payload(tmp_path, {"schema_version": 1})])
        assert code == 3
        assert report["error"] == {"type": "numeric",
                                   "message": "non-finite value in report at results.margins[1]: nan"}
