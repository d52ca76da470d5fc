"""One validated point array for every layer: shapes, the boundary wall and its message."""

import io
import json

import numpy as np
import pytest

from interp_lab import SZEGO, ArgumentError, DomainError, eval_kernel
from interp_lab.cli import run
from interp_lab.gramian import check_distinct
from interp_lab.kernels import as_points


class TestAsPoints:
    def test_numbers_are_dimension_one(self):
        p = as_points([0.1, 0.2j, -0.3])
        assert p.shape == (3, 1) and p.dtype == complex
        assert p[:, 0].tolist() == [0.1, 0.2j, -0.3]

    def test_sequences_share_one_dimension(self):
        assert as_points([(0.1, 0.2), (0.3, 0.0)], 2).shape == (2, 2)
        assert as_points(x for x in [(0.1,), (0.2,)]).shape == (2, 1)
        assert as_points(np.array([0.1, 0.2])).shape == (2, 1)

    @pytest.mark.parametrize("points, dim", [
        ([], None), ([(), ()], None), ([0.1, (0.2, 0.3)], None), ([(0.1,), (0.2, 0.3)], None),
        ([(0.1, 0.2)], 1), ([0.1], 2), (0.5, None), ([[[0.1]]], None),
    ])
    def test_bad_shape_is_argument_error(self, points, dim):
        with pytest.raises(ArgumentError):
            as_points(points, dim)

    @pytest.mark.parametrize("points, message", [
        ([0.1, 1.5j], "point 1 too close to the unit circle or not finite: |z| = 1.5"),
        ([(0.1, 0.2), (0.3, float("nan")), (2.0, 0.0)], "point 1 too close to the unit circle or not finite: |z| = nan"),
        ([0.0, 0.0, 1 - 1e-12], "point 2 too close to the unit circle or not finite: |z| = 0.999999999999"),
    ])
    def test_wall_names_the_first_point_and_its_modulus(self, points, message):
        with pytest.raises(DomainError) as err:
            as_points(points)
        assert str(err.value) == message

    def test_wall_admits_its_own_edge(self):
        assert as_points([1 - 1e-9]).shape == (1, 1)

    def test_scalar_evaluator_gives_the_modulus(self):
        with pytest.raises(DomainError, match=r"\|z\| = 1\.5"):
            eval_kernel(SZEGO, 1.5, 0.0)


class TestCheckDistinctWall:
    def test_rejects_a_point_outside_the_wall(self):
        with pytest.raises(DomainError, match=r"point 1 .*\|z\| = 1\.5"):
            check_distinct([0.1, 1.5])

    def test_close_pair_named_for_one_and_several_coordinates(self):
        with pytest.raises(ArgumentError, match="points 0 and 2 coincide"):
            check_distinct([0.1, 0.5, 0.1 + 5e-13])
        with pytest.raises(ArgumentError, match="points 1 and 2 coincide"):
            check_distinct([(0.1, 0.2), (0.3, 0.4), (0.3 + 6e-13, 0.4 + 6e-13j)])
        check_distinct([(0.1, 0.2), (0.3, 0.4), (0.3 + 8e-13, 0.4 + 8e-13j)])


SZEGO_JSON = {"coeffs": [1]}
OUTSIDE = [1.5, 0]

# One payload per command, each with point 1 at |z| = 1.5.
OUTSIDE_PAYLOADS = {
    "analyze-disk": {"points": [[0, 0], OUTSIDE], "kernel": SZEGO_JSON},
    "partition": {"points": [[0, 0], OUTSIDE, [0.9, 0]], "kernel": SZEGO_JSON, "epsilon": 0.5},
    "analyze-fuchsian": {"points": [[0.2, 0], OUTSIDE], "degree": 10,
                         "group": {"generators": [{"theta": 0.0, "a": [0.5, 0]}], "max_word_length": 2}},
    "analyze-polydisc": {"points": [[[0, 0], [0, 0]], [[0.5, 0], OUTSIDE]],
                         "kernels": [SZEGO_JSON, SZEGO_JSON]},
    "pick": {"points": [[[0, 0]], [OUTSIDE]], "values": [[0, 0], [0.1, 0]], "bound": 1.0,
             "kernels": [SZEGO_JSON]},
}


@pytest.mark.parametrize("command", sorted(OUTSIDE_PAYLOADS))
def test_every_command_names_the_point_outside_the_disk(command, capsys, monkeypatch):
    payload = {"schema_version": 1, **OUTSIDE_PAYLOADS[command]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert run([command, "-"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "validation"
    assert error["message"] == "point 1 too close to the unit circle or not finite: |z| = 1.5"


@pytest.mark.parametrize("bound, feasible", [(1.0, True), (0.4, False)])
def test_one_variable_pick_checks_its_points_once(bound, feasible, capsys, monkeypatch):
    from interp_lab import kernels

    checked, disk_array = [], kernels._disk_array
    monkeypatch.setattr(kernels, "_disk_array", lambda z: checked.append(np.shape(z)) or disk_array(z))
    z = [0.0, 0.5, -0.3j, 0.2 + 0.6j, -0.7, 0.1 - 0.1j]
    payload = {"schema_version": 1, "points": [[[p.real, p.imag]] for p in map(complex, z)],
               "values": [[0.5 * p.real, 0.5 * p.imag] for p in map(complex, z)], "bound": bound,
               "kernels": [SZEGO_JSON]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert run(["pick", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["feasible"] is feasible
    assert checked == [(6, 1)]
