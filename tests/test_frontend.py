"""The CLI front end: each malformed number or shape gets one exact validation
message, and one process builds its argument parser at most once."""

import argparse
import io
import json

import pytest

from interp_lab.cli import run

BIG_INT = "1" + "0" * 399

# One [re, im] entry, as raw JSON, and what the message appends to its path.
NOT_A_COMPLEX = ": expected a complex number as [re, im]"
BAD_ENTRIES = {
    "true": ("[true, 0]", "[0]: expected a number"),
    "string": ('[0, "1"]', "[1]: expected a number"),
    "null": ("[null, 0]", "[0]: expected a number"),
    "1e400": ("[0, 1e400]", "[1]: expected a finite number"),
    "400-digit": (f"[-{BIG_INT}, 0]", "[0]: expected a finite number"),
    "one-entry": ("[1]", NOT_A_COMPLEX),
    "three-entries": ("[1, 2, 3]", NOT_A_COMPLEX),
    "bare-number": ("0.5", NOT_A_COMPLEX),
    "bare-true": ("true", NOT_A_COMPLEX),
    "empty-point": ("[]", NOT_A_COMPLEX),
    "two-coordinates": ("[[0.5, 0], [0, 0]]", "[0]: expected a number"),
}

DISK = {"points": [[0, 0], "@"], "kernel": {"coeffs": [1]}}
POLYDISC = {"points": [[[0, 0]], ["@"]], "kernels": [{"coeffs": [1]}]}
PICK = {"points": [[[0, 0]], [[0.5, 0]]], "values": [[0, 0], [0.6, 0]], "bound": 1.0,
        "kernels": [{"coeffs": [1]}]}
FUCHSIAN = {"points": [[0, 0], [0.5, 0]], "degree": 10,
            "group": {"generators": [{"theta": 0, "a": [0.5, 0]}], "max_word_length": 1}}

# (command, payload with "@" at one [re, im] entry, that entry's path)
SITES = [
    ("analyze-disk", DISK, "points[1]"),
    ("partition", {**DISK, "epsilon": 0.5}, "points[1]"),
    ("analyze-polydisc", POLYDISC, "points[1][0]"),
    ("pick", {**PICK, "points": POLYDISC["points"]}, "points[1][0]"),
    ("pick", {**PICK, "values": [[0, 0], "@"]}, "values[1]"),
    ("analyze-fuchsian", {**FUCHSIAN, "points": DISK["points"]}, "points[1]"),
    ("analyze-fuchsian", {**FUCHSIAN, "group": {"generators": [{"theta": 0, "a": "@"}],
                                                "max_word_length": 1}}, "group.generators[0].a"),
]

# (command, payload, message) for a whole list or a whole polydisc point.
POLYDISC_POINTS = [("analyze-polydisc", POLYDISC), ("pick", PICK)]
BAD_LISTS = [
    ("analyze-disk", {**DISK, "points": []}, "points: expected a nonempty list"),
    ("partition", {**DISK, "points": [], "epsilon": 0.5}, "points: expected a nonempty list"),
    ("analyze-fuchsian", {**FUCHSIAN, "points": []}, "points: expected a nonempty list"),
    ("pick", {**PICK, "values": []}, "values: expected a nonempty list"),
    *[(command, {**base, "points": points}, message) for command, base in POLYDISC_POINTS
      for points, message in [
          ([], "points: expected a nonempty list of points"),
          ([[[0, 0]], []], "points[1]: expected a point as a list of [re, im] coordinates"),
          ([[[0, 0]], 0.5], "points[1]: expected a point as a list of [re, im] coordinates"),
          ([[[0, 0]], [[0.5, 0], [0, 0]]], "points: points must share one dimension"),
      ]],
]


def run_raw(command, payload, token, capsys, monkeypatch):
    text = json.dumps({"schema_version": 1, **payload}).replace('"@"', token)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = run([command, "-"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("entry", list(BAD_ENTRIES))
@pytest.mark.parametrize("command, payload, path",
                         [pytest.param(*site, id=f"{site[0]}-{site[2]}") for site in SITES])
def test_bad_entry_has_its_exact_message(command, payload, path, entry, capsys, monkeypatch):
    token, tail = BAD_ENTRIES[entry]
    code, report = run_raw(command, payload, token, capsys, monkeypatch)
    assert code == 2
    assert report["error"] == {"type": "validation", "message": path + tail}


@pytest.mark.parametrize("command, payload, message", BAD_LISTS)
def test_bad_list_or_point_has_its_exact_message(command, payload, message, capsys, monkeypatch):
    code, report = run_raw(command, payload, "", capsys, monkeypatch)
    assert code == 2
    assert report["error"] == {"type": "validation", "message": message}


def test_valid_sites_still_run(capsys, monkeypatch):
    for command, payload, _ in SITES:
        code, report = run_raw(command, payload, "[0.25, -0.125]", capsys, monkeypatch)
        assert code == 0, report


def test_twenty_runs_build_at_most_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(20):
        code, report = run_raw("analyze-disk", DISK, "[0.5, 0]", capsys, monkeypatch)
        assert code == 0
    assert len(built) <= 1
