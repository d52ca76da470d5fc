"""The summary of tools/paired_bench.py on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def runs(name, values):
    return [{name: v} for v in values]


def test_lower_is_better_counts_wins_losses_and_ties():
    parent = runs("wall_s", [1.0, 1.2, 0.8, 1.1, 0.9])
    change = runs("wall_s", [0.8, 1.2, 0.7, 1.3, 0.6])
    (row,) = paired_bench.summarize(parent, change, {"wall_s": True})
    # Pair 1 is a tie, pair 3 a loss.
    assert (row["won"], row["lost"], row["pairs"]) == (3, 1, 5)
    assert row["parent"] == pytest.approx((0.85, 1.0, 1.15))
    assert row["change"] == pytest.approx((0.65, 0.8, 1.25))
    assert row["relative"] == pytest.approx(-0.2)
    assert row["gain"] is False


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_wider_than_the_parent_iqr():
    parent = runs("report_s.p50", [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.05, 9.95])
    faster = runs("report_s.p50", [v - 1.0 for v in [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.05, 9.95]])
    (row,) = paired_bench.summarize(parent, faster, {})
    assert row["won"] == 10 and row["gain"] is True
    # Every pair won, but by less than the parent's quartile distance: no gain.
    slightly = runs("report_s.p50", [v - 0.01 for v in [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.05, 9.95]])
    (row,) = paired_bench.summarize(parent, slightly, {})
    assert row["won"] == 10 and row["gain"] is False
    # A large gap with two lost pairs of ten: no gain.
    mixed = [{"report_s.p50": v["report_s.p50"] + (3.0 if i < 2 else 0.0)} for i, v in enumerate(faster)]
    (row,) = paired_bench.summarize(parent, mixed, {})
    assert (row["won"], row["lost"], row["gain"]) == (8, 2, False)


def test_higher_is_better_and_only_shared_metrics():
    parent = [{"ratio": 0.5, "only_parent": 1.0}, {"ratio": 0.6, "only_parent": 1.0}]
    change = [{"ratio": 0.7}, {"ratio": 0.4}]
    rows = paired_bench.summarize(parent, change, {"ratio": False})
    assert [row["metric"] for row in rows] == ["ratio"]
    assert (rows[0]["won"], rows[0]["lost"]) == (1, 1)
    assert "ratio" in paired_bench.format_rows(rows)
