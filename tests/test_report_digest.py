"""tools/report_digest.py: every workload report hashed without its wall time, the same on every run."""

import importlib.util
import json
import re
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "report_digest", Path(__file__).resolve().parent.parent / "tools" / "report_digest.py")
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)


def test_wall_time_is_the_only_line_dropped():
    report = {"command": "pick", "results": {"feasible": True}, "wall_time_s": 0.25, "warnings": []}
    text = json.dumps(report, indent=2, sort_keys=True)
    stripped = report_digest.without_wall_time(text)
    assert stripped == report_digest.without_wall_time(text.replace("0.25", "0.0125"))
    assert stripped.splitlines() == [line for line in text.splitlines() if "wall_time_s" not in line]


def test_every_workload_report_hashes_alike_twice():
    first = report_digest.digests(1)
    workloads = report_digest.load_workloads().WORKLOADS
    assert [label for label, _ in first] == [f"{name}/{report.label}" for name, build in workloads.items()
                                            for report in build(1)]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in first)
    assert report_digest.digests(1) == first
