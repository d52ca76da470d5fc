"""Digests of every benchmark workload report at one seed: one ``workload/label sha256`` line per report.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/report_digest.py --seed 1

Each report of ``benchmarks/workloads.py`` runs in-process through ``interp_lab.cli.run``, as
``interp-lab <command> -`` with its payload on stdin.  The report's stdout, without its
``wall_time_s`` line, is hashed with SHA-256; error reports are hashed the same way.  The
library is whichever ``interp_lab`` is first on ``PYTHONPATH``, and the workloads always come
from this checkout, so two runs with ``PYTHONPATH`` set to two checkouts' ``src`` show which
reports differ between them:

    diff <(PYTHONPATH=../parent/src python3 tools/report_digest.py --seed 1) \\
         <(PYTHONPATH=src python3 tools/report_digest.py --seed 1)

Standard library only, apart from the library and the workloads' numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

from interp_lab import cli

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """``benchmarks/workloads.py`` of this checkout, imported as a module of its own."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "benchmarks" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def without_wall_time(text: str) -> str:
    """A report's JSON text without its ``wall_time_s`` line, the one entry that varies between runs."""
    return re.sub(r'\n *"wall_time_s": [^\n]*', "", text)


def report_text(command: str, payload: dict) -> str:
    """Stdout of ``interp-lab <command> -`` on the payload, run in this process."""
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(json.dumps(payload))
    try:
        with contextlib.redirect_stdout(out):
            cli.run([command, "-"])
    finally:
        sys.stdin = saved
    return out.getvalue()


def digests(seed: int) -> list[tuple[str, str]]:
    """(``workload/label``, SHA-256 of the report without ``wall_time_s``) of every workload report, in order."""
    workloads = load_workloads()
    return [(f"{name}/{report.label}",
             hashlib.sha256(without_wall_time(report_text(report.command, report.payload)).encode()).hexdigest())
            for name, build in workloads.WORKLOADS.items() for report in build(seed)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="the workloads' seed, as benchmarks/run.py takes it")
    args = parser.parse_args(argv)
    for label, digest in digests(args.seed):
        print(label, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
