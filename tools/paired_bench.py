"""Paired benchmark runs: a git revision against the working tree, one workload and seed.

Usage, from the repository root:

    python3 tools/paired_bench.py --rev HEAD --workload polydisc-solve --seed 1 --pairs 10

``--rev`` is checked out with ``git worktree add`` into a temporary directory, which is
removed afterwards.  Each pair runs ``python3 benchmarks/run.py --workload W --seed S
--seconds N``, N being ``BENCHMARK.json``'s ``run_seconds``, once in that checkout and once
in the working tree, each side with its own benchmark code, and the side that runs first
alternates from pair to pair.  Each run's
metrics are printed as one JSON line as it ends.  At the end, per metric: each side's
median and quartiles, the change's median relative to the revision's, and the pairs the
change won, ties counting for neither side.  ``gain`` marks a metric on which the change
won at least nine tenths of the pairs and the medians differ by more than the distance
between the revision's quartiles.  Directions (lower or higher is better) come from the
working tree's ``BENCHMARK.json``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def summarize(parent: list[dict], change: list[dict], lower_is_better: dict[str, bool]) -> list[dict]:
    """One row per metric that every run reports: quartiles of each side, the relative change of
    the medians, and the pairs (``parent[i]``, ``change[i]``) that the change won and lost."""
    names = sorted(set.intersection(*(set(run) for run in parent + change)))
    rows = []
    for name in names:
        before, after = [run[name] for run in parent], [run[name] for run in change]
        sign = 1.0 if lower_is_better.get(name, True) else -1.0
        won = sum(sign * (b - a) > 0.0 for a, b in zip(after, before))
        lost = sum(sign * (a - b) > 0.0 for a, b in zip(after, before))
        (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
        rows.append({
            "metric": name, "parent": (p1, pm, p3), "change": (c1, cm, c3),
            "relative": cm / pm - 1.0 if pm else float("nan"),
            "won": won, "lost": lost, "pairs": len(before),
            "gain": won >= 0.9 * len(before) and sign * (pm - cm) > p3 - p1,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'metric':16s} {'parent q1 / median / q3':>34s} {'change q1 / median / q3':>34s} "
             f"{'change':>8s} {'won':>4s} {'lost':>4s} {'of':>3s}  gain"]
    for row in rows:
        sides = ["  ".join(f"{v:10.4g}" for v in row[side]) for side in SIDES]
        lines.append(f"{row['metric']:16s} {sides[0]:>34s} {sides[1]:>34s} {100 * row['relative']:+7.2f}% "
                     f"{row['won']:4d} {row['lost']:4d} {row['pairs']:3d}  {'yes' if row['gain'] else 'no'}")
    return "\n".join(lines)


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its metrics by name; exits if the oracle flagged a report."""
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=checkout, capture_output=True, text=True, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        sys.exit(f"paired_bench: {checkout}: {last['failed']} of {last['attempted']} reports failed the oracle")
    return {name: metric["value"] for name, metric in last["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the revision to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    # A terminated run still removes its worktree: SIGTERM unwinds through the finally below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(checkout), args.rev],
                       check=True, capture_output=True)
        try:
            dirs = {"parent": checkout, "change": ROOT}
            for i in range(args.pairs):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    runs[side].append(run_benchmark(dirs[side], args.workload, args.seed, seconds))
                    print(json.dumps({"pair": i, "side": side, "metrics": runs[side][-1]}), flush=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(checkout)], check=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs, {args.rev} against "
          "the working tree")
    print(format_rows(summarize(runs["parent"], runs["change"], lower)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
