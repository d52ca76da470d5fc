"""End-to-end benchmark of the interp-lab CLI, with an optional per-layer trace.

Usage, from the repository root:

    python3 benchmarks/run.py --workload disk-batch --seed 1 --seconds 20 --trace 0

One process, one caller, closed loop: each workload is a fixed batch of
reports run in-process through ``interp_lab.cli.run``, the next report sent
only after the previous one returns.  Batches repeat until ``--seconds`` have
passed (at least one), and each report's end-to-end time is the median of its
repetitions.  Every time is given at a fixed machine speed: a reference loop
is timed twice a second, and each stretch of a measured span is scaled by how
much slower than ``REFERENCE_SECONDS`` the loop ran around it
(``SpeedClock``).  Every report is checked against the independent oracle in
``oracle.py``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run
alternates untraced and traced batches, so its tracing overhead is traced
minus untraced ``wall_s`` measured in the same process.
"""

import os

# BLAS threads are pinned before numpy loads, so timings do not depend on
# how many cores the machine lends the process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import bisect
import contextlib
import io
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from tracer import Tracer
from workloads import WARMUP, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_SPAWNS = 9
# The reference loop's time at the speed every reported time is scaled to,
# about its time on the 2-vCPU machine the baseline was recorded on.
REFERENCE_SECONDS = 0.012
# Interval of the timer that samples the reference loop during a run.
REFERENCE_EVERY_S = 0.5

END_TO_END_UNITS = {"wall_s": "s", "report_s.p50": "s", "report_s.max": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def load_library():
    """Import interp_lab from this checkout's ``src``, and nowhere else."""
    package_dir = SRC / "interp_lab"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"benchmark: no library source at {package_dir}")
    sys.path.insert(0, str(SRC))
    import interp_lab
    import interp_lab.cli
    if Path(interp_lab.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"benchmark: imported interp_lab from {interp_lab.__file__}, not {package_dir}")
    return interp_lab


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS}


_REFERENCE_MATRICES = [m + m.T for m in np.random.default_rng(0).standard_normal((1000, 8, 8))]


def reference_loop() -> None:
    """Fixed work: 1000 small symmetric eigensolves in numpy.  Of the loops
    tried (Python complex arithmetic, Python dicts and strings, this one, a
    mix) this one followed the host's speed changes at least as well as the
    others on every report type tried."""
    for m in _REFERENCE_MATRICES:
        np.linalg.eigh(m)


class SpeedClock:
    """Scales measured times to a fixed machine speed.

    The shared host this benchmark runs on changes speed by up to 2x over
    seconds to minutes, in user and system time alike, so no statistic
    taken inside one run removes a slow phase that lasts the whole run.
    While ``running``, a real-time interval timer runs ``reference_loop``
    from a signal handler every ``REFERENCE_EVERY_S``, in the main thread
    between two bytecodes, so samples fall inside long reports too.
    ``seconds`` maps a span onto a reference timeline: time spent in samples
    is left out, and each stretch between two samples is scaled by
    ``REFERENCE_SECONDS`` over the mean of those two samples' times.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each loop
        # Set while a sample runs: a timer signal arriving then, which
        # happens only if a sample outlasts the interval, is dropped.
        self._busy = False
        self._timeline: tuple[list[float], list[float], list[float]] | None = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop()
        self.samples.append((start, time.perf_counter()))
        self._timeline = None
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Sample now, every ``REFERENCE_EVERY_S`` inside, and at the end."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    @contextlib.contextmanager
    def paused(self):
        """No timer samples inside, one sample on each side.  Spans timed by
        the tracer then hold no reference-loop time."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.sample()
        try:
            yield self
        finally:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)

    def loop_seconds(self) -> float:
        return statistics.median(end - start for start, end in self.samples)

    def _reference_time(self, t: float) -> float:
        if self._timeline is None:
            # Reference time at the end of each sample, and the rate that
            # holds from there to the start of the next one.
            at, rates = [0.0], []
            for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:]):
                rates.append(REFERENCE_SECONDS / (0.5 * ((e0 - s0) + (e1 - s1))))
                at.append(at[-1] + (s1 - e0) * rates[-1])
            self._timeline = ([start for start, _ in self.samples], at, rates)
        starts, at, rates = self._timeline
        i = bisect.bisect_right(starts, t) - 1
        if i < 0 or i >= len(rates):
            raise ValueError("span not between two reference samples")
        return at[i] + max(t - self.samples[i][1], 0.0) * rates[i]

    def seconds(self, start: float, end: float) -> float:
        """The span start..end, samples excluded, as it would read at the
        reference speed."""
        return self._reference_time(end) - self._reference_time(start)


def setup_seconds(clock: SpeedClock) -> float:
    """Median time for a fresh interpreter to start and import interp_lab.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans = []
    # Sampled between spawns, not during them, so the reference loop does
    # not compete with the child for the CPUs.
    clock.sample()
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import interp_lab.cli"], env=env, cwd=ROOT, check=True)
        spans.append((start, time.perf_counter()))
        clock.sample()
    return statistics.median(clock.seconds(*span) for span in spans)


def run_report(cli, item) -> tuple[int, tuple[float, float], str]:
    """One ``interp-lab <command> -`` call: exit code, (start, end), stdout."""
    text = json.dumps(item.payload)
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = cli.run([item.command, "-"])
            end = time.perf_counter()
    finally:
        sys.stdin = saved
    return code, (start, end), out.getvalue()


class Run:
    """Latencies, oracle verdicts and traces collected over one benchmark run."""

    def __init__(self, library, items):
        self.library = library
        self.items = items
        self.clock = SpeedClock()
        # Report spans of each untraced and each traced batch.
        self.walls: list[list[tuple[float, float]]] = []
        self.traced_walls: list[list[tuple[float, float]]] = []
        self.spans: dict[str, list[tuple[float, float]]] = {item.label: [] for item in items}
        self.layers: list[tuple[dict, list]] = []  # per traced batch: metrics, spans
        self.breakdown: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.gaps: list[float] = []

    def batch(self, tracer: Tracer | None = None) -> None:
        outcomes, rows = [], []
        for item in self.items:
            before = tracer.snapshot() if tracer else None
            outcomes.append(run_report(self.library.cli, item))
            if tracer:
                start, end = outcomes[-1][1]
                rows.append(_report_row(item, end - start, before, tracer.snapshot()))
        wall = [span for _, span, _ in outcomes]
        if tracer:
            self.traced_walls.append(wall)
            self.layers.append((tracer.layer_metrics(), wall))
            self.breakdown = rows
        else:
            self.walls.append(wall)
            for item, (_, span, _) in zip(self.items, outcomes):
                self.spans[item.label].append(span)
        self._check(outcomes)

    def _scaled(self, layers: dict[str, float], wall) -> dict[str, float]:
        """Per-layer times scaled to the reference speed by the same factor
        as the traced batch they were measured in."""
        factor = (sum(self.clock.seconds(*span) for span in wall)
                  / sum(end - start for start, end in wall))
        return {name: value * factor if unit(name).startswith("s") else value
                for name, value in layers.items()}

    def _check(self, outcomes) -> None:
        self.gaps = []
        for item, (code, _, text) in zip(self.items, outcomes):
            report = json.loads(text) if text.strip() else None
            problems = oracle.check(item, code, report)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAIL {item.label}: {'; '.join(problems)}", file=sys.stderr)
            elif item.command == "analyze-polydisc":
                self.gaps.append(oracle.constants_gap(item.payload, report))

    def end_to_end(self) -> dict[str, float]:
        # Each report counts at the median of its speed-scaled repetitions.
        typical = [statistics.median(self.clock.seconds(*span) for span in spans)
                   for spans in self.spans.values()]
        return {
            "wall_s": sum(typical),
            "report_s.p50": statistics.median(typical),
            "report_s.max": max(typical),
        }

    def per_layer(self) -> dict[str, float]:
        layers = [self._scaled(*batch) for batch in self.layers]
        metrics = {name: statistics.median(batch[name] for batch in layers) for name in layers[0]}
        metrics["pick.bound_gap"] = statistics.mean(self.gaps) if self.gaps else 0.0
        traced, untraced = (statistics.median(sum(self.clock.seconds(*span) for span in batch)
                                              for batch in batches)
                            for batches in (self.traced_walls, self.walls))
        metrics["trace.wall_s"] = traced
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = traced - untraced
        return metrics


def _report_row(item, latency, before, after) -> str:
    """One line of the traced breakdown: latency and the report's own counters."""
    def delta(*key):
        return after.get(key, 0) - before.get(key, 0)
    parts = [f"{item.label:26s} {latency:9.4f} s"]
    for const in ("pick.condition_a_constant", "pick.condition_b_constant"):
        if delta("calls", const):
            parts.append(f"{const[5:16]} {delta('seconds', const):.3f} s "
                         f"dykstra={delta('edge', const, 'sdp.dykstra_solve')}")
    if delta("calls", "sdp.dykstra_solve"):
        parts.append(f"iterations={delta('extra', 'sdp.dykstra_iterations')}")
    for name in ("gramian.normalized_gramian", "gramian.weak_separation",
                 "gramian.strong_separation_disk", "gramian.multiplier_distance",
                 "partition.partition_separated"):
        if delta("calls", name):
            parts.append(f"{name.split('.')[1]} {delta('seconds', name):.3f} s")
    return "  ".join(parts)


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "sdp.s_per_iteration":
        return "s/iteration"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bound_gap"):
        return "1"
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    library = load_library()
    facts = machine_facts()
    print("machine", json.dumps(facts, sort_keys=True))
    for item in WARMUP:
        run_report(library.cli, item)
    run = Run(library, WORKLOADS[args.workload](args.seed))
    setup = None if args.trace else setup_seconds(run.clock)
    start = time.perf_counter()
    with run.clock.running():
        while True:
            run.batch()
            if args.trace:
                with run.clock.paused(), Tracer(library) as tracer:
                    run.batch(tracer)
            if time.perf_counter() - start >= args.seconds:
                break

    if args.trace:
        metrics = run.per_layer()
        for row in run.breakdown:
            print("report", row)
    else:
        metrics = run.end_to_end()
        metrics["setup_s"] = setup
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop_s = run.clock.loop_seconds()
    print(f"workload {args.workload} seed {args.seed} batches {len(run.walls)} "
          f"reports {len(run.items)} reference_loop_s {loop_s:.5f} "
          f"bound_gap {statistics.mean(run.gaps) if run.gaps else 'n/a'}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
