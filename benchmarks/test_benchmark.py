"""Self-tests of the benchmark: seeded inputs, the oracle, and the tracer.

Run with ``python3 -m pytest benchmarks/test_benchmark.py`` from the
repository root.  Only cheap reports are executed; the polydisc anchor is not.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Report, payload_digest  # noqa: E402

library = run.load_library()


def execute(item: Report) -> dict:
    code, _, text = run.run_report(library.cli, item)
    assert code == 0, text
    report = json.loads(text)
    assert oracle.check(item, code, report) == []
    return report


def find(items, prefix) -> Report:
    return next(item for item in items if item.label.startswith(prefix))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_payloads(name):
    make = WORKLOADS[name]
    digests = [payload_digest(item.payload) for item in make(7)]
    assert digests == [payload_digest(item.payload) for item in make(7)]
    other = [payload_digest(item.payload) for item in make(8)]
    assert digests != other
    # Anchor sets ignore the seed.
    anchors = [d for d, item in zip(digests, make(7)) if "anchor" in item.label]
    assert anchors and anchors == [d for d, item in zip(other, make(8)) if "anchor" in item.label]


def test_oracle_flags_constant_below_gramian_bound():
    item = find(WORKLOADS["polydisc-solve"](3), "polydisc-identical")
    report = execute(item)
    bad = copy.deepcopy(report)
    bad["results"]["M"] = report["results"]["gramian_lambda_max"] - 0.01
    assert any("M " in p for p in oracle.check(item, 0, bad))
    bad = copy.deepcopy(report)
    bad["results"]["N"] = report["results"]["gramian_lambda_min"] + 0.01
    assert any("N " in p for p in oracle.check(item, 0, bad))
    # On identical slices the constants are exact, so a loose M is caught too.
    bad = copy.deepcopy(report)
    bad["results"]["M"] += 0.01
    assert any("identical slices" in p for p in oracle.check(item, 0, bad))


def test_oracle_flags_class_with_close_pair():
    item = find(WORKLOADS["disk-batch"](3), "partition-n200")
    report = execute(item)
    classes = report["results"]["classes"]
    z = oracle._points(item.payload)
    rho = oracle.rho_matrix(oracle.normalize(1.0 / oracle._inverse_kernel([1.0], z)))
    # Move the first point of class 1 into class 0 next to a close neighbour.
    j = classes[1][0]
    assert np.min(rho[j, classes[0]]) < item.payload["epsilon"]
    bad = copy.deepcopy(report)
    bad["results"]["classes"][1].remove(j)
    bad["results"]["classes"][0].append(j)
    assert any("rho" in p for p in oracle.check(item, 0, bad))
    bad = copy.deepcopy(report)
    bad["results"]["classes"][0].append(j)
    assert any("exactly once" in p for p in oracle.check(item, 0, bad))


@pytest.mark.parametrize("prefix", ["pick1-n12-feas", "pick1-n10-infeas", "pick2-feas", "pick2-infeas"])
def test_oracle_flags_flipped_verdict(prefix):
    item = find(WORKLOADS["disk-batch" if prefix.startswith("pick1") else "polydisc-solve"](3), prefix)
    report = execute(item)
    bad = copy.deepcopy(report)
    bad["results"]["feasible"] = not report["results"]["feasible"]
    assert oracle.check(item, 0, bad)


def test_oracle_flags_disk_and_fuchsian_errors():
    item = find(WORKLOADS["disk-batch"](3), "disk-n20")
    report = execute(item)
    for key, delta in (("lambda_min", 1e-6), ("weak_separation", 1e-6), ("strong_separation", 1e-3)):
        bad = copy.deepcopy(report)
        bad["results"][key] += delta
        assert oracle.check(item, 0, bad), key
    item = find(WORKLOADS["fuchsian-orbits"](3), "fuchsian-L3")
    report = execute(item)
    for key in ("group_size", "orbit_point_count"):
        bad = copy.deepcopy(report)
        bad["results"][key] -= 1
        assert oracle.check(item, 0, bad), key
    assert oracle.check(item, 3, None) == ["exit code 3"]


def test_tracer_rebinds_imported_names_and_restores_them():
    pick, fuchsian, sdp = library.pick, library.fuchsian, library.sdp
    originals = (pick.dykstra_solve, fuchsian.normalized_gramian, sdp.project_psd)
    with Tracer(library) as tracer:
        bound = tracer.bindings()
        assert {"interp_lab.pick.dykstra_solve", "interp_lab.pick.check_certificate",
                "interp_lab.fuchsian.normalized_gramian", "interp_lab.partition.riesz_bounds",
                "interp_lab.sdp.dykstra_solve"} <= set(bound)
        assert pick.dykstra_solve is not originals[0]
        execute(find(WORKLOADS["polydisc-solve"](3), "pick2-infeas"))
        execute(find(WORKLOADS["fuchsian-orbits"](3), "fuchsian-rotation"))
    assert (pick.dykstra_solve, fuchsian.normalized_gramian, sdp.project_psd) == originals
    metrics = tracer.layer_metrics()
    assert metrics["sdp.dykstra_calls"] == 1
    assert metrics["sdp.dykstra_iterations"] > 0
    assert metrics["sdp.project_psd_calls"] >= metrics["sdp.dykstra_iterations"]
    assert metrics["fuchsian.group_size"] > 0
    assert tracer.edge_calls["fuchsian.analyze_gamma_sequence", "gramian.normalized_gramian"] == 2
    assert metrics["kernels.eval_calls"] > 0


def test_self_time_excludes_child_spans():
    with Tracer(library) as tracer:
        execute(find(WORKLOADS["disk-batch"](3), "disk-n20"))
    calls, total, self_s = tracer.stats["cli.run"]
    children = sum(tracer.stats[callee][1] for (caller, callee) in tracer.edge_calls if caller == "cli.run")
    assert calls == 1 and 0.0 < self_s < total
    assert self_s == pytest.approx(total - children, abs=1e-9)


def test_speed_clock_scales_each_stretch_and_skips_samples():
    ref = run.REFERENCE_SECONDS
    clock = run.SpeedClock()
    # Samples at 0, 1 and 3 s: one at the reference speed, two at half of it.
    clock.samples = [(0.0, ref), (1.0, 1.0 + 2 * ref), (3.0, 3.0 + 2 * ref)]
    assert clock.seconds(ref, 1.0) == pytest.approx((1.0 - ref) / 1.5)
    # A span across the second sample: its time is left out, and the two
    # stretches are scaled by their own pairs of samples.
    assert clock.seconds(0.5, 1.5 + 2 * ref) == pytest.approx(0.5 / 1.5 + 0.5 / 2.0)
    with pytest.raises(ValueError):
        clock.seconds(3.5, 4.0)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
