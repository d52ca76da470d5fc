"""JSON batch front-end: one analysis command per invocation, report on stdout.

Payloads and reports carry ``"schema_version": 1``; complex numbers are
``[re, im]`` arrays.  Payloads are validated in full before any computation
runs.  Exit codes: 0 success, 2 validation error, 3 numeric or budget error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__, fuchsian, gramian, kernels, partition, pick
from .errors import ArgumentError, BudgetError, DomainError, NumericError

SCHEMA_VERSION = 1
TOOL_NAME = "interp-lab"

CONFIG_DEFAULTS = {
    "riesz_tolerance": 1e-3,
    "sdp_tol": 1e-7,
    "sdp_max_iters": 50000,
    "bisection_tol": 1e-5,
    "multiplier_alpha": 1.0,
    "sv_cutoff": 1e-6,
    "group_max_elements": 10000,
    "bessel_warn_threshold": 100.0,
}

_INT_KEYS = {"sdp_max_iters", "group_max_elements"}


class SchemaError(ArgumentError):
    """Payload fails validation; message carries the JSON path."""


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _as_number(v, path: str) -> float:
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool), path, "expected a number")
    return float(v)


def _as_complex(v, path: str) -> complex:
    _expect(isinstance(v, list) and len(v) == 2, path, "expected a complex number as [re, im]")
    return complex(_as_number(v[0], f"{path}[0]"), _as_number(v[1], f"{path}[1]"))


def _expect_list(v, path: str) -> list:
    _expect(isinstance(v, list) and v, path, "expected a nonempty list")
    return v


def _complex_list(v, path: str) -> list[complex]:
    _expect(isinstance(v, list) and v, path, "expected a nonempty list")
    return [_as_complex(item, f"{path}[{i}]") for i, item in enumerate(v)]


def _poly_point_list(v, path: str) -> list[tuple[complex, ...]]:
    _expect(isinstance(v, list) and v, path, "expected a nonempty list of points")
    out = []
    for i, item in enumerate(v):
        _expect(isinstance(item, list) and item, f"{path}[{i}]",
                "expected a point as a list of [re, im] coordinates")
        out.append(tuple(_as_complex(c, f"{path}[{i}][{j}]") for j, c in enumerate(item)))
    _expect(len({len(p) for p in out}) == 1, path, "points must share one dimension")
    return out


def _kernel_spec(v, path: str) -> kernels.KernelSpec:
    _expect(isinstance(v, dict), path, "expected a kernel object")
    _expect(set(v) == {"coeffs"}, path, 'expected exactly the key "coeffs"')
    coeffs = v["coeffs"]
    _expect(isinstance(coeffs, list) and coeffs, f"{path}.coeffs", "expected a nonempty list")
    return kernels.KernelSpec(tuple(_as_number(c, f"{path}.coeffs[{i}]") for i, c in enumerate(coeffs)))


def _kernel_list(v, path: str, dim: int) -> kernels.ProductKernelSpec:
    _expect(isinstance(v, list) and len(v) == dim, path,
            f"expected {dim} kernel objects (one per coordinate)")
    return kernels.ProductKernelSpec(tuple(_kernel_spec(k, f"{path}[{i}]") for i, k in enumerate(v)))


def _resolve_config(payload: dict, file_config: dict) -> dict:
    cfg = dict(CONFIG_DEFAULTS)
    for source, where in ((file_config, "config file"), (payload.get("config", {}), "payload config")):
        _expect(isinstance(source, dict), where, "expected an object")
        for key, value in source.items():
            _expect(key in CONFIG_DEFAULTS, f"{where}.{key}", "unknown config key")
            num = _as_number(value, f"{where}.{key}")
            cfg[key] = int(num) if key in _INT_KEYS else num
    return cfg


def _require_keys(payload: dict, required: set[str], optional: set[str]) -> None:
    _expect(isinstance(payload, dict), "payload", "expected a JSON object")
    keys = set(payload)
    missing = required - keys
    _expect(not missing, "payload", f"missing keys: {sorted(missing)}")
    unknown = keys - required - optional
    _expect(not unknown, "payload", f"unknown keys: {sorted(unknown)}")
    version = payload.get("schema_version")
    _expect(isinstance(version, int) and not isinstance(version, bool)
            and version == SCHEMA_VERSION,
            "payload.schema_version", f"expected {SCHEMA_VERSION}")


def _riesz_fields(report: gramian.RieszReport) -> dict:
    return {
        "lambda_min": report.lambda_min,
        "lambda_max": report.lambda_max,
        "carleson_constant": report.carleson_constant,
        "is_riesz": report.is_riesz,
        "riesz_tolerance": report.tolerance,
    }


def _cmd_analyze_disk(payload: dict, cfg: dict) -> tuple[dict, list[str]]:
    _require_keys(payload, {"schema_version", "points", "kernel"}, {"config"})
    pts = [_as_complex(p, f"points[{i}]") for i, p in enumerate(_expect_list(payload["points"], "points"))]
    spec = _kernel_spec(payload["kernel"], "kernel")
    n = len(pts)
    results: dict = {"n_points": n}
    g = gramian.normalized_gramian(pts, spec)
    results.update(_riesz_fields(gramian.riesz_bounds(g, cfg["riesz_tolerance"])))
    results["weak_separation"] = gramian.weak_separation(pts, spec) if n >= 2 else None
    results["strong_separation"] = gramian.strong_separation_disk(pts)
    if n >= 2:
        per_point = [
            gramian.multiplier_distance(pts[i], pts[:i] + pts[i + 1:], spec,
                                        alpha=cfg["multiplier_alpha"])
            for i in range(n)
        ]
        results["multiplier_separation"] = {"per_point": per_point, "min": min(per_point)}
    else:
        results["multiplier_separation"] = None
    return results, []


def _cmd_analyze_polydisc(payload: dict, cfg: dict) -> tuple[dict, list[str]]:
    _require_keys(payload, {"schema_version", "points", "kernels"}, {"config"})
    pts = _poly_point_list(payload["points"], "points")
    spec = _kernel_list(payload["kernels"], "kernels", len(pts[0]))
    kwargs = dict(bisection_tol=cfg["bisection_tol"], sdp_tol=cfg["sdp_tol"],
                  sdp_max_iters=cfg["sdp_max_iters"])
    g = gramian.normalized_gramian(pts, spec)
    riesz = gramian.riesz_bounds(g, cfg["riesz_tolerance"])
    results = {
        "n_points": len(pts),
        "dimension": spec.dimension,
        "M": pick.condition_a_constant(pts, spec, **kwargs),
        "N": pick.condition_b_constant(pts, spec, **kwargs),
        "gramian_lambda_min": riesz.lambda_min,
        "gramian_lambda_max": riesz.lambda_max,
    }
    return results, []


def _cmd_pick(payload: dict, cfg: dict) -> tuple[dict, list[str]]:
    _require_keys(payload, {"schema_version", "points", "values", "bound", "kernels"}, {"config"})
    pts = _poly_point_list(payload["points"], "points")
    values = _complex_list(payload["values"], "values")
    _expect(len(values) == len(pts), "values", f"expected {len(pts)} values")
    bound = _as_number(payload["bound"], "bound")
    spec = _kernel_list(payload["kernels"], "kernels", len(pts[0]))
    problem = pick.PickProblem(tuple(pts), tuple(values), bound)
    results: dict = {"n_points": len(pts), "dimension": spec.dimension, "bound": bound}
    if spec.dimension == 1:
        feasible, margin = pick.pick_psd_test(problem, spec.factors[0])
        results.update({"method": "pick-psd", "feasible": feasible, "margin": margin})
    else:
        w = np.asarray(values)
        target = bound * bound * np.ones((len(pts), len(pts))) - np.outer(w, np.conj(w))
        dec = pick.agler_feasible(pts, spec, target, tol=cfg["sdp_tol"],
                                  max_iters=cfg["sdp_max_iters"])
        results.update({
            "method": "agler-sdp",
            "feasible": dec.feasible,
            "affine_residual": dec.affine_residual,
            "psd_margin": dec.psd_margin,
            "iterations": dec.iterations,
        })
    return results, []


def _cmd_analyze_fuchsian(payload: dict, cfg: dict) -> tuple[dict, list[str]]:
    _require_keys(payload, {"schema_version", "points", "group", "degree"}, {"config"})
    pts = [_as_complex(p, f"points[{i}]") for i, p in enumerate(_expect_list(payload["points"], "points"))]
    group = payload["group"]
    _expect(isinstance(group, dict) and set(group) == {"generators", "max_word_length"},
            "group", 'expected exactly the keys "generators" and "max_word_length"')
    _expect(isinstance(group["generators"], list), "group.generators", "expected a list")
    gens = []
    for i, g in enumerate(group["generators"]):
        path = f"group.generators[{i}]"
        _expect(isinstance(g, dict) and set(g) == {"theta", "a"}, path,
                'expected exactly the keys "theta" and "a"')
        gens.append(fuchsian.MobiusMap(_as_number(g["theta"], f"{path}.theta"),
                                       _as_complex(g["a"], f"{path}.a")))
    word_length = group["max_word_length"]
    _expect(isinstance(word_length, int) and not isinstance(word_length, bool) and word_length >= 0,
            "group.max_word_length", "expected a nonnegative integer")
    degree = payload["degree"]
    _expect(isinstance(degree, int) and not isinstance(degree, bool) and degree >= 1,
            "degree", "expected an integer >= 1")
    report = fuchsian.analyze_gamma_sequence(
        pts, gens, degree, word_length,
        sv_cutoff=cfg["sv_cutoff"], riesz_tolerance=cfg["riesz_tolerance"],
        max_elements=cfg["group_max_elements"],
    )
    results = {
        "n_points": report.point_count,
        "degree": report.degree,
        "group_size": report.group_size,
        "kernel_rank": report.kernel_rank,
        "kernel_residuals": list(report.kernel_residuals),
        "invariance_residual": report.invariance_residual,
        "gamma_riesz": _riesz_fields(report.gamma_riesz),
        "gamma_weak_separation": report.gamma_weak_separation,
        "orbit_point_count": report.orbit_point_count,
        "orbit_riesz": _riesz_fields(report.orbit_riesz),
        "orbit_weak_separation": report.orbit_weak_separation,
        "orbit_strong_separation": report.orbit_strong_separation,
    }
    return results, list(report.warnings)


def _cmd_partition(payload: dict, cfg: dict) -> tuple[dict, list[str]]:
    _require_keys(payload, {"schema_version", "points", "kernel", "epsilon"}, {"config"})
    pts = [_as_complex(p, f"points[{i}]") for i, p in enumerate(_expect_list(payload["points"], "points"))]
    spec = _kernel_spec(payload["kernel"], "kernel")
    epsilon = _as_number(payload["epsilon"], "epsilon")
    warnings: list[str] = []
    result = partition.partition_separated(pts, spec, epsilon)
    result = partition.verify_partition(result, spec, cfg["riesz_tolerance"])
    full = gramian.riesz_bounds(gramian.normalized_gramian(pts, spec), cfg["riesz_tolerance"])
    if full.carleson_constant > cfg["bessel_warn_threshold"]:
        warnings.append(
            f"full-set Carleson constant {full.carleson_constant:.6g} exceeds "
            f"{cfg['bessel_warn_threshold']:.6g}; the Bessel hypothesis looks violated "
            "at this prefix"
        )
    results = {
        "n_points": len(pts),
        "epsilon": result.epsilon,
        "class_count": len(result.classes),
        "classes": [list(idx) for idx in result.class_indices],
        "per_class_lambda_min": list(result.per_class_lambda_min),
        "all_riesz": result.all_riesz,
        "riesz_tolerance": result.tolerance,
        "carleson_constant": full.carleson_constant,
    }
    return results, warnings


_COMMANDS = {
    "analyze-disk": _cmd_analyze_disk,
    "analyze-polydisc": _cmd_analyze_polydisc,
    "analyze-fuchsian": _cmd_analyze_fuchsian,
    "pick": _cmd_pick,
    "partition": _cmd_partition,
}


def _load_json(path: str):
    def reject(constant):
        raise SchemaError(f"{path}: {constant} is not a finite number")

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text, parse_constant=reject)


def _payload_digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_finite(node, path: str = "results") -> None:
    if isinstance(node, float):
        if not math.isfinite(node):
            raise NumericError(f"non-finite value in report at {path}: {node}")
    elif isinstance(node, dict):
        for k, v in node.items():
            _check_finite(v, f"{path}.{k}")
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            _check_finite(v, f"{path}[{i}]")


def _error_report(command: str | None, kind: str, message: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "error": {"type": kind, "message": message},
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Finite-scale interpolation diagnostics: JSON in, JSON report out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} analysis")
        p.add_argument("input", help="payload file, or - for standard input")
        p.add_argument("--config", help="JSON file with config overrides", default=None)
        p.add_argument("--output", help="write the report to this file", default=None)
        p.add_argument("--quiet", action="store_true", help="suppress the report on stdout")
    return parser


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if not args.quiet:
        print(text)


def run(argv=None) -> int:
    """Entry point: returns the process exit code instead of raising."""
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        payload = _load_json(args.input)
        file_cfg = _load_json(args.config) if args.config else {}
        cfg = _resolve_config(payload if isinstance(payload, dict) else {}, file_cfg)
        _expect(isinstance(payload, dict), "payload", "expected a JSON object")
        results, warnings = _COMMANDS[args.command](payload, cfg)
        report = {
            "schema_version": SCHEMA_VERSION,
            "tool": TOOL_NAME,
            "version": __version__,
            "command": args.command,
            "input_digest": _payload_digest(payload),
            "config": cfg,
            "results": results,
            "warnings": warnings,
            "wall_time_s": time.perf_counter() - start,
        }
        _check_finite(report["results"])
    except (json.JSONDecodeError, OSError) as exc:
        _emit(_error_report(args.command, "input", str(exc)), args)
        return 2
    except (SchemaError, ArgumentError, DomainError) as exc:
        _emit(_error_report(args.command, "validation", str(exc)), args)
        return 2
    except (NumericError, BudgetError) as exc:
        kind = "budget" if isinstance(exc, BudgetError) else "numeric"
        _emit(_error_report(args.command, kind, str(exc)), args)
        return 3
    _emit(report, args)
    return 0


def main() -> None:
    sys.exit(run())
