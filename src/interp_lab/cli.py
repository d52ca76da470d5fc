"""JSON batch front-end: one analysis command per invocation, report on stdout.

Payloads and reports carry ``"schema_version": 1``; complex numbers are
``[re, im]`` arrays.  Payloads are validated in full before any computation
runs.  Exit codes: 0 success, 2 validation error, 3 numeric or budget error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, fuchsian, gramian, kernels, partition, pick, sdp
from .errors import ArgumentError, BudgetError, DomainError, NumericError

SCHEMA_VERSION = 1
TOOL_NAME = "interp-lab"

CONFIG_DEFAULTS = {
    "riesz_tolerance": gramian.DEFAULT_RIESZ_TOL,
    "sdp_tol": sdp.DEFAULT_TOL,
    "sdp_max_iters": sdp.DEFAULT_MAX_ITERS,
    "bisection_tol": pick.BISECTION_TOL,
    "multiplier_alpha": 1.0,
    "sv_cutoff": fuchsian.DEFAULT_SV_CUTOFF,
    "group_max_elements": fuchsian.DEFAULT_GROUP_CAP,
    "bessel_warn_threshold": 100.0,
}

_INT_KEYS = {"sdp_max_iters", "group_max_elements"}
_POSITIVE_KEYS = {"sdp_tol", "bisection_tol", "sv_cutoff", "multiplier_alpha"}


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ArgumentError(f"{path}: {msg}")


def _as_number(v, path: str) -> float:
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool), path, "expected a number")
    # Also rejects what json reads as inf (1e400) and integers beyond float range.
    _expect(abs(v) <= sys.float_info.max, path, "expected a finite number")
    return float(v)


def _as_complex(v, path: str) -> complex:
    _expect(isinstance(v, list) and len(v) == 2, path, "expected a complex number as [re, im]")
    return complex(_as_number(v[0], f"{path}[0]"), _as_number(v[1], f"{path}[1]"))


def _pairs(v: list, path: str, *at: int) -> list[complex]:
    """The ``[re, im]`` entries of ``v``, each tested inline by the rule of :func:`_as_complex`;
    a failing entry goes to it for the error, with the path ``path[*at][i]``."""
    for i, z in enumerate(v):
        if not (type(z) is list and len(z) == 2 and type(z[0]) in (int, float) and type(z[1]) in (int, float)
                and abs(z[0]) <= sys.float_info.max and abs(z[1]) <= sys.float_info.max):
            _as_complex(z, path + "".join(f"[{k}]" for k in (*at, i)))
    return [complex(re, im) for re, im in v]


def _complex_list(v, path: str) -> list[complex]:
    _expect(isinstance(v, list) and v, path, "expected a nonempty list")
    return _pairs(v, path)


def _poly_point_list(v, path: str) -> list[tuple[complex, ...]]:
    _expect(isinstance(v, list) and v, path, "expected a nonempty list of points")
    out = []
    for i, item in enumerate(v):
        if not (isinstance(item, list) and item):
            raise ArgumentError(f"{path}[{i}]: expected a point as a list of [re, im] coordinates")
        out.append(tuple(_pairs(item, path, i)))
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
            path = f"{where}.{key}"
            _expect(key in CONFIG_DEFAULTS, path, "unknown config key")
            num = _as_number(value, path)
            if key in _INT_KEYS:
                _expect(num.is_integer() and num >= 1, path, "expected an integer >= 1")
                num = int(num)
            _expect(key not in _POSITIVE_KEYS or num > 0.0, path, "expected a number > 0")
            _expect(key != "riesz_tolerance" or num >= 0.0, path, "expected a number >= 0")
            cfg[key] = num
    return cfg


def _require_keys(payload: dict, required: set[str], optional: set[str]) -> None:
    _expect(isinstance(payload, dict), "payload", "expected a JSON object")
    missing = required - set(payload)
    _expect(not missing, "payload", f"missing keys: {sorted(missing)}")
    unknown = set(payload) - required - optional
    _expect(not unknown, "payload", f"unknown keys: {sorted(unknown)}")
    version = payload.get("schema_version")
    _expect(isinstance(version, int) and not isinstance(version, bool)
            and version == SCHEMA_VERSION,
            "payload.schema_version", f"expected {SCHEMA_VERSION}")


def _cmd_analyze_disk(payload: dict, cfg: dict) -> tuple[dict, list[str]]:
    _require_keys(payload, {"schema_version", "points", "kernel"}, {"config"})
    pts = _complex_list(payload["points"], "points")
    spec = _kernel_spec(payload["kernel"], "kernel")
    n = len(pts)
    g = gramian.normalized_gramian(pts, spec)
    szego, ph = spec == kernels.SZEGO, gramian.pseudo_hyperbolic_matrix(pts)
    delta, log_delta = gramian.log_separations(ph)
    riesz = gramian.riesz_bounds(g, cfg["riesz_tolerance"], log_delta if szego else None)
    results = {"n_points": n, **asdict(riesz)}
    # The Szegő semimetric √(1 − |G_ij|²) is ρ: its smallest off-diagonal entry, without that cancellation.
    results["weak_separation"] = (float(np.min(ph)) if szego else gramian.min_semimetric(g)) if n >= 2 else None
    results["strong_separation"] = float(np.min(delta))
    sep = gramian.multiplier_separation(pts, spec, alpha=cfg["multiplier_alpha"]) if n >= 2 else None
    results["multiplier_separation"] = sep and {"per_point": sep, "min": min(sep)}
    return results, []


def _cmd_analyze_polydisc(payload: dict, cfg: dict) -> tuple[dict, list[str]]:
    _require_keys(payload, {"schema_version", "points", "kernels"}, {"config"})
    pts = _poly_point_list(payload["points"], "points")
    spec = _kernel_list(payload["kernels"], "kernels", len(pts[0]))
    g = gramian.normalized_gramian(pts, spec)
    riesz = gramian.riesz_bounds(g, cfg["riesz_tolerance"])
    results = {
        "n_points": len(pts),
        "dimension": spec.dimension,
        "M": pick.condition_a_constant(pts, spec, bisection_tol=cfg["bisection_tol"]),
        "N": pick.condition_b_constant(pts, spec, bisection_tol=cfg["bisection_tol"]),
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
        dec = pick.agler_feasible(problem._array, spec, bound * bound - np.outer(values, np.conj(values)),
                                  tol=cfg["sdp_tol"], max_iters=cfg["sdp_max_iters"])
        results.update({
            "method": "agler-sdp",
            "feasible": dec.feasible,
            "affine_residual": dec.affine_residual,
            "relative_residual": dec.relative_residual,
            "tolerance": dec.tolerance,
            "psd_margin": dec.psd_margin,
            "iterations": dec.iterations,
        })
    return results, []


def _cmd_analyze_fuchsian(payload: dict, cfg: dict) -> tuple[dict, list[str]]:
    _require_keys(payload, {"schema_version", "points", "group", "degree"}, {"config"})
    pts = _complex_list(payload["points"], "points")
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
    results = asdict(fuchsian.analyze_gamma_sequence(
        pts, gens, degree, word_length,
        sv_cutoff=cfg["sv_cutoff"], riesz_tolerance=cfg["riesz_tolerance"],
        max_elements=cfg["group_max_elements"],
    ))
    return results, list(results.pop("warnings"))


def _cmd_partition(payload: dict, cfg: dict) -> tuple[dict, list[str]]:
    _require_keys(payload, {"schema_version", "points", "kernel", "epsilon"}, {"config"})
    pts = _complex_list(payload["points"], "points")
    spec = _kernel_spec(payload["kernel"], "kernel")
    epsilon = _as_number(payload["epsilon"], "epsilon")
    result = partition.partition_separated(pts, spec, epsilon)
    result = partition.verify_partition(result, spec, cfg["riesz_tolerance"])
    carleson, threshold = result.carleson_constant, cfg["bessel_warn_threshold"]
    warnings = [f"full-set Carleson constant {carleson:.6g} exceeds {threshold:.6g}; the Bessel "
                "hypothesis looks violated at this prefix"] if carleson > threshold else []
    results = {
        "n_points": len(pts),
        "epsilon": result.epsilon,
        "class_count": len(result.classes),
        "classes": [list(idx) for idx in result.class_indices],
        "per_class_lambda_min": list(result.per_class_lambda_min),
        "all_riesz": result.all_riesz,
        "riesz_tolerance": result.tolerance,
        "carleson_constant": carleson,
    }
    return results, warnings


_COMMANDS = {
    "analyze-disk": _cmd_analyze_disk,
    "analyze-polydisc": _cmd_analyze_polydisc,
    "analyze-fuchsian": _cmd_analyze_fuchsian,
    "pick": _cmd_pick,
    "partition": _cmd_partition,
}


def _load_json(path: str) -> tuple[str, object]:
    def reject(constant):
        raise ArgumentError(f"{path}: {constant} is not a finite number")

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    return text, json.loads(text, parse_constant=reject)


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


def _header(command: str | None) -> dict:
    return {"schema_version": SCHEMA_VERSION, "tool": TOOL_NAME, "version": __version__,
            "command": command}


def _error_report(command: str | None, kind: str, message: str) -> str:
    return json.dumps({**_header(command), "error": {"type": kind, "message": message}}, indent=2, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Finite-scale interpolation diagnostics: JSON in, JSON report out.",
    )
    parser.add_argument("command", choices=list(_COMMANDS), help="the analysis to run")
    parser.add_argument("input", help="payload file, or - for standard input")
    parser.add_argument("--config", help="JSON file with config overrides", default=None)
    parser.add_argument("--output", help="write the report to this file", default=None)
    parser.add_argument("--quiet", action="store_true", help="suppress the report on stdout")
    return parser


# The parser of :func:`run`: built on its first call, then kept for the process.
_parser = functools.cache(build_parser)


def _emit(text: str, args, code: int) -> int:
    """Write a report's text and return ``code``; an unwritable output file makes it an input error, exit 2."""
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            code, text = 2, _error_report(args.command, "input", f"{args.output}: {exc}")
    if not args.quiet:
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the reader left: keep the exit code, and flush at exit to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def run(argv=None) -> int:
    """Entry point: returns the process exit code instead of raising."""
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    source = args.input  # the file an input error names
    try:
        text, payload = _load_json(args.input)
        file_cfg = _load_json(source := args.config)[1] if args.config else {}
        cfg = _resolve_config(payload if isinstance(payload, dict) else {}, file_cfg)
        results, warnings = _COMMANDS[args.command](payload, cfg)
        report = {
            **_header(args.command),
            # The payload's bytes as read: surrogateescape gives back stdin's undecodable bytes.
            "input_digest": "sha256:" + hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest(),
            "config": cfg,
            "results": results,
            "warnings": warnings,
            "wall_time_s": time.perf_counter() - start,
        }
        try:
            out = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:  # a non-finite number: name its path
            _check_finite(report["results"])
            raise
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        return _emit(_error_report(args.command, "input", f"{'<stdin>' if source == '-' else source}: {exc}"),
                     args, 2)
    except (ArgumentError, DomainError) as exc:
        return _emit(_error_report(args.command, "validation", str(exc)), args, 2)
    except (NumericError, BudgetError) as exc:
        return _emit(_error_report(args.command, "budget" if isinstance(exc, BudgetError) else "numeric",
                                   str(exc)), args, 3)
    return _emit(out, args, 0)


def main() -> None:
    sys.exit(run())
