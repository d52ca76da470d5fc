"""Per-layer tracing of the library from outside it.

``Tracer`` wraps the public functions of each layer module and rebinds every
name that refers to them in every loaded ``interp_lab`` module, because
modules import each other's functions by name (``pick`` holds its own
``dykstra_solve``, ``fuchsian`` its own ``normalized_gramian``); patching
only the defining module would miss those calls.  Hot scalar kernel
functions are counted but not timed.  A few scalar helpers called per
matrix entry are left alone so tracing stays cheap.  All other wrapped calls
are spans; a span's self time is its duration minus the time its child
spans cover.  Nothing inside the library is changed; ``uninstall`` restores
every binding.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("kernels", "gramian", "partition", "pick", "sdp", "fuchsian")

# Scalar kernel evaluations: counted, not timed.
COUNTED = {"kernels.eval_kernel", "kernels.inv_kernel_form",
           "kernels.rho_semimetric", "kernels.pseudo_hyperbolic"}

# Called once per matrix entry, group word or Dykstra iteration; wrapping
# them would dominate the overhead and no metric reads them.
UNTRACED = {"kernels.as_disk_point", "kernels.as_poly_point", "kernels.product_kernel",
            "gramian.point_distance", "sdp.project_affine",
            "fuchsian.mobius_apply", "fuchsian.compose"}


def _dykstra_hook(stats, result):
    stats["sdp.dykstra_iterations"] += result.iterations
    stats["sdp.dykstra_feasible"] += bool(result.feasible)


def _group_hook(stats, result):
    stats["fuchsian.group_size"] += result.size


# Extra counters read from return values.
HOOKS = {"sdp.dykstra_solve": _dykstra_hook, "fuchsian.enumerate_group": _group_hook}


class Tracer:
    """Installs counting and timing wrappers around the library's layers.

    ``stats`` maps ``layer.function`` to [calls, total seconds, self
    seconds]; ``edge_calls`` counts calls by (caller span, callee span), so a
    report's Dykstra solves can be split by the constant that asked for them;
    ``extra`` holds counters read from return values.
    """

    def __init__(self, package):
        self.package = package
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.edge_calls = defaultdict(int)
        self.extra = defaultdict(int)
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._saved: list[tuple] = []

    def _targets(self):
        """(qualified name, function) for every wrapped library function."""
        yield "cli.run", self.package.cli.run
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__ and name not in UNTRACED):
                    yield name, fn

    def _counter(self, name, fn):
        stat = self.stats[name]

        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name, fn):
        stack, edges, extra = self._stack, self.edge_calls, self.extra
        stat = self.stats[name]
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                    edges[stack[-1][0], name] += 1
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
            if hook is not None:
                hook(extra, result)
            return result
        return spanned

    def install(self) -> None:
        wrappers = {}
        for name, fn in self._targets():
            wrapper = self._counter(name, fn) if name in COUNTED else self._span(name, fn)
            wrappers[id(fn)] = (fn, wrapper)
        prefix = self.package.__name__
        modules = [m for key, m in sys.modules.items() if key == prefix or key.startswith(prefix + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def bindings(self) -> list[str]:
        """``module.attr`` names currently rebound to wrappers."""
        return sorted(f"{m.__name__}.{a}" for m, a, _ in self._saved)

    def snapshot(self) -> dict:
        """Flat copy of every counter, for per-report differences: keys are
        ("calls" | "seconds", name), ("edge", caller, callee) and ("extra", key)."""
        out = {}
        for name, (calls, seconds, _) in self.stats.items():
            out["calls", name] = calls
            out["seconds", name] = seconds
        out.update((("edge", *key), n) for key, n in self.edge_calls.items())
        out.update((("extra", key), n) for key, n in self.extra.items())
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, for what was traced so far."""
        def c(name):
            return self.stats.get(name, (0, 0.0, 0.0))[0]

        def t(name):
            return self.stats.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return self.stats.get(name, (0, 0.0, 0.0))[2]

        x = self.extra
        iterations = x["sdp.dykstra_iterations"]
        return {
            "cli.self_s": self_s("cli.run"),
            "kernels.eval_calls": sum(c(name) for name in COUNTED),
            "kernels.kernel_matrix_s": t("kernels.kernel_matrix"),
            "kernels.kernel_matrix_calls": c("kernels.kernel_matrix"),
            "gramian.normalized_gramian_s": t("gramian.normalized_gramian"),
            "gramian.weak_separation_s": t("gramian.weak_separation"),
            "gramian.strong_separation_s": t("gramian.strong_separation_disk"),
            "gramian.riesz_bounds_s": t("gramian.riesz_bounds"),
            "gramian.multiplier_distance_s": t("gramian.multiplier_distance"),
            "gramian.multiplier_distance_calls": c("gramian.multiplier_distance"),
            "partition.partition_separated_s": t("partition.partition_separated"),
            "partition.verify_partition_s": t("partition.verify_partition"),
            "pick.condition_a_s": t("pick.condition_a_constant"),
            "pick.condition_b_s": t("pick.condition_b_constant"),
            "pick.agler_feasible_s": t("pick.agler_feasible"),
            "pick.pick_psd_test_s": t("pick.pick_psd_test"),
            "pick.inverse_kernel_stack_s": t("pick.inverse_kernel_stack"),
            "sdp.dykstra_calls": c("sdp.dykstra_solve"),
            "sdp.dykstra_s": t("sdp.dykstra_solve"),
            "sdp.dykstra_iterations": iterations,
            "sdp.s_per_iteration": t("sdp.dykstra_solve") / iterations if iterations else 0.0,
            "sdp.dykstra_feasible_ratio": (x["sdp.dykstra_feasible"] / c("sdp.dykstra_solve")
                                           if c("sdp.dykstra_solve") else 0.0),
            "sdp.project_psd_calls": c("sdp.project_psd"),
            "sdp.project_psd_s": t("sdp.project_psd"),
            "sdp.check_certificate_calls": c("sdp.check_certificate"),
            "fuchsian.enumerate_group_s": t("fuchsian.enumerate_group"),
            "fuchsian.group_size": x["fuchsian.group_size"],
            "fuchsian.orbit_set_s": t("fuchsian.orbit_set"),
            "fuchsian.gamma_kernel_s": t("fuchsian.gamma_kernel"),
            "fuchsian.invariance_residual_s": t("fuchsian.invariance_residual"),
            "fuchsian.self_s": self_s("fuchsian.analyze_gamma_sequence"),
        }
