"""Independent checks of CLI reports.

Every reference is rebuilt here from the payload with numpy broadcasting; no
check compares against digits the library printed before.  A check either
holds for the exact answer (an identity, a bound the true value satisfies)
or is skipped where floating point cannot decide it, so accuracy fixes in
the library never count as failures.  ``check`` returns a list of problems;
an empty list means the report passed.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Report

# Absolute tolerance for eigenvalues and semimetrics rebuilt in double
# precision (entrywise differences are ~1e-15, times n for eigenvalues).
EIG_TOL = 1e-8
# Slack on bounds the library certifies only to its solver tolerance.
BOUND_TOL = 1e-6
# Multiplier separation is compared to its closed form only on
# well-conditioned Gramians, as below cond 1e3 the bisection resolves it.
MULTIPLIER_COND_LIMIT = 1e3
MULTIPLIER_TOL = 1e-5
# A verdict is only checked when its deciding eigenvalue is this far from
# the threshold.
VERDICT_BAND = 1e-9


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _points(payload) -> np.ndarray:
    return np.array([_complex(p) for p in payload["points"]])


def _poly_points(payload) -> np.ndarray:
    return np.array([[_complex(c) for c in p] for p in payload["points"]])


def _inverse_kernel(coeffs, z) -> np.ndarray:
    """[1/k(z_i, z_j)] = 1 - sum_k c_k (z_i conj(z_j))^k, by broadcasting."""
    s = z[:, None] * np.conj(z)[None, :]
    acc = np.zeros_like(s)
    for c in reversed(coeffs):
        acc = s * (c + acc)
    return 1.0 - acc


def normalize(k: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.real(np.diagonal(k)))
    return k / np.outer(d, d)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (a + a.conj().T))


def rho_matrix(g: np.ndarray) -> np.ndarray:
    """Pairwise kernel semimetric sqrt(1 - |G_ij|^2) from a normalized Gramian."""
    return np.sqrt(np.clip(1.0 - np.abs(g) ** 2, 0.0, 1.0))


def weak_separation(g: np.ndarray) -> float:
    iu = np.triu_indices(g.shape[0], 1)
    return float(np.min(rho_matrix(g)[iu]))


def strong_separation(z: np.ndarray) -> float:
    """min_j prod_{k != j} |(z_j - z_k) / (1 - conj(z_k) z_j)|, summed in logs."""
    if len(z) == 1:
        return 1.0
    ph = np.abs((z[:, None] - z[None, :]) / (1.0 - np.conj(z)[None, :] * z[:, None]))
    np.fill_diagonal(ph, 1.0)
    return float(np.exp(np.min(np.sum(np.log(ph), axis=1))))


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def _riesz_problems(res: dict, g: np.ndarray, prefix: str = "") -> list[str]:
    w = eigvalsh(g)
    out = []
    if not _close(res["lambda_min"], w[0], EIG_TOL):
        out.append(f"{prefix}lambda_min {res['lambda_min']!r} != {w[0]!r}")
    if not _close(res["lambda_max"], w[-1], EIG_TOL):
        out.append(f"{prefix}lambda_max {res['lambda_max']!r} != {w[-1]!r}")
    if res["carleson_constant"] != res["lambda_max"]:
        out.append(f"{prefix}carleson_constant differs from lambda_max")
    tol = res["riesz_tolerance"]
    if abs(w[0] - tol) > VERDICT_BAND and res["is_riesz"] != bool(w[0] > tol):
        out.append(f"{prefix}is_riesz {res['is_riesz']} but lambda_min {w[0]!r}")
    return out


def check_analyze_disk(payload: dict, report: dict) -> list[str]:
    res = report["results"]
    z = _points(payload)
    n = len(z)
    g = normalize(1.0 / _inverse_kernel(payload["kernel"]["coeffs"], z))
    out = _riesz_problems(res, g)
    if n >= 2 and not _close(res["weak_separation"], weak_separation(g), EIG_TOL):
        out.append(f"weak_separation {res['weak_separation']!r} != {weak_separation(g)!r}")
    strong = strong_separation(z)
    if not abs(res["strong_separation"] - strong) <= 1e-8 * max(strong, 1e-300):
        out.append(f"strong_separation {res['strong_separation']!r} != {strong!r}")
    if n >= 2:
        mult = res["multiplier_separation"]
        per_point = mult["per_point"]
        alpha = report["config"]["multiplier_alpha"]
        if np.linalg.cond(g) <= MULTIPLIER_COND_LIMIT:
            closed = np.minimum(1.0, alpha / np.sqrt(np.real(np.diagonal(np.linalg.inv(g)))))
            bad = [i for i, (a, b) in enumerate(zip(per_point, closed)) if abs(a - b) > MULTIPLIER_TOL]
            if bad:
                out.append(f"multiplier separation at points {bad} differs from the closed form")
        elif not all(0.0 <= d <= 1.0 for d in per_point):
            out.append("multiplier separation outside [0, 1]")
        if len(per_point) != n or mult["min"] != min(per_point):
            out.append("multiplier separation min/per_point inconsistent")
    return out


def check_partition(payload: dict, report: dict) -> list[str]:
    res = report["results"]
    z = _points(payload)
    n = len(z)
    g = normalize(1.0 / _inverse_kernel(payload["kernel"]["coeffs"], z))
    rho = rho_matrix(g)
    eps = payload["epsilon"]
    classes = res["classes"]
    out = []
    flat = sorted(i for cls in classes for i in cls)
    if flat != list(range(n)):
        out.append("classes do not cover every index exactly once")
        return out
    if res["class_count"] != len(classes):
        out.append("class_count differs from the number of classes")
    lams = []
    for k, cls in enumerate(classes):
        idx = np.asarray(cls)
        sub = rho[np.ix_(idx, idx)]
        np.fill_diagonal(sub, 1.0)
        if np.min(sub) < eps - EIG_TOL:
            out.append(f"class {k} has a pair with rho {np.min(sub):.6g} < epsilon {eps}")
        lam = 1.0 if len(cls) == 1 else float(eigvalsh(g[np.ix_(idx, idx)])[0])
        lams.append(lam)
        if not _close(res["per_class_lambda_min"][k], lam, EIG_TOL):
            out.append(f"class {k} lambda_min {res['per_class_lambda_min'][k]!r} != {lam!r}")
    tol = res["riesz_tolerance"]
    if all(abs(lam - tol) > VERDICT_BAND for lam in lams) and res["all_riesz"] != all(lam > tol for lam in lams):
        out.append("all_riesz disagrees with the per-class eigenvalues")
    if not _close(res["carleson_constant"], eigvalsh(g)[-1], EIG_TOL):
        out.append(f"carleson_constant {res['carleson_constant']!r} != {eigvalsh(g)[-1]!r}")
    return out


def _factor_kernels(payload) -> list[np.ndarray]:
    z = _poly_points(payload)
    return [1.0 / _inverse_kernel(spec["coeffs"], z[:, l]) for l, spec in enumerate(payload["kernels"])]


def check_pick(payload: dict, report: dict) -> list[str]:
    res = report["results"]
    factors = _factor_kernels(payload)
    w = np.array([_complex(v) for v in payload["values"]])
    n = len(w)
    target = payload["bound"] ** 2 - np.outer(w, np.conj(w))
    out = []
    if len(factors) == 1:
        p = target * factors[0]
        margin = float(eigvalsh(p)[0])
        scale = max(1.0, float(np.max(np.abs(p))) * n)
        if not _close(res["margin"], margin, 1e-12 * scale + EIG_TOL):
            out.append(f"margin {res['margin']!r} != {margin!r}")
        threshold = -1e-10 * n
        if abs(margin - threshold) > VERDICT_BAND * scale and res["feasible"] != (margin >= threshold):
            out.append(f"verdict {res['feasible']} but Pick matrix bottom eigenvalue {margin!r}")
        return out
    # d >= 2: T ⊘ R_l = T ∘ K_l PSD for one factor is sufficient; T ∘ (prod K_l)
    # PSD is necessary.  Undecided instances get no verdict check.
    product = np.prod(factors, axis=0)
    sufficient = max(float(eigvalsh(target * normalize(k))[0]) for k in factors)
    necessary = float(eigvalsh(target * normalize(product))[0])
    if sufficient > VERDICT_BAND and not res["feasible"]:
        out.append(f"infeasible verdict, but T/R_l is PSD (bottom eigenvalue {sufficient:.3g})")
    if necessary < -VERDICT_BAND and res["feasible"]:
        out.append(f"feasible verdict, but T o K is not PSD (bottom eigenvalue {necessary:.3g})")
    if res["feasible"]:
        tol = report["config"]["sdp_tol"]
        if not (res["affine_residual"] <= tol and res["psd_margin"] >= -tol):
            out.append("feasible verdict without a certificate within sdp_tol")
    return out


def constants_gap(payload: dict, report: dict) -> float:
    """(M - lambda_max(G)) + (lambda_min(G) - N) for the product Gramian G."""
    w = eigvalsh(normalize(np.prod(_factor_kernels(payload), axis=0)))
    res = report["results"]
    return (res["M"] - w[-1]) + (w[0] - res["N"])


def check_analyze_polydisc(payload: dict, report: dict) -> list[str]:
    res = report["results"]
    factors = _factor_kernels(payload)
    w = eigvalsh(normalize(np.prod(factors, axis=0)))
    out = []
    if not _close(res["gramian_lambda_min"], w[0], EIG_TOL):
        out.append(f"gramian_lambda_min {res['gramian_lambda_min']!r} != {w[0]!r}")
    if not _close(res["gramian_lambda_max"], w[-1], EIG_TOL):
        out.append(f"gramian_lambda_max {res['gramian_lambda_max']!r} != {w[-1]!r}")
    # Multiplying a decomposition of M*I - J (or J - N*I) entrywise by the
    # product kernel gives a PSD matrix, so M >= lambda_max(G) and
    # N <= lambda_min(G) for the true constants and any certified bracket end.
    if not res["M"] >= max(1.0, w[-1]) - BOUND_TOL:
        out.append(f"M {res['M']!r} below max(1, lambda_max(G)) = {max(1.0, w[-1])!r}")
    if not res["N"] <= w[0] + BOUND_TOL:
        out.append(f"N {res['N']!r} above lambda_min(G) = {w[0]!r}")
    if not 0.0 <= res["N"] <= 1.0:
        out.append(f"N {res['N']!r} outside [0, 1]")
    inverse = [1.0 / k for k in factors]
    if all(np.allclose(r, inverse[0], rtol=0.0, atol=1e-14) for r in inverse[1:]):
        # Identical slices: the problem collapses to one block, so the
        # constants are the extreme eigenvalues of that slice's Gramian.
        ws = eigvalsh(normalize(factors[0]))
        tol = report["config"]["bisection_tol"] + BOUND_TOL
        if not _close(res["M"], max(1.0, ws[-1]), tol):
            out.append(f"identical slices: M {res['M']!r} != {ws[-1]!r}")
        if not _close(res["N"], min(1.0, ws[0]), tol):
            out.append(f"identical slices: N {res['N']!r} != {ws[0]!r}")
    return out


def _mobius_matrix(gen: dict) -> np.ndarray:
    """z -> e^{i theta}(z - a)/(1 - conj(a) z) as a 2x2 coefficient matrix."""
    e = complex(math.cos(gen["theta"]), math.sin(gen["theta"]))
    a = _complex(gen["a"])
    return np.array([[e, -e * a], [-a.conjugate(), 1.0]])


def _is_schottky(gens: list[dict]) -> bool:
    """Isometric circles of all generators and inverses pairwise disjoint."""
    circles = []
    for m in (_mobius_matrix(g) for g in gens):
        for mat in (m, np.linalg.inv(m)):
            c = mat[1, 0]
            if abs(c) < 1e-12:
                return False
            circles.append((-mat[1, 1] / c, math.sqrt(abs(np.linalg.det(mat))) / abs(c)))
    return all(abs(c1 - c2) > r1 + r2
               for i, (c1, r1) in enumerate(circles) for c2, r2 in circles[i + 1:])


def _reduced_words(gens: list[dict], length: int) -> list[np.ndarray]:
    """Matrices of all reduced words up to ``length`` in a free group."""
    letters = []
    for g in gens:
        m = _mobius_matrix(g)
        letters += [m, np.linalg.inv(m)]
    words = [(np.eye(2, dtype=complex), -1)]
    frontier = words
    for _ in range(length):
        frontier = [(letters[k] @ mat, k) for mat, last in frontier
                    for k in range(len(letters)) if last < 0 or k != last ^ 1]
        words += frontier
    return [mat for mat, _ in words]


def _finite(node) -> bool:
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite(v) for v in node)
    return True


def _unit_diagonal_bounds(res: dict, n: int, prefix: str) -> list[str]:
    """A unit-diagonal PSD Gramian has 0 <= lambda_min <= 1 <= lambda_max <= n."""
    lo, hi = res["lambda_min"], res["lambda_max"]
    if not (-EIG_TOL <= lo <= 1.0 + EIG_TOL and 1.0 - EIG_TOL <= hi <= n + EIG_TOL):
        return [f"{prefix}bounds [{lo!r}, {hi!r}] impossible for a unit-diagonal Gramian of {n}"]
    return []


def check_analyze_fuchsian(payload: dict, report: dict) -> list[str]:
    res = report["results"]
    z = _points(payload)
    n = len(z)
    gens = payload["group"]["generators"]
    length = payload["group"]["max_word_length"]
    degree = payload["degree"]
    out = [] if _finite(res) else ["non-finite value in results"]
    if res["n_points"] != n or res["degree"] != degree:
        out.append("n_points or degree differs from the payload")
    if not 1 <= res["kernel_rank"] <= degree + 1 or len(res["kernel_residuals"]) != res["kernel_rank"]:
        out.append(f"kernel_rank {res['kernel_rank']} inconsistent")
    out += _unit_diagonal_bounds(res["gamma_riesz"], n, "gamma_riesz ")
    out += _unit_diagonal_bounds(res["orbit_riesz"], res["orbit_point_count"], "orbit_riesz ")
    rotation = len(gens) == 1 and gens[0]["a"] == [0.0, 0.0]
    if rotation:
        order = round(2.0 * math.pi / gens[0]["theta"])
        images = [np.diag([np.exp(2j * math.pi * k / order), 1.0]) for k in range(order)]
        rank = degree // order + 1
        if res["group_size"] != order or res["kernel_rank"] != rank:
            out.append(f"rotation of order {order}: group_size {res['group_size']}, "
                       f"kernel_rank {res['kernel_rank']}, expected {order} and {rank}")
        # Exact path: the invariant monomials are z^{k*order}.
        powers = np.arange(0, degree + 1, order)
        v = z[:, None] ** powers[None, :]
        g = normalize(v @ v.conj().T)
        out += _riesz_problems(res["gamma_riesz"], g, "gamma_riesz ")
        if n >= 2 and not _close(res["gamma_weak_separation"], weak_separation(g), EIG_TOL):
            out.append("gamma_weak_separation differs from the invariant-monomial kernel")
        if res["invariance_residual"] > 1e-9:
            out.append(f"invariance_residual {res['invariance_residual']!r} for a rotation")
    elif _is_schottky(gens):
        images = _reduced_words(gens, length)
        if res["group_size"] != 2 * 3 ** length - 1:
            out.append(f"free group: group_size {res['group_size']} != {2 * 3 ** length - 1}")
    else:
        return out + ["workload group is neither a rotation nor Schottky"]
    orbit = np.array([(m[0, 0] * p + m[0, 1]) / (m[1, 0] * p + m[1, 1]) for p in z for m in images])
    if res["orbit_point_count"] != len(orbit):
        out.append(f"orbit_point_count {res['orbit_point_count']} != {len(orbit)}")
        return out
    g = normalize(1.0 / _inverse_kernel([1.0], orbit))
    out += _riesz_problems(res["orbit_riesz"], g, "orbit_riesz ")
    if not _close(res["orbit_weak_separation"], weak_separation(g), EIG_TOL):
        out.append(f"orbit_weak_separation {res['orbit_weak_separation']!r} != {weak_separation(g)!r}")
    strong = strong_separation(orbit)
    if not abs(res["orbit_strong_separation"] - strong) <= 1e-6 * max(strong, 1e-300):
        out.append(f"orbit_strong_separation {res['orbit_strong_separation']!r} != {strong!r}")
    return out


CHECKS = {
    "analyze-disk": check_analyze_disk,
    "partition": check_partition,
    "pick": check_pick,
    "analyze-polydisc": check_analyze_polydisc,
    "analyze-fuchsian": check_analyze_fuchsian,
}


def check(item: Report, code: int, report: dict | None) -> list[str]:
    """Problems with one CLI outcome; empty when the report is correct."""
    if code != 0 or report is None:
        return [f"exit code {code}"]
    if report.get("command") != item.command or "results" not in report:
        return ["report lacks results for its command"]
    return CHECKS[item.command](item.payload, report)
