"""Output checks that do not use greenlab.

Every kernel the oracle needs is evaluated here with plain numpy from the
benchmark's own copy of the inputs, and every solve is judged by its
fixed-point residual, not by a digest of its bytes, so a faster path that
rounds differently still passes.

An operation's outcome is one of ``OK``, ``KNOWN`` (the recorded defect,
see ``KNOWN_DEFECT``) or ``FAIL``.
"""

from __future__ import annotations

import csv
import json

import numpy as np

OK, KNOWN, FAIL = "ok", "known", "fail"

# The solver stops when sup|T(u) - u| <= tol; the oracle allows twice
# that, relative to the scale of u once u exceeds 1 (so a relative
# stopping rule also passes).
RESIDUAL_FACTOR = 2.0
TOL_GRID = 1e-7
TOL_ATOMIC = 1e-10
ENERGY_RTOL = 1e-9
IBP_MAX_RESIDUAL = 1e-3
FIELD_RTOL = 1e-12
RIESZ_SUBDIV = 16
BLOCK_ROWS = 128

# The grid lower_bound entry solves at the grid default tol 1e-7 and then
# tests u >= G(u^q d omega) at 1e-9 relative slack, so it reports a
# spurious "hypothesis-fail" with margin about -1e-9.  The expected verdict
# is "pass"; the run counts it as a failed operation and marks it KNOWN
# as long as it fails in exactly this way.
KNOWN_DEFECT = ("grid lower_bound: hypothesis-fail at margin ~ -1e-9, because "
                "verify solves at tol 1e-7 but tests the hypothesis at 1e-9 slack")

EXPECTED_VERIFY_NAMES = {"iterated": "iterated", "equivalence": "norm_equivalence",
                         "relation_chain": "relation_chain", "lower_bound": "lower_bound",
                         "hardy": "hardy", "hls": "hls"}


def midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def interval_kernel(x, y=None) -> np.ndarray:
    """Green function of -u'' on (0, 1): x(1-y) for x <= y, symmetric."""
    y = x if y is None else y
    lo = np.minimum(x[:, None], y[None, :])
    hi = np.maximum(x[:, None], y[None, :])
    return lo * (1.0 - hi)


def interval_apply(x, y, v) -> np.ndarray:
    """interval_kernel(x, y) @ v, BLOCK_ROWS rows at a time, so the oracle
    holds O(len(y) * BLOCK_ROWS) memory and the run's peak RSS stays the
    program's."""
    out = np.empty(len(x))
    for i in range(0, len(x), BLOCK_ROWS):
        out[i:i + BLOCK_ROWS] = interval_kernel(x[i:i + BLOCK_ROWS], y) @ v
    return out


def riesz_grid_apply(n: int, alpha: float, v) -> np.ndarray:
    """K @ v for |x - y|^(2 alpha - 1) between cell midpoints, where each
    diagonal entry is the mean over 16 sub-cell midpoints (the singular-cell
    rule); in row blocks, as interval_apply."""
    x = midpoints(n)
    expo = 2.0 * alpha - 1.0
    offsets = np.abs((np.arange(RIESZ_SUBDIV) + 0.5) / RIESZ_SUBDIV - 0.5) / n
    diag = np.mean(offsets ** expo)
    out = np.empty(n)
    for i in range(0, n, BLOCK_ROWS):
        rows = np.arange(i, min(i + BLOCK_ROWS, n))
        dist = np.abs(x[rows, None] - x[None, :])
        dist[rows - i, rows] = 1.0
        k = dist ** expo
        k[rows - i, rows] = diag
        out[rows] = k @ v
    return out


def residual_ok(u, image, tol) -> bool:
    """sup |u - T(u)| within the stated multiple of tol, where ``image`` is
    T(u) = K_sigma (w_sigma u^q) + G mu recomputed by the oracle."""
    u = np.asarray(u, dtype=float)
    if u.size == 0 or not np.all(np.isfinite(u)) or np.any(u <= 0.0):
        return False
    return float(np.max(np.abs(u - image))) <= RESIDUAL_FACTOR * tol * max(1.0, float(u.max()))


def _solve_basics(report: dict) -> bool:
    res = report.get("result", {})
    return bool(res.get("converged") is True and res.get("monotone_ok") is True)


def check_grid_solve(code, report, spec) -> bool:
    """A CLI grid solve: exit 0, converged, monotone, residual of the field."""
    if code != 0 or not _solve_basics(report):
        return False
    sigma = np.asarray(spec["sigma"])
    n = len(sigma)
    u = np.asarray(report["result"]["u"], dtype=float)
    if u.shape != (n,) or np.any(u < 0.0):
        return False
    v = sigma / n * u ** spec["q"]
    if "mu" in spec:
        v = v + np.asarray(spec["mu"]) / n
    if spec["kernel"] == "interval1d":
        x = midpoints(n)
        image = interval_apply(x, x, v)
    else:
        image = riesz_grid_apply(n, spec["alpha"], v)
    return residual_ok(u, image, TOL_GRID)


def check_history_files(report, hist_path, field_path) -> bool:
    """--history writes one CSV row per sweep and the field, value for value."""
    with open(hist_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) - 1 != report["result"]["iterations"]:
        return False
    with open(field_path, newline="") as fh:
        values = np.array([float(r[1]) for r in list(csv.reader(fh))[1:]])
    u = np.asarray(report["result"]["u"], dtype=float)
    return values.shape == u.shape and bool(
        np.all(np.abs(values - u) <= FIELD_RTOL * np.abs(u)))


def check_probe(report) -> bool:
    probe = report.get("minimality_probe") or {}
    return bool(probe.get("probe_converged") is True and probe.get("agrees") is True)


def check_energy(code, report, spec) -> bool:
    """Green energy against a plain sum; the IBP identity within 1e-3."""
    if code != 0:
        return False
    omega = np.asarray(spec["omega"])
    n = len(omega)
    w = omega / n
    x = midpoints(n)
    pot = interval_apply(x, x, w)
    expected = float(np.sum(w * pot ** spec["gamma"]))
    res = report["result"]
    got = res.get("green_energy")
    ibp = res.get("ibp_relative_residual")
    if not isinstance(got, float) or not isinstance(ibp, float):
        return False
    return abs(got - expected) <= ENERGY_RTOL * expected and ibp <= IBP_MAX_RESIDUAL


def check_verify(code, report, kinds) -> list:
    """One outcome per manifest check.  Every check's expected verdict is
    "pass"; the exit code must agree with the verdicts."""
    reports = report.get("reports") if isinstance(report, dict) else None
    if not isinstance(reports, list) or len(reports) != len(kinds):
        return [FAIL] * len(kinds)
    verdicts = [r.get("passed") is True for r in reports]
    if code != (0 if all(verdicts) else 1):
        return [FAIL] * len(kinds)
    out = []
    for kind, r, passed in zip(kinds, reports, verdicts):
        if r.get("check_name") != EXPECTED_VERIFY_NAMES[kind]:
            out.append(FAIL)
        elif passed:
            out.append(OK)
        elif kind == "lower_bound" and _is_known_defect(r):
            out.append(KNOWN)
        else:
            out.append(FAIL)
    return out


def _is_known_defect(r) -> bool:
    margin = r.get("margin")
    return (r.get("details", {}).get("status") == "hypothesis-fail"
            and isinstance(margin, float) and -RESIDUAL_FACTOR * TOL_GRID <= margin < 0.0)


def check_dense_solve(code, report, spec) -> bool:
    """A CLI matrix solve: exit 0, converged, monotone, residual against the
    interval Green function evaluated at the instance's points."""
    if code != 0 or not _solve_basics(report):
        return False
    x = np.asarray(spec["x"])
    u = np.asarray(report["result"]["u"], dtype=float)
    if u.shape != x.shape or np.any(u < 0.0):
        return False
    s_idx = np.asarray(spec["sigma_sites"])
    image = interval_apply(x, x[s_idx], np.asarray(spec["sigma_weights"]) * u[s_idx] ** spec["q"])
    if "mu_sites" in spec:
        image += interval_apply(x, x[spec["mu_sites"]], np.asarray(spec["mu_weights"]))
    return residual_ok(u, image, TOL_ATOMIC)


def check_small_instance(inst, result) -> bool:
    """Converged, monotone, probe agrees, both checks pass, and the residual
    recomputed from the instance matrix."""
    report, probe, iterated, second = result
    if not (report.converged and report.monotone_ok and probe["agrees"]
            and probe["probe_converged"] and iterated.passed and second.passed):
        return False
    g = np.asarray(inst["G"])
    u = np.asarray(report.u_values, dtype=float)
    if u.shape != (len(g),) or np.any(u < 0.0):
        return False
    image = g @ (np.asarray(inst["sigma"]) * u ** inst["q"])
    if inst["mu"] is not None:
        image += g @ np.asarray(inst["mu"])
    return residual_ok(u, image, TOL_ATOMIC)


def load_report(text: str):
    """Parse a strict-JSON report; non-finite floats arrive as strings."""
    obj = json.loads(text)
    return obj if isinstance(obj, dict) else None
