"""Batch front door: solve / energy / verify / exponents on JSON inputs.

Exit codes: 0 success, 1 a check failed or the solver did not converge,
2 malformed input.  Reports are strict JSON (non-finite floats encoded as
strings).  For provenance they embed the resolved configuration: its
scalars as they are, each input array as its shape and SHA-256 digest
(:func:`serialize.echo`).  Reports are byte-identical across runs for the
same config and seed, except for the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .energy import green_energy, ibp_check
from .kernels import INTERVAL, Kernel, resolve_h
from .measures import GRID, Field, Measure
from .potentials import potential_values
from .serialize import dumps, echo, write_csv, write_field_csv
from .solver import (DEFAULT_TOL_ATOMIC, HISTORY_COLUMNS, Problem, a_priori_check,
                     minimality_probe, solve)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def _emit(report: dict, out_path):
    text = dumps(report) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _base_report(command: str, config: dict) -> dict:
    return {
        "command": command,
        "config": config,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _cmd_solve(args) -> int:
    data = _load_json(args.input)
    try:
        problem = Problem.from_dict(data)
    except (KeyError, TypeError, OverflowError) as exc:
        raise InputError(f"problem file has a missing or malformed field: {exc}") from exc
    del data  # the parsed input, matrix and all, is not needed past here
    tol = args.tol if args.tol is not None else problem.default_tol()
    report = solve(problem, tol=tol, max_iter=args.max_iter,
                   keep_history=args.history)
    out = _base_report("solve", echo({
        "input": args.input, "tol": tol, "max_iter": args.max_iter,
        "seed": args.seed, "history": bool(args.history),
        "problem": problem.to_dict(),
    }))
    out["result"] = report.to_dict()
    out["result"]["a_priori"] = (a_priori_check(problem, report)
                                 if report.converged and not problem.mu_is_zero else None)
    if report.converged and args.probe_scale is not None:
        out["minimality_probe"] = minimality_probe(problem, report, args.probe_scale,
                                                   tol=tol)
    converged, u, sites, history = (report.converged, report.u_values,
                                    report.workspace.eval_sites, report.history)
    del problem, report  # frees the operators before the report is written
    _emit(out, args.out)
    if args.history and args.out:
        write_csv(Path(args.out).with_suffix(".history.csv"), HISTORY_COLUMNS,
                  ([row[c] for c in HISTORY_COLUMNS] for row in history))
        write_field_csv(Path(args.out).with_suffix(".field.csv"), u, sites)
    return EXIT_OK if converged else EXIT_CHECK_FAILED


def _cmd_energy(args) -> int:
    data = _load_json(args.input)
    try:
        kernel = Kernel.from_dict(data["kernel"])
        omega = Measure.from_dict(data["omega"])
        gamma = float(data["gamma"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise InputError(f"energy file has a missing or malformed field: {exc}") from exc
    if kernel.variant == INTERVAL and omega.variant == GRID:
        result = ibp_check(kernel, omega, gamma).to_dict()
    else:
        result = {"gamma": gamma,
                  "green_energy": green_energy(kernel, omega, gamma)}
    out = _base_report("energy", echo({
        "input": args.input, "seed": args.seed,
        "kernel": kernel.to_dict(), "omega": omega.to_dict(), "gamma": gamma,
    }))
    out["result"] = result
    _emit(out, args.out)
    return EXIT_OK


def _manifest_check(entry: dict, seed: int):
    kind = entry.get("check")
    if kind is None:
        raise InputError("manifest entry without a 'check' field")
    entry_seed = int(entry.get("seed", seed))
    kernel = Kernel.from_dict(entry["kernel"]) if "kernel" in entry else None

    def measure(key):
        if key not in entry:
            raise InputError(f"check {kind!r} needs a {key!r} measure")
        return Measure.from_dict(entry[key])

    def need_h():
        return float(entry["h"]) if "h" in entry else resolve_h(kernel)

    if kind == "iterated":
        return verify_mod.check_iterated(kernel, measure("omega"),
                                         float(entry["s"]), need_h())
    if kind == "lower_bound":
        omega = measure("omega")
        q = float(entry["q"])
        h = need_h()  # once: on a matrix kernel it is the 64-probe WMP scan
        if "u" in entry:
            u = Field(omega, entry["u"])
        else:
            problem = Problem(kernel=kernel, sigma=omega, q=q,
                              gamma=float(entry.get("gamma", 1.0)), h=h)
            # solved below the hypothesis slack of 1e-9: the monotone iterate
            # is a sub-solution, short of u >= G(u^q d omega) by about tol
            u = solve(problem, tol=DEFAULT_TOL_ATOMIC).u_on_sigma()
        return verify_mod.check_lower_bound(kernel, omega, q, u, h)
    if kind == "norm_constant":
        c = verify_mod.estimate_norm_constant(
            kernel, measure("omega"), float(entry["p"]), float(entry["r"]),
            samples=int(entry.get("samples", 200)), seed=entry_seed)
        return verify_mod.VerifyReport(
            "norm_constant", verify_mod._digest_inputs(entry=entry),
            c, c, c, True, 0.0, {"status": "estimated", "seed": entry_seed})
    if kind == "equivalence":
        return verify_mod.check_norm_equivalence(
            kernel, measure("omega"), float(entry["p"]), float(entry["r"]),
            samples=int(entry.get("samples", 200)), seed=entry_seed,
            h=float(entry["h"]) if "h" in entry else None)
    if kind == "relation_chain":
        return verify_mod.check_relation_chain(
            kernel, measure("sigma"), measure("mu"), float(entry["q"]),
            float(entry["gamma"]), need_h())
    if kind == "hls":
        return verify_mod.check_hls_condition(
            float(entry["alpha"]), int(entry["n"]), float(entry["beta"]),
            measure("omega"))
    if kind == "hardy":
        omega = measure("omega")
        u = Field(omega, potential_values(kernel, omega, omega.midpoints))
        phi_spec = entry.get("phi", "sin_pi")
        if phi_spec == "sin_pi":
            phi = Field(omega, np.sin(np.pi * omega.midpoints))
        elif phi_spec == "potential":
            phi = Field(omega, u.values.copy())
        else:
            phi = Field(omega, phi_spec)
        ratios = verify_mod.check_hardy(u, omega, phi)
        ok = (ratios["zero_denominator"]
              or (ratios["ratio_a"] < float("inf") and ratios["ratio_b"] < float("inf")))
        return verify_mod.VerifyReport(
            "hardy",
            verify_mod._digest_inputs(check="hardy", omega=omega, phi=phi_spec),
            ratios["ratio_a"], ratios["ratio_b"], 0.0, bool(ok), 0.0,
            {"status": "checked", **ratios})
    raise InputError(f"unknown check kind {kind!r}")


def _cmd_verify(args) -> int:
    data = _load_json(args.input)
    checks = data.get("checks")
    if not isinstance(checks, list):
        raise InputError("manifest must contain a 'checks' list")
    reports = []
    for entry in checks:
        if not isinstance(entry, dict):
            raise InputError(f"manifest entries must be objects, got {type(entry).__name__}")
        try:
            reports.append(_manifest_check(entry, args.seed))
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise InputError(f"bad manifest entry {entry.get('check')!r}: {exc}") from exc
    out = _base_report("verify", {
        "input": args.input, "seed": args.seed, "n_checks": len(checks),
    })
    out["reports"] = [r.to_dict() for r in reports]
    _emit(out, args.out)
    width = max((len(r.check_name) for r in reports), default=10)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        line = (f"{status}  {r.check_name:<{width}}  digest={r.instance_digest}"
                f"  margin={r.margin:.3g}")
        print(line, file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _cmd_exponents(args) -> int:
    try:
        table = verify_mod.exponent_table(args.n, args.p, args.q)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out = _base_report("exponents", {"n": args.n, "p": args.p, "q": args.q,
                                     "seed": args.seed})
    out["result"] = table
    _emit(out, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenlab",
        description="solve sublinear Green-potential equations and verify their inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--seed", type=int, default=0)

    p_solve = sub.add_parser("solve", help="run the monotone iteration on a problem file")
    p_solve.add_argument("input")
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--max-iter", type=int, default=10_000)
    p_solve.add_argument("--history", action="store_true",
                         help="record per-iteration norms (CSV next to --out)")
    p_solve.add_argument("--probe-scale", type=float, default=None,
                         help="also restart from this multiple of the solution")
    common(p_solve)

    p_energy = sub.add_parser("energy", help="energies and the IBP identity")
    p_energy.add_argument("input")
    common(p_energy)

    p_verify = sub.add_parser("verify", help="run a manifest of checks")
    p_verify.add_argument("input")
    common(p_verify)

    p_exp = sub.add_parser("exponents", help="exponent table for given (n, p, q)")
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--p", type=float, required=True)
    p_exp.add_argument("--q", type=float, required=True)
    common(p_exp)
    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "energy": _cmd_energy,
    "verify": _cmd_verify,
    "exponents": _cmd_exponents,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    raise SystemExit(main())
