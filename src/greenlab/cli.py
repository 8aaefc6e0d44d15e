"""Batch front door: solve / energy / verify / exponents on JSON inputs.

Exit codes: 0 success, 1 a check failed or the solver did not converge,
2 malformed input.  Reports are strict JSON (non-finite floats encoded as
strings).  For provenance they embed the resolved configuration: its
scalars as they are, each input array as its shape and SHA-256 digest
(:func:`serialize.echo`).  Reports are byte-identical across runs for the
same input file and flags, except for the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import json.decoder
import json.scanner
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import orjson

from . import verify as verify_mod
from .energy import green_energy, ibp_check
from .extreal import real
from .kernels import INTERVAL, Kernel, resolve_h
from .measures import GRID, Measure
from .serialize import dumps, echo, write_csv, write_field_csv
from .solver import (DEFAULT_MAX_ITER, HISTORY_COLUMNS, Problem, a_priori_check,
                     minimality_probe, solve)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    pass


# orjson reads an integer outside [-2**63, 2**64) as a float.  Items whose
# root sum of squares is below 2**62 are each below 2**63 in magnitude,
# whatever the rounding of math.hypot.  Past that bound all items are
# still read as json reads them when no integer token has 19 or more
# digits (2**63 has 19).
_HYPOT_BOUND = 2.0 ** 62
_LONG_INTEGER = re.compile(r"[-\[, \t\n\r][0-9]{19,}(?![.eE0-9])")


def _parse_array(s_and_end, scan_once):
    """``json.decoder.JSONArray``, but an array of numbers with no array
    inside is read by orjson, which gives the same ints and float bits.

    The slice from the array's ``[`` to the first ``]`` after it goes to
    orjson when no ``[`` lies between the two.  If orjson accepts it, that
    ``]`` closes the array: one inside a string would leave the string
    unterminated.  orjson's list is kept when every item is a number (bools
    included; ``math.hypot`` raises ``TypeError`` on any other item) and
    their root sum of squares is below 2**62 or the slice holds no integer
    token of 19 or more digits.  Everything else is read by ``JSONArray``."""
    text, end = s_and_end
    close = text.find("]", end) + 1  # just past the first "]"; 0 when there is none
    if close and text.find("[", end, close) < 0:
        try:
            values = orjson.loads(text[end - 1:close])  # refuses 1E400, which json reads as inf
            if (math.hypot(*values) < _HYPOT_BOUND
                    or not _LONG_INTEGER.search(text, end - 1, close)):
                return values, close
        except (orjson.JSONDecodeError, TypeError):
            pass
    return json.decoder.JSONArray(s_and_end, scan_once)


def _loads(text: str):
    """What ``json.loads(text)`` returns or raises.  Inner arrays are read
    by :func:`_parse_array`, the rest by Python's own scanner.  A text that
    is not all ASCII goes to ``json.loads`` itself, because that scanner
    reads any Unicode digit as a digit; so does anything the fast reader
    refuses or nests deeper than Python's scanner can, so errors and edge
    cases are json's own."""
    if text.isascii():
        decoder = json.JSONDecoder()
        decoder.parse_array = _parse_array
        decoder.scan_once = json.scanner.py_make_scanner(decoder)  # C's ignores parse_array
        try:
            return decoder.decode(text)
        except (ValueError, RecursionError):
            pass
    return json.loads(text)


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        data = _loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"{path} is nested too deeply to read") from exc
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
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"--tol must be finite and > 0, got {args.tol}")
    if args.max_iter < 1:
        raise InputError(f"--max-iter must be >= 1, got {args.max_iter}")
    if args.probe_scale is not None and not (np.isfinite(args.probe_scale)
                                             and args.probe_scale > 1):
        raise InputError(f"--probe-scale must be finite and > 1, got {args.probe_scale}")
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
        "history": bool(args.history),
        "problem": problem.to_dict(),
    }))
    out["result"] = report.to_dict()
    out["result"]["a_priori"] = (a_priori_check(problem, report)
                                 if report.converged and not problem.mu_is_zero else None)
    if report.converged and args.probe_scale is not None:
        out["minimality_probe"] = minimality_probe(problem, report, args.probe_scale,
                                                   tol=tol, max_iter=args.max_iter)
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
        gamma = real(data["gamma"], "gamma")
    except (KeyError, TypeError, OverflowError) as exc:
        raise InputError(f"energy file has a missing or malformed field: {exc}") from exc
    if kernel.variant == INTERVAL and omega.variant == GRID:
        result = ibp_check(kernel, omega, gamma).to_dict()
    else:
        result = {"gamma": gamma,
                  "green_energy": green_energy(kernel, omega, gamma)}
    out = _base_report("energy", echo({
        "input": args.input,
        "kernel": kernel.to_dict(), "omega": omega.to_dict(), "gamma": gamma,
    }))
    out["result"] = result
    _emit(out, args.out)
    return EXIT_OK


# the reader of each manifest field: its value and its quoted name in,
# what the check takes out; "n", "u" and "phi" are checked where they are used
_READERS = {
    "kernel": lambda value, name: Kernel.from_dict(value),
    **dict.fromkeys(("omega", "sigma", "mu"), lambda value, name: Measure.from_dict(value)),
    **dict.fromkeys(("s", "q", "p", "r", "gamma", "alpha", "beta"),
                    lambda value, name: real(value, name)),
    "h": lambda value, name: real(value, name, least=1),
    **dict.fromkeys(("n", "u", "phi"), lambda value, name: value),
}

# the optional fields: what an entry that leaves one out gets, from the
# fields read before it; None leaves the check's own default
_ABSENT = {
    "h": lambda read: resolve_h(read["kernel"]),  # once: on a matrix it is a WMP scan
    "u": lambda read: None,  # check_lower_bound solves for it
    "phi": None,
}

# each check kind: the verify function it runs, by name so that a wrapper
# patched onto the module sees the call, and the fields it reads, in order
_CHECKS = {
    "iterated": ("check_iterated", ("kernel", "omega", "s", "h")),
    "lower_bound": ("check_lower_bound", ("kernel", "omega", "q", "u", "h")),
    "norm_constant": ("check_norm_constant", ("kernel", "omega", "p", "r")),
    "equivalence": ("check_norm_equivalence", ("kernel", "omega", "p", "r", "h")),
    "relation_chain": ("check_relation_chain", ("kernel", "sigma", "mu", "q", "gamma", "h")),
    "hls": ("check_hls_condition", ("alpha", "n", "beta", "omega")),
    "hardy": ("check_hardy", ("kernel", "omega", "phi")),
}


def _manifest_check(entry: dict):
    kind = entry.get("check")
    if kind is None:
        raise InputError("manifest entry without a 'check' field")
    if not isinstance(kind, str) or kind not in _CHECKS:
        raise InputError(f"unknown check kind {kind!r}")
    check, fields = _CHECKS[kind]
    read = {}
    for name in fields:
        if name in entry:
            read[name] = _READERS[name](entry[name], repr(name))
        elif name not in _ABSENT:
            raise InputError(f"check {kind!r} needs a {name!r}")
        elif _ABSENT[name]:
            read[name] = _ABSENT[name](read)
    return getattr(verify_mod, check)(**read)


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
            reports.append(_manifest_check(entry))
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise InputError(f"bad manifest entry {entry.get('check')!r}: {exc}") from exc
    out = _base_report("verify", {"input": args.input, "n_checks": len(checks)})
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
    out = _base_report("exponents", {"n": args.n, "p": args.p, "q": args.q})
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

    p_solve = sub.add_parser("solve", help="run the monotone iteration on a problem file")
    p_solve.add_argument("input")
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
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
_PARSER = build_parser()  # one per process: parse_args keeps no state between calls


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    raise SystemExit(main())
