"""The three workloads: a fixed request list each, and its oracle.

A workload's ``plan`` is the list of requests one repetition sends, in
order, from one caller (closed loop): ``(send, check, operations)``.
``check`` turns a request's output into one outcome per operation (see
``oracle``); a request that raised, or whose output is malformed, fails
all of its operations.  CLI
requests call ``greenlab.cli.main`` in-process; the attribute is looked up
on every call so a traced repetition goes through the wrappers.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import oracle
from oracle import FAIL, OK

PROBE_SCALE = 2.0


def cli_call(greenlab, argv):
    """Run one CLI request; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = greenlab.cli.main(argv)
    return code, out.getvalue()


def _ok(flag: bool) -> list:
    return [OK if flag else FAIL]


def _report(code, text):
    return oracle.load_report(text) if code == 0 and text else None


class Workload:
    min_reps = 3
    input_bytes = 0
    plan: list = []

    def requests(self):
        return [send for send, _, _ in self.plan]

    def reset(self):
        """Remove the previous repetition's output files."""

    def check(self, outputs):
        results = []
        for (_, check, ops), out in zip(self.plan, outputs):
            try:
                results.extend([FAIL] * ops if isinstance(out, BaseException) else check(out))
            except (KeyError, TypeError, ValueError, IndexError):  # malformed output
                results.extend([FAIL] * ops)
        return results


class GridSolve(Workload):
    """Five CLI requests on grid measures: three solves, one energy, one
    seven-check verify manifest (11 operations)."""

    name = "grid-solve"

    def __init__(self, greenlab, workdir: Path):
        ex = json.loads((workdir / "expect.json").read_text())
        self.out_hom = workdir / "out_hom.json"
        files = [workdir / f for f in ("solve_hom.json", "solve_inh.json", "solve_riesz.json",
                                       "energy.json", "manifest.json")]
        self.input_bytes = sum(p.stat().st_size for p in files)
        hom, inh, riesz, energy, manifest = (str(p) for p in files)
        kinds = ex["verify"]["checks"]

        def solve_check(spec, probe=False):
            def check(out):
                rep = _report(*out)
                return _ok(rep is not None and oracle.check_grid_solve(out[0], rep, spec)
                           and (not probe or oracle.check_probe(rep)))
            return check

        def energy_check(out):
            rep = _report(*out)
            return _ok(rep is not None and oracle.check_energy(out[0], rep, ex["energy"]))

        def verify_check(out):
            code, text = out
            return oracle.check_verify(code, oracle.load_report(text), kinds)

        self.plan = [
            (lambda: cli_call(greenlab, ["solve", hom, "--history",
                                         "--out", str(self.out_hom)]),
             self._check_hom(ex["solve_hom"]), 1),
            (lambda: cli_call(greenlab, ["solve", inh, "--probe-scale", str(PROBE_SCALE)]),
             solve_check(ex["solve_inh"], probe=True), 1),
            (lambda: cli_call(greenlab, ["solve", riesz]), solve_check(ex["solve_riesz"]), 1),
            (lambda: cli_call(greenlab, ["energy", energy]), energy_check, 1),
            (lambda: cli_call(greenlab, ["verify", manifest]), verify_check, len(kinds)),
        ]

    def _check_hom(self, spec):
        def check(out):
            code, _ = out
            if code != 0 or not self.out_hom.exists():
                return _ok(False)
            rep = oracle.load_report(self.out_hom.read_text())
            return _ok(rep is not None and oracle.check_grid_solve(code, rep, spec)
                       and oracle.check_history_files(rep, self.out_hom.with_suffix(".history.csv"),
                                                      self.out_hom.with_suffix(".field.csv")))
        return check

    def reset(self):
        for suffix in (".json", ".history.csv", ".field.csv"):
            self.out_hom.with_suffix(suffix).unlink(missing_ok=True)


class DenseReport(Workload):
    """Two CLI solves on inline matrix kernels, reports written with --out."""

    name = "dense-report"

    def __init__(self, greenlab, workdir: Path):
        ex = json.loads((workdir / "expect.json").read_text())
        names = list(ex)  # n=1500 first, as written by inputs.py
        files = [workdir / f"{n}.json" for n in names]
        self.outs = [workdir / f"out_{n}.json" for n in names]
        self.input_bytes = sum(p.stat().st_size for p in files)

        def solve_check(spec, out_path):
            def check(out):
                if out[0] != 0 or not out_path.exists():
                    return _ok(False)
                rep = oracle.load_report(out_path.read_text())
                return _ok(rep is not None and oracle.check_dense_solve(out[0], rep, spec))
            return check

        self.plan = [
            (lambda i=str(i), o=str(o): cli_call(greenlab, ["solve", i, "--out", o]),
             solve_check(ex[n], o), 1)
            for n, i, o in zip(names, files, self.outs)
        ]

    def reset(self):
        for o in self.outs:
            o.unlink(missing_ok=True)


class SmallBatch(Workload):
    """Many small matrix instances through the library API, one request
    (and one operation) per instance."""

    name = "small-batch"
    # at least 1200 requests per run, so that p99 has ten requests beyond it
    min_reps = 4

    def __init__(self, greenlab, workdir: Path):
        self.gl = greenlab
        instances = json.loads((workdir / "instances.json").read_text())["instances"]
        self.plan = []
        for inst in instances:
            arrays = (np.asarray(inst["G"]), np.asarray(inst["sigma"]),
                      None if inst["mu"] is None else np.asarray(inst["mu"]))
            self.plan.append((lambda inst=inst, arrays=arrays: self._run(inst, *arrays),
                              lambda out, inst=inst: _ok(oracle.check_small_instance(inst, out)),
                              1))

    def _run(self, inst, g, w_sigma, w_mu):
        gl = self.gl
        sites = np.arange(inst["n"])
        kernel = gl.Kernel.matrix(g)
        sigma = gl.Measure.atomic(sites, w_sigma)
        mu = None if w_mu is None else gl.Measure.atomic(sites, w_mu)
        problem = gl.Problem(kernel=kernel, sigma=sigma, mu=mu, q=inst["q"],
                             gamma=inst["gamma"])
        report = gl.solve(problem)
        probe = gl.minimality_probe(problem, report, PROBE_SCALE)
        iterated = gl.check_iterated(kernel, sigma, 2.0, problem.h)
        if mu is None:
            second = gl.check_lower_bound(kernel, sigma, problem.q, report.u_on_sigma(),
                                          problem.h)
        else:
            second = gl.check_relation_chain(kernel, sigma, mu, problem.q, problem.gamma,
                                             problem.h)
        return report, probe, iterated, second


WORKLOADS = {w.name: w for w in (GridSolve, DenseReport, SmallBatch)}
