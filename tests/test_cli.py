import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import greenlab
from greenlab import Kernel, Measure, Problem, a_priori_check, potential, solve
from greenlab.cli import main
from greenlab.serialize import dumps, jsonable

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PROBLEM = {
    "kernel": {"variant": "matrix", "values": [[1.0]]},
    "sigma": {"variant": "atomic", "sites": [0], "weights": [1.0]},
    "mu": {"variant": "atomic", "sites": [0], "weights": [1.0]},
    "q": 0.5,
    "gamma": 1.0,
}


# interval kernel, sigma and mu on one 5-cell grid: every writer of ``solve
# --history --out`` has something to say (history rows, a priori, norms)
GRID_PROBLEM = {
    "kernel": {"variant": "interval1d"},
    "sigma": {"variant": "grid", "n_cells": 5, "values": [1.0, 0.5, 2.0, 1.5, 0.25]},
    "mu": {"variant": "grid", "n_cells": 5, "values": [0.5, 1.0, 0.0, 2.0, 1.0]},
    "q": 0.5,
    "gamma": 0.75,
}


# a 1-d Riesz kernel on a 4-cell grid, homogeneous: solved on the FFT path
RIESZ_GRID_PROBLEM = {
    "kernel": {"variant": "riesz", "alpha": 0.25, "dim": 1},
    "sigma": {"variant": "grid", "n_cells": 4, "values": [1.0, 1.0, 1.0, 1.0]},
    "q": 0.5,
}


# one small manifest entry per check kind
FUZZ_MANIFEST_ENTRIES = {
    "iterated": {"check": "iterated", "kernel": {"variant": "matrix", "values": [[2, 1], [1, 2]]},
                 "omega": {"variant": "atomic", "sites": [0, 1], "weights": [1, 1]}, "s": 2.0},
    "lower_bound": {"check": "lower_bound", "kernel": {"variant": "matrix", "values": [[2.0]]},
                    "omega": {"variant": "atomic", "sites": [0], "weights": [1.0]}, "q": 0.5,
                    "h": 1.0},
    "norm_constant": {"check": "norm_constant",
                      "kernel": {"variant": "matrix", "values": [[2, 1], [1, 2]]},
                      "omega": {"variant": "atomic", "sites": [0, 1], "weights": [1, 1]},
                      "p": 3.0, "r": 1.5},
    "equivalence": {"check": "equivalence",
                    "kernel": {"variant": "matrix", "values": [[2, 1], [1, 2]]},
                    "omega": {"variant": "atomic", "sites": [0, 1], "weights": [1, 1]},
                    "p": 3.0, "r": 1.5},
    "relation_chain": {"check": "relation_chain",
                       "kernel": {"variant": "matrix", "values": [[1.0]]},
                       "sigma": {"variant": "atomic", "sites": [0], "weights": [1.0]},
                       "mu": {"variant": "atomic", "sites": [0], "weights": [1.0]},
                       "q": 0.5, "gamma": 1.0},
    "hls": {"check": "hls", "alpha": 0.25, "n": 1, "beta": 1.0,
            "omega": {"variant": "grid", "n_cells": 4, "values": [1.0, 1.0, 1.0, 1.0]}},
    # 32 cells: on fewer, sin(pi x) is too far from 0 in the end cells and
    # check_hardy refuses the entry before it runs
    "hardy": {"check": "hardy", "kernel": {"variant": "interval1d"},
              "omega": {"variant": "grid", "n_cells": 32, "values": [1.0] * 32},
              "phi": "sin_pi"},
}


# a homogeneous lower_bound entry on a 4-cell interval grid
LOWER_BOUND_GRID_ENTRY = {
    "check": "lower_bound", "kernel": {"variant": "interval1d"},
    "omega": {"variant": "grid", "n_cells": 4, "values": [1.0, 1.0, 1.0, 1.0]}, "q": 0.5,
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def load_report(path):
    return json.loads(open(path).read())


def echoed(array):
    """How a report names an input array: its shape and the SHA-256 of its float64 bytes."""
    values = np.asarray(array, dtype=float)
    return {"shape": list(values.shape), "sha256": hashlib.sha256(values.tobytes()).hexdigest()}


def strip_timestamp(text):
    return re.sub(r'^\s*"timestamp": .*$', "", text, flags=re.M)


def matrix_problem(n, seed=0):
    rng = np.random.default_rng(seed)
    return {"kernel": {"variant": "matrix", "values": rng.uniform(0.1, 1.0, (n, n)).tolist()},
            "sigma": {"variant": "atomic", "sites": list(range(n)),
                      "weights": rng.uniform(0.0, 1.0 / n, n).tolist()},
            "mu": {"variant": "atomic", "sites": list(range(0, n, 2)),
                   "weights": rng.uniform(0.0, 1.0, len(range(0, n, 2))).tolist()},
            "q": 0.5, "gamma": 0.75}


class TestSolve:
    def test_golden_scalar(self, tmp_path, capsys):
        inp = write(tmp_path, "p.json", GOLDEN_PROBLEM)
        out = str(tmp_path / "report.json")
        assert main(["solve", inp, "--out", out]) == 0
        rep = load_report(out)
        assert rep["result"]["converged"] is True
        assert rep["result"]["u"][0] == pytest.approx((3 + np.sqrt(5)) / 2, abs=1e-9)
        assert rep["config"]["problem"]["q"] == 0.5
        # mu != 0: the a priori bound is reported, and nothing read h
        assert rep["result"]["a_priori"]["satisfied"] is True
        assert rep["config"]["problem"]["h"] is None

    def test_homogeneous_file(self, tmp_path):
        problem = {
            "kernel": {"variant": "matrix", "values": [[2.0]]},
            "sigma": {"variant": "atomic", "sites": [0], "weights": [3.0]},
            "q": 0.5,
        }
        inp = write(tmp_path, "p.json", problem)
        out = str(tmp_path / "r.json")
        assert main(["solve", inp, "--out", out]) == 0
        rep = load_report(out)
        assert rep["result"]["u"][0] == pytest.approx(36.0, abs=1e-9)
        # mu = 0: no a priori bound; h is the one the start used
        assert rep["result"]["a_priori"] is None
        assert rep["config"]["problem"]["h"] == 1.0

    def test_zero_diagonal_matrix(self, tmp_path, capsys):
        # the WMP scan is undefined on a zero diagonal, and only the
        # homogeneous start needs h
        both = {"variant": "atomic", "sites": [0, 1], "weights": [1.0, 1.0]}
        problem = {"kernel": {"variant": "matrix", "values": [[0.0, 1.0], [1.0, 0.0]]},
                   "sigma": both, "mu": both, "q": 0.5}
        out = str(tmp_path / "r.json")
        assert main(["solve", write(tmp_path, "inh.json", problem), "--out", out]) == 0
        assert load_report(out)["result"]["u"] == pytest.approx([(3 + np.sqrt(5)) / 2] * 2,
                                                               abs=1e-9)
        del problem["mu"]
        assert main(["solve", write(tmp_path, "hom.json", problem)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: WMP scan undefined") and len(err.splitlines()) == 1

    def test_deterministic_modulo_timestamp(self, tmp_path):
        problem = {"kernel": {"variant": "matrix",
                              "values": [[2.0, 0.5, 0.2], [0.4, 1.5, 0.3], [0.1, 0.6, 1.8]]},
                   "sigma": {"variant": "atomic", "sites": [0, 1, 2], "weights": [1.0, 0.5, 2.0]},
                   "mu": {"variant": "atomic", "sites": [2, 0], "weights": [0.3, 0.7]},
                   "q": 0.5, "gamma": 0.75}
        inp = write(tmp_path, "p.json", problem)
        texts = []
        for name in ("r1", "r2"):
            out = tmp_path / f"{name}.json"
            assert main(["solve", inp, "--history", "--probe-scale", "2.0",
                         "--out", str(out)]) == 0
            texts.append([out.read_text()] + [out.with_suffix(suffix).read_text()
                                              for suffix in (".history.csv", ".field.csv")])
        (t1, *csv1), (t2, *csv2) = texts
        assert t1 != t2  # the timestamps differ ...
        # ... and nothing else does
        assert strip_timestamp(t1) == strip_timestamp(t2) and csv1 == csv2
        rep = json.loads(t1)
        assert rep["result"]["a_priori"]["satisfied"] and rep["minimality_probe"]["agrees"]

    def test_config_echoes_arrays_by_shape_and_digest(self, tmp_path):
        problem = matrix_problem(5)
        out = str(tmp_path / "r.json")
        assert main(["solve", write(tmp_path, "p.json", problem), "--out", out]) == 0
        config = load_report(out)["config"]["problem"]
        assert config["kernel"] == {"variant": "matrix",
                                    "values": echoed(problem["kernel"]["values"])}
        for key in ("sigma", "mu"):
            assert config[key] == {"variant": "atomic",
                                   "sites": echoed(problem[key]["sites"]),
                                   "weights": echoed(problem[key]["weights"])}
        assert config["kernel"]["values"]["shape"] == [5, 5]
        assert (config["q"], config["gamma"], config["h"]) == (0.5, 0.75, None)

    def test_result_is_the_solve_report(self, tmp_path):
        # the echo moves no result field: ``result`` is the solver's own report
        payload = matrix_problem(6, seed=3)
        out = str(tmp_path / "r.json")
        assert main(["solve", write(tmp_path, "p.json", payload), "--out", out]) == 0
        problem = Problem.from_dict(payload)
        report = solve(problem, tol=problem.default_tol())
        expected = jsonable(report.to_dict())
        expected["a_priori"] = jsonable(a_priori_check(problem, report))
        assert load_report(out)["result"] == expected

    def test_report_size_is_linear_in_sites(self, tmp_path):
        n = 400
        out = tmp_path / "r.json"
        assert main(["solve", write(tmp_path, "p.json", matrix_problem(n)),
                     "--out", str(out)]) == 0
        assert len(out.read_text()) < 100 * n

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kernel": ???}')
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: malformed JSON in {path} at line 1, column 12: Expecting value\n"

    def test_deeply_nested_input_is_input_error(self, tmp_path, capsys):
        # json.dumps cannot write this: it recurses as deep as the reader
        path = tmp_path / "deep.json"
        path.write_text('{"kernel": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path} is nested too deeply to read\n"

    def test_unknown_kernel_variant(self, tmp_path, capsys):
        bad = dict(GOLDEN_PROBLEM, kernel={"variant": "sphere"})
        assert main(["solve", write(tmp_path, "p.json", bad)]) == 2
        assert "variant" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/problem.json"]) == 2

    def test_undecodable_file_names_its_path(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read {path}: ")
        assert "codec can't decode byte 0xff" in err

    @pytest.mark.parametrize("mu", [{}, [], 0, False, ""],
                             ids=["object", "list", "zero", "false", "string"])
    def test_a_falsy_mu_is_not_read_as_none(self, tmp_path, capsys, mu):
        # only an absent or null mu is no mu; any other value is a measure or exits 2
        assert main(["solve", write(tmp_path, "p.json", {**GOLDEN_PROBLEM, "mu": mu})]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "measure" in err

    def test_nonconvergence_exits_one(self, tmp_path):
        problem = {
            "kernel": {"variant": "riesz", "alpha": 1.0, "dim": 3},
            "sigma": {"variant": "atomic", "sites": [[0.0, 0.0, 0.0]],
                      "weights": [1.0]},
            "q": 0.5,
        }
        inp = write(tmp_path, "p.json", problem)
        out = str(tmp_path / "r.json")
        assert main(["solve", inp, "--out", out]) == 1
        assert "necessary condition" in load_report(out)["result"]["diagnostic"]

    def test_float_range_exit(self, tmp_path):
        # a finite problem whose solution (about 1e310) the floats cannot hold
        problem = {"kernel": {"variant": "matrix", "values": [[1e31]]},
                   "sigma": GOLDEN_PROBLEM["sigma"], "mu": GOLDEN_PROBLEM["mu"],
                   "q": 0.9, "gamma": 0.05}
        out = str(tmp_path / "r.json")
        assert main(["solve", write(tmp_path, "p.json", problem), "--out", out]) == 1
        result = load_report(out)["result"]
        assert result["diagnostic"] == "float range exceeded: iterates unbounded"
        assert result["a_priori"] is None and result["iterations"] == 32

    def test_overflowing_g_mu_is_float_range(self, tmp_path):
        # G mu = 1e200 * 1e200 overflows on a finite kernel: no potential
        # diverges, so no necessary condition is violated
        problem = {"kernel": {"variant": "matrix", "values": [[1e200]]},
                   "sigma": {"variant": "atomic", "sites": [0], "weights": [1.0]},
                   "mu": {"variant": "atomic", "sites": [0], "weights": [1e200]},
                   "q": 0.5}
        out = str(tmp_path / "r.json")
        assert main(["solve", write(tmp_path, "p.json", problem), "--out", out]) == 1
        result = load_report(out)["result"]
        assert result["diagnostic"] == "float range exceeded: I_sigma or G mu is infinite"

    def test_a_priori_bound_is_not_satisfied_by_overflow(self, tmp_path):
        # u is about 1e290 and its L^0.95(sigma) norm overflows, as does the
        # bound: inf <= inf is no evidence
        problem = {"kernel": {"variant": "matrix", "values": [[1e9]]},
                   "sigma": {"variant": "atomic", "sites": [0], "weights": [1e20]},
                   "mu": {"variant": "atomic", "sites": [0], "weights": [1.0]},
                   "q": 0.9, "gamma": 0.05}
        out = str(tmp_path / "r.json")
        assert main(["solve", write(tmp_path, "p.json", problem), "--out", out]) == 0
        result = load_report(out)["result"]
        assert result["converged"] is True
        assert result["a_priori"]["norm_value"] == "inf"
        assert result["a_priori"]["satisfied"] is False

    def test_history_csv(self, tmp_path):
        inp = write(tmp_path, "p.json", GOLDEN_PROBLEM)
        out = str(tmp_path / "r.json")
        assert main(["solve", inp, "--history", "--out", out]) == 0
        rep = load_report(out)
        assert len(rep["result"]["history"]) == rep["result"]["iterations"]
        assert "norm_sigma" in rep["result"]["history"][0]
        csv_text = (tmp_path / "r.history.csv").read_text()
        assert csv_text.startswith("iteration,sup_change,sup_value,norm_sigma")
        field_text = (tmp_path / "r.field.csv").read_text()
        assert field_text.startswith("site,value")

    def test_history_csvs_of_a_blocked_solve(self, tmp_path):
        # infinite I_sigma: no sweep, so no history rows, and u = G sigma = inf
        problem = {"kernel": {"variant": "riesz", "alpha": 1.0, "dim": 3},
                   "sigma": {"variant": "atomic", "sites": [[0, 0, 0], [1, 0, 0]],
                             "weights": [1.0, 1.0]}, "q": 0.5}
        out = str(tmp_path / "r.json")
        assert main(["solve", write(tmp_path, "p.json", problem), "--history",
                     "--out", out]) == 1
        assert (tmp_path / "r.history.csv").read_text().splitlines() == [
            "iteration,sup_change,sup_value,norm_sigma"]
        assert (tmp_path / "r.field.csv").read_text().splitlines() == [
            "site,value", '"[0.0, 0.0, 0.0]",inf', '"[1.0, 0.0, 0.0]",inf']

    def test_history_out_bytes_are_pinned(self, tmp_path, monkeypatch):
        # the exact bytes of the report (timestamp stripped) and both CSVs,
        # line endings included; the input is named by a relative path
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p.json", GRID_PROBLEM)
        assert main(["solve", "p.json", "--history", "--out", "r.json"]) == 0
        for suffix in (".json", ".history.csv", ".field.csv"):
            got = (tmp_path / f"r{suffix}").read_bytes()
            if suffix == ".json":
                got = strip_timestamp(got.decode()).encode()
            assert got == (GOLDEN_DIR / f"interval_mu{suffix}").read_bytes(), suffix

    def test_probe_scale(self, tmp_path):
        inp = write(tmp_path, "p.json", GOLDEN_PROBLEM)
        out = str(tmp_path / "r.json")
        assert main(["solve", inp, "--probe-scale", "3.0", "--out", out]) == 0
        assert load_report(out)["minimality_probe"]["agrees"] is True


class TestEnergy:
    def test_interval_ibp(self, tmp_path):
        payload = {
            "kernel": {"variant": "interval1d"},
            "omega": {"variant": "grid", "n_cells": 500, "values": [1.0] * 500},
            "gamma": 1.0,
        }
        inp = write(tmp_path, "e.json", payload)
        out = str(tmp_path / "r.json")
        assert main(["energy", inp, "--out", out]) == 0
        res = load_report(out)["result"]
        assert res["green_energy"] == pytest.approx(1 / 12, rel=1e-3)
        assert res["ibp_relative_residual"] <= 1e-2

    def test_atomic_energy_only(self, tmp_path):
        payload = {
            "kernel": {"variant": "matrix", "values": [[2, 1], [1, 2]]},
            "omega": {"variant": "atomic", "sites": [0, 1], "weights": [1, 1]},
            "gamma": 1.0,
        }
        inp = write(tmp_path, "e.json", payload)
        out = str(tmp_path / "r.json")
        assert main(["energy", inp, "--out", out]) == 0
        assert load_report(out)["result"]["green_energy"] == 6.0

    @pytest.mark.parametrize("omega", [
        {"variant": "atomic", "sites": [0, 1], "weights": [1, 0.5]},
        {"variant": "grid", "n_cells": 3, "values": [1, 2.5, 0]},
    ], ids=["atomic", "grid"])
    def test_config_echoes_omega_by_shape_and_digest(self, tmp_path, omega):
        kernel = ({"variant": "matrix", "values": [[2, 1], [1, 2]]}
                  if omega["variant"] == "atomic" else {"variant": "interval1d"})
        out = str(tmp_path / "r.json")
        payload = {"kernel": kernel, "omega": omega, "gamma": 1.0}
        assert main(["energy", write(tmp_path, "e.json", payload), "--out", out]) == 0
        config = load_report(out)["config"]
        assert config["omega"] == {key: echoed(value) if isinstance(value, list) else value
                                   for key, value in omega.items()}
        if "values" in kernel:
            assert config["kernel"]["values"] == echoed(kernel["values"])

    def test_deterministic_modulo_timestamp(self, tmp_path):
        payload = {"kernel": {"variant": "interval1d"},
                   "omega": {"variant": "grid", "n_cells": 50,
                             "values": np.linspace(0.5, 1.5, 50).tolist()},
                   "gamma": 2.0}
        inp = write(tmp_path, "e.json", payload)
        texts = []
        for name in ("r1", "r2"):
            out = tmp_path / f"{name}.json"
            assert main(["energy", inp, "--out", str(out)]) == 0
            texts.append(out.read_text())
        t1, t2 = texts
        assert t1 != t2  # the timestamps differ ...
        assert strip_timestamp(t1) == strip_timestamp(t2)  # ... and nothing else does


class TestVerify:
    def manifest(self):
        return {
            "checks": [
                {"check": "iterated",
                 "kernel": {"variant": "matrix", "values": [[2, 1], [1, 2]]},
                 "omega": {"variant": "atomic", "sites": [0, 1], "weights": [1, 1]},
                 "s": 2.0},
                {"check": "norm_constant",
                 "kernel": {"variant": "matrix", "values": [[2, 1], [1, 2]]},
                 "omega": {"variant": "atomic", "sites": [0, 1], "weights": [1, 1]},
                 "p": 3.0, "r": 1.5},
                {"check": "relation_chain",
                 "kernel": {"variant": "matrix", "values": [[1.0]]},
                 "sigma": {"variant": "atomic", "sites": [0], "weights": [1.0]},
                 "mu": {"variant": "atomic", "sites": [0], "weights": [1.0]},
                 "q": 0.5, "gamma": 1.0},
            ]
        }

    def test_all_pass(self, tmp_path, capsys):
        inp = write(tmp_path, "m.json", self.manifest())
        out = str(tmp_path / "r.json")
        assert main(["verify", inp, "--out", out]) == 0
        rep = load_report(out)
        assert all(r["passed"] for r in rep["reports"])
        summary = capsys.readouterr().err
        assert summary.count("PASS") == 3

    def test_underdeclared_h_fails_with_exit_one(self, tmp_path):
        manifest = {
            "checks": [
                {"check": "iterated",
                 "kernel": {"variant": "matrix", "values": [[1, 10], [10, 1]],
                            "declared_h": 1.0},
                 "omega": {"variant": "atomic", "sites": [0], "weights": [1.0]},
                 "s": 2.0},
            ]
        }
        inp = write(tmp_path, "m.json", manifest)
        out = str(tmp_path / "r.json")
        assert main(["verify", inp, "--out", out]) == 1
        rep = load_report(out)
        assert rep["reports"][0]["passed"] is False

    def test_report_bytes_are_pinned(self, tmp_path, monkeypatch):
        # a 4^3-lattice hls entry (FFT path), a Riesz-grid iterated entry and
        # an interval relation_chain entry: the exact report bytes, timestamp
        # stripped, and the stderr table; the input is named by a relative path
        monkeypatch.chdir(tmp_path)
        name = "verify_lattice.manifest.json"
        (tmp_path / name).write_bytes((GOLDEN_DIR / name).read_bytes())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["verify", name, "--out", "r.json"]) == 0
        got = strip_timestamp((tmp_path / "r.json").read_text()).encode()
        assert got == (GOLDEN_DIR / "verify_lattice.json").read_bytes()
        assert err.getvalue().splitlines() == [
            "PASS  hls             digest=43c0fc3e5e14  margin=0.2",
            "PASS  iterated        digest=deaa26228fc7  margin=0.461",
            "PASS  relation_chain  digest=9da0c0106f27  margin=0.104"]

    def test_every_kind_report_bytes_are_pinned(self, tmp_path, monkeypatch):
        # every check kind: lower_bound on a given u, solved on a grid and on
        # a matrix, and a failed Riesz-atom solve; norm_constant and
        # equivalence, whose entries still carry the retired samples and
        # seed fields; equivalence with and without h; hardy on each kind
        # of phi; one iterated, relation_chain and hls entry
        monkeypatch.chdir(tmp_path)
        name = "verify_kinds.manifest.json"
        (tmp_path / name).write_bytes((GOLDEN_DIR / name).read_bytes())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["verify", name, "--out", "r.json"]) == 1
        got = strip_timestamp((tmp_path / "r.json").read_text()).encode()
        assert got == (GOLDEN_DIR / "verify_kinds.json").read_bytes()
        assert err.getvalue().splitlines() == [
            "PASS  lower_bound       digest=1ce80252a253  margin=27",
            "PASS  lower_bound       digest=753a5d6f1b51  margin=0.00415",
            "PASS  lower_bound       digest=7d39c022fb85  margin=1.38",
            "FAIL  lower_bound       digest=c502a3e656bd  margin=0",
            "PASS  norm_constant     digest=354c766321ee  margin=0",
            "PASS  norm_constant     digest=489093d3340c  margin=0",
            "PASS  norm_equivalence  digest=8460246c4924  margin=0.0692",
            "PASS  norm_equivalence  digest=484542ab1cc1  margin=1.89",
            "PASS  hardy             digest=2cf2e24c8b42  margin=0",
            "PASS  hardy             digest=6376bb2e4911  margin=0",
            "PASS  hardy             digest=9c51d6185df0  margin=0",
            "PASS  hardy             digest=1e581bc194c4  margin=0",
            "PASS  iterated          digest=7fc2d1b1a989  margin=0.894",
            "PASS  relation_chain    digest=06e4fc3c094d  margin=0.144",
            "PASS  hls               digest=51b27c766170  margin=0.143"]

    def test_deterministic_modulo_timestamp(self, tmp_path):
        inp = write(tmp_path, "m.json", self.manifest())
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["verify", inp, "--out", out1]) == 0
        assert main(["verify", inp, "--out", out2]) == 0
        t1, t2 = open(out1).read(), open(out2).read()
        assert t1 != t2  # the timestamps differ ...
        assert strip_timestamp(t1) == strip_timestamp(t2)  # ... and nothing else does

    def test_lower_bound_with_explicit_field(self, tmp_path):
        manifest = {
            "checks": [
                {"check": "lower_bound",
                 "kernel": {"variant": "matrix", "values": [[2.0]]},
                 "omega": {"variant": "atomic", "sites": [0], "weights": [3.0]},
                 "q": 0.5, "u": [36.0]},
            ]
        }
        inp = write(tmp_path, "m.json", manifest)
        out = str(tmp_path / "r.json")
        assert main(["verify", inp, "--out", out]) == 0
        assert load_report(out)["reports"][0]["passed"] is True

    def test_instance_digests_are_pinned(self, tmp_path):
        # digests name the inputs, not the way the package holds them
        manifest = {"checks": [
            {"check": "iterated", "kernel": {"variant": "matrix", "values": [[2, 1], [1, 2]]},
             "omega": {"variant": "atomic", "sites": [0, 1], "weights": [1, 0.5]}, "s": 2.0},
            {"check": "iterated", "kernel": {"variant": "interval1d"},
             "omega": {"variant": "grid", "n_cells": 4, "values": [1, 2, 0.5, 1]}, "s": 2.0},
        ]}
        out = str(tmp_path / "r.json")
        assert main(["verify", write(tmp_path, "m.json", manifest), "--out", out]) == 0
        assert [r["instance_digest"] for r in load_report(out)["reports"]] == [
            "7dbc574c7cb2", "fafc82587b58"]

    @pytest.mark.parametrize("entry, payload", [
        ({"check": "iterated", "kernel": {"variant": "interval1d"},
          "omega": {"variant": "grid", "n_cells": 4, "values": [1, 2, 0.5, 1]}, "s": 2},
         {"check": "iterated", "kernel": {"variant": "interval1d"},
          "omega": {"variant": "grid", "n_cells": 4, "values": echoed([1, 2, 0.5, 1])},
          "s": 2.0, "h": 1.0}),
        (FUZZ_MANIFEST_ENTRIES["norm_constant"],
         {"check": "norm_constant",
          "kernel": {"variant": "matrix", "values": echoed([[2, 1], [1, 2]])},
          "omega": {"variant": "atomic", "sites": echoed([0, 1]), "weights": echoed([1, 1])},
          "p": 3.0, "r": 1.5}),
        (FUZZ_MANIFEST_ENTRIES["hardy"],
         {"check": "hardy", "kernel": {"variant": "interval1d"},
          "omega": {"variant": "grid", "n_cells": 32, "values": echoed([1.0] * 32)},
          "phi": "sin_pi"}),
    ], ids=["iterated", "norm_constant", "hardy"])
    def test_digest_is_recomputed_from_the_echoed_inputs(self, tmp_path, entry, payload):
        # a reader's recomputation: the check's parsed inputs, each array
        # named as config names it, as sorted compact JSON
        out = str(tmp_path / "r.json")
        assert main(["verify", write(tmp_path, "m.json", {"checks": [entry]}), "--out", out]) == 0
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert (load_report(out)["reports"][0]["instance_digest"]
                == hashlib.sha256(text.encode()).hexdigest()[:12])

    def test_hardy_digest_names_the_kernel(self, tmp_path):
        omega = {"variant": "grid", "n_cells": 64, "values": [1.0] * 64}
        manifest = {"checks": [{"check": "hardy", "kernel": kernel, "omega": omega}
                               for kernel in ({"variant": "interval1d"},
                                              {"variant": "riesz", "alpha": 0.25, "dim": 1})]}
        out = str(tmp_path / "r.json")
        assert main(["verify", write(tmp_path, "m.json", manifest), "--out", out]) == 0
        interval, riesz = load_report(out)["reports"]
        assert interval["lhs"] != riesz["lhs"]
        assert interval["instance_digest"] != riesz["instance_digest"]

    @pytest.mark.parametrize("kind", ["norm_constant", "equivalence"])
    def test_digest_names_values_not_their_spelling(self, tmp_path, kind):
        # "p": 3 or 3.0, an int or a float matrix: one instance, one digest
        entry = FUZZ_MANIFEST_ENTRIES[kind]
        respelled = {**entry, "p": 3,
                     "kernel": {"variant": "matrix", "values": [[2.0, 1.0], [1.0, 2.0]]},
                     "omega": {**entry["omega"], "weights": [1.0, 1.0]}}
        out = str(tmp_path / "r.json")
        assert main(["verify", write(tmp_path, "m.json", {"checks": [entry, respelled]}),
                     "--out", out]) == 0
        first, second = load_report(out)["reports"]
        assert first == second

    def test_lower_bound_resolves_h_once(self, tmp_path, monkeypatch):
        scans = []
        scan = greenlab.kernels.estimate_wmp_constant
        monkeypatch.setattr(greenlab.kernels, "estimate_wmp_constant",
                            lambda *a, **k: scans.append(1) or scan(*a, **k))
        manifest = {"checks": [
            {"check": "lower_bound",
             "kernel": {"variant": "matrix", "values": [[2.0, 1.0], [1.0, 2.0]]},
             "omega": {"variant": "atomic", "sites": [0, 1], "weights": [1.0, 1.0]},
             "q": 0.5},
        ]}
        assert main(["verify", write(tmp_path, "m.json", manifest)]) == 0
        assert len(scans) == 1

    def test_bad_manifest(self, tmp_path):
        inp = write(tmp_path, "m.json", {"checks": [{"check": "unheard-of"}]})
        assert main(["verify", inp]) == 2
        inp2 = write(tmp_path, "m2.json", {"not_checks": []})
        assert main(["verify", inp2]) == 2

    @pytest.mark.parametrize("entry", [
        5,
        {"check": "iterated", "kernel": {"variant": "interval1d"},
         "omega": {"variant": "grid", "n_cells": 4, "values": [1, 1, 1, 1]},
         "s": None},
    ], ids=["non-object-entry", "null-exponent"])
    def test_bad_entry_is_input_error(self, tmp_path, capsys, entry):
        inp = write(tmp_path, "m.json", {"checks": [entry]})
        assert main(["verify", inp]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_hardy_phi_potential(self, tmp_path):
        # phi = u = G omega on 64 cells is 3.1 % of its maximum in the end
        # cells, inside check_hardy's 5 % slack; it is those values given inline
        omega = {"variant": "grid", "n_cells": 64, "values": [1.0] * 64}
        u = potential(Kernel.interval1d(), Measure.from_dict(omega)).values.tolist()
        reports = []
        for phi in ("potential", u):
            entry = {**FUZZ_MANIFEST_ENTRIES["hardy"], "omega": omega, "phi": phi}
            out = str(tmp_path / "r.json")
            assert main(["verify", write(tmp_path, "m.json", {"checks": [entry]}),
                         "--out", out]) == 0
            reports.append(load_report(out)["reports"][0])
        assert reports[0]["passed"] is True and reports[0]["details"]["status"] == "checked"
        assert (reports[0]["lhs"], reports[0]["rhs"]) == (reports[1]["lhs"], reports[1]["rhs"])

    def test_lower_bound_reads_no_gamma(self, tmp_path):
        # the homogeneous solve behind the check does not depend on gamma,
        # so an entry's gamma is not read, however malformed
        reports = []
        for extra in ({}, {"gamma": 3.0}, {"gamma": "junk"}):
            out = str(tmp_path / "r.json")
            manifest = {"checks": [{**LOWER_BOUND_GRID_ENTRY, **extra}]}
            assert main(["verify", write(tmp_path, "m.json", manifest), "--out", out]) == 0
            reports.append(load_report(out)["reports"][0])
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("kind, extra", [
        ("hls", {"kernel": {"variant": "bogus"}}),
        ("hardy", {"s": "junk"}),
    ], ids=["hls-kernel", "hardy-s"])
    def test_a_check_reads_only_its_own_fields(self, tmp_path, kind, extra):
        # a field the kind does not take is not read, however malformed
        reports = []
        for entry in (FUZZ_MANIFEST_ENTRIES[kind], {**FUZZ_MANIFEST_ENTRIES[kind], **extra}):
            out = str(tmp_path / "r.json")
            assert main(["verify", write(tmp_path, "m.json", {"checks": [entry]}),
                         "--out", out]) == 0
            reports.append(load_report(out)["reports"][0])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("kind, field", [
        (kind, field) for kind, fields in {
            "iterated": ("kernel", "omega", "s"),
            "lower_bound": ("kernel", "omega", "q"),
            "norm_constant": ("kernel", "omega", "p", "r"),
            "equivalence": ("kernel", "omega", "p", "r"),
            "relation_chain": ("kernel", "sigma", "mu", "q", "gamma"),
            "hls": ("alpha", "n", "beta", "omega"),
            "hardy": ("kernel", "omega"),
        }.items() for field in fields])
    def test_a_missing_field_is_named(self, tmp_path, capsys, kind, field):
        entry = {key: value for key, value in FUZZ_MANIFEST_ENTRIES[kind].items() if key != field}
        assert main(["verify", write(tmp_path, "m.json", {"checks": [entry]})]) == 2
        assert capsys.readouterr().err == f"error: check {kind!r} needs a {field!r}\n"

    def test_lower_bound_null_u_is_no_u(self, tmp_path):
        # as for a problem's mu, only an absent or null u means none
        reports = []
        for extra in ({}, {"u": None}):
            out = str(tmp_path / "r.json")
            manifest = {"checks": [{**LOWER_BOUND_GRID_ENTRY, **extra}]}
            assert main(["verify", write(tmp_path, "m.json", manifest), "--out", out]) == 0
            reports.append(load_report(out)["reports"][0])
        assert reports[0] == reports[1]

    def test_lower_bound_solved_below_hypothesis_slack(self, tmp_path):
        # the solve behind the check must land within the 1e-9 slack of
        # u >= G(u^q d omega), or the check reports a spurious hypothesis-fail
        manifest = {"checks": [
            {"check": "lower_bound", "kernel": {"variant": "interval1d"},
             "omega": {"variant": "grid", "n_cells": 50, "values": [1.0] * 50},
             "q": 0.5},
        ]}
        out = str(tmp_path / "r.json")
        assert main(["verify", write(tmp_path, "m.json", manifest), "--out", out]) == 0
        rep = load_report(out)["reports"][0]
        assert rep["details"]["status"] == "checked" and rep["passed"] is True

    def test_lower_bound_on_a_failed_solve_says_why(self, tmp_path, capsys):
        # I_sigma is infinite for a Riesz kernel on atoms: the solve stops at
        # once, and its +inf start is no sub-solution to check
        manifest = {"checks": [
            {"check": "lower_bound", "kernel": {"variant": "riesz", "alpha": 0.25, "dim": 1},
             "omega": {"variant": "atomic", "sites": [0, 1], "weights": [1, 1]}, "q": 0.5},
        ]}
        out = tmp_path / "r.json"
        assert main(["verify", write(tmp_path, "m.json", manifest), "--out", str(out)]) == 1
        rep = load_report(out)["reports"][0]
        assert rep["passed"] is False
        assert rep["details"] == {"status": "solve-failed",
                                  "diagnostic": "necessary condition violated: I_sigma is infinite"}
        assert "nan" not in out.read_text()
        err = capsys.readouterr().err
        assert err == f"FAIL  lower_bound  digest={rep['instance_digest']}  margin=0\n"


class TestExponents:
    def test_reference_row(self, tmp_path):
        out = str(tmp_path / "r.json")
        code = main(["exponents", "--n", "3", "--p", "2.0", "--q", "0.5",
                     "--out", out])
        assert code == 0
        res = load_report(out)["result"]
        assert res["gamma"] == 1.0 and res["r"] == 3.0 and res["s"] == 1.0
        assert res["r2"] == pytest.approx(4 / 3) and res["s2"] == pytest.approx(1.2)

    def test_out_of_range_is_input_error(self, capsys):
        assert main(["exponents", "--n", "3", "--p", "3.0", "--q", "0.5"]) == 2


@pytest.mark.parametrize("command, payload, message", [
    ("energy", {"kernel": {"variant": "interval1d"},
                "omega": {"variant": "grid", "n_cells": 4, "values": [1, 1, 1, 1]},
                "gamma": None}, "energy file has a missing or malformed field: "),
    ("solve", [1, 2], "must hold a JSON object, got list"),
    ("verify", [1, 2], "must hold a JSON object, got list"),
    ("solve", {**GOLDEN_PROBLEM, "kernel": "interval1d"}, "a kernel must be an object"),
    ("solve", {**GOLDEN_PROBLEM, "mu": 5}, "a measure must be an object"),
    ("verify", {"checks": [{"check": "iterated", "kernel": "interval1d", "s": 2.0,
                            "omega": {"variant": "grid", "n_cells": 4,
                                      "values": [1, 1, 1, 1]}}]},
     "bad manifest entry 'iterated': a kernel must be an object"),
    ("energy", {"kernel": {"variant": "interval1d"}, "omega": [1, 2], "gamma": 1.0},
     "a measure must be an object"),
    ("solve", {**GOLDEN_PROBLEM, "sigma": {"variant": "atomic", "sites": [None, 1],
                                           "weights": [1.0, 1.0]}},
     "problem file has a missing or malformed field: "),
    ("solve", {**GOLDEN_PROBLEM, "sigma": {"variant": "atomic", "sites": [{}],
                                           "weights": [1.0]}},
     "atomic sites must be numbers"),
    ("solve", {**GOLDEN_PROBLEM, "kernel": {"variant": "interval1d"}, "mu": None,
               "sigma": {"variant": "grid", "n_cells": 2.7, "values": [1, 1]}},
     "n_cells must be an integer >= 1, got 2.7"),
    ("solve", {**GOLDEN_PROBLEM, "kernel": {"variant": "interval1d"}, "mu": None,
               "sigma": {"variant": "grid", "n_cells": "2", "values": [1, 1]}},
     "n_cells must be an integer >= 1, got '2'"),
    ("solve", {**GOLDEN_PROBLEM, "kernel": {"variant": "interval1d"}, "mu": None,
               "sigma": {"variant": "atomic", "sites": [math.nan, 0.5], "weights": [1, 1]}},
     "atomic sites must be finite"),
    ("solve", {**GOLDEN_PROBLEM, "kernel": {"variant": "riesz", "alpha": 0.25, "dim": 1},
               "mu": None,
               "sigma": {"variant": "atomic", "sites": [math.inf, 0.5], "weights": [1, 1]}},
     "atomic sites must be finite"),
    # JSON's Infinity parses as a float, which int() cannot take
    ("solve", {**GOLDEN_PROBLEM, "kernel": {"variant": "riesz", "alpha": 0.25, "dim": math.inf}},
     "problem file has a missing or malformed field: cannot convert float infinity"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["hls"], "n": math.inf}]},
     "bad manifest entry 'hls': cannot convert float infinity"),
    # every integer field by one rule: no truncation, no bool, no string
    ("solve", {**RIESZ_GRID_PROBLEM, "kernel": {**RIESZ_GRID_PROBLEM["kernel"], "dim": 1.7}},
     "riesz dim must be an integer >= 1, got 1.7"),
    ("solve", {**RIESZ_GRID_PROBLEM, "kernel": {**RIESZ_GRID_PROBLEM["kernel"], "dim": True}},
     "riesz dim must be an integer >= 1, got True"),
    ("solve", {**RIESZ_GRID_PROBLEM, "kernel": {**RIESZ_GRID_PROBLEM["kernel"], "dim": "1"}},
     "riesz dim must be an integer >= 1, got '1'"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["hls"], "n": 3.9}]},
     "bad manifest entry 'hls': n must be an integer >= 1, got 3.9"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["hls"], "n": 2.5}]},
     "bad manifest entry 'hls': n must be an integer >= 1, got 2.5"),
    # h >= 1 wherever it is read, manifests included
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["iterated"], "h": 0.5}]},
     "bad manifest entry 'iterated': 'h' must be >= 1, got 0.5"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["relation_chain"], "h": 0.5}]},
     "bad manifest entry 'relation_chain': 'h' must be >= 1, got 0.5"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["relation_chain"], "h": -1}]},
     "bad manifest entry 'relation_chain': 'h' must be >= 1, got -1"),
    # every real field by one rule: no string, no bool
    ("solve", {**RIESZ_GRID_PROBLEM, "kernel": {**RIESZ_GRID_PROBLEM["kernel"], "alpha": "0.25"}},
     "problem file has a missing or malformed field: riesz alpha must be a number, got '0.25'"),
    ("solve", {**GOLDEN_PROBLEM, "q": "0.5"},
     "problem file has a missing or malformed field: q must be a number, got '0.5'"),
    ("energy", {"kernel": {"variant": "interval1d"},
                "omega": {"variant": "grid", "n_cells": 4, "values": [1, 1, 1, 1]},
                "gamma": "2"},
     "energy file has a missing or malformed field: gamma must be a number, got '2'"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["iterated"], "s": "2"}]},
     "bad manifest entry 'iterated': 's' must be a number, got '2'"),
    ("solve", {**GOLDEN_PROBLEM, "kernel": {**GOLDEN_PROBLEM["kernel"], "declared_h": True}},
     "problem file has a missing or malformed field: declared_h must be a number, got True"),
    ("solve", {**GOLDEN_PROBLEM, "h": True},
     "problem file has a missing or malformed field: h must be a number, got True"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["iterated"], "s": True}]},
     "bad manifest entry 'iterated': 's' must be a number, got True"),
    # every kind but hls runs on a kernel
    ("verify", {"checks": [{"check": "iterated", "s": 2.0,
                            "omega": {"variant": "grid", "n_cells": 4, "values": [1, 1, 1, 1]}}]},
     "check 'iterated' needs a 'kernel'"),
    ("verify", {"checks": [{"check": "foo", "s": 2.0}]}, "unknown check kind 'foo'"),
    # every real field is finite
    ("solve", {**GOLDEN_PROBLEM, "gamma": math.inf},
     "gamma must be finite, got inf"),
    ("solve", {**GOLDEN_PROBLEM, "h": math.inf}, "h must be finite, got inf"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["iterated"], "s": math.inf}]},
     "bad manifest entry 'iterated': 's' must be finite, got inf"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["equivalence"], "p": math.inf}]},
     "bad manifest entry 'equivalence': 'p' must be finite, got inf"),
    # equal exponents: refused before p*r/(p-r) divides by zero
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["equivalence"], "p": 1.5}]},
     "bad manifest entry 'equivalence': r must lie in (0, p)"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["equivalence"], "r": 3.0}]},
     "bad manifest entry 'equivalence': r must lie in (0, p)"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["hls"], "beta": math.inf}]},
     "bad manifest entry 'hls': 'beta' must be finite, got inf"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["relation_chain"], "gamma": math.inf}]},
     "bad manifest entry 'relation_chain': 'gamma' must be finite, got inf"),
    # a lower_bound field is >= 0 and not NaN, as a measure's values are
    ("verify", {"checks": [{**LOWER_BOUND_GRID_ENTRY, "u": [-1, 1, 1, 1]}]},
     "bad manifest entry 'lower_bound': u must be >= 0 and not NaN at every site"),
    ("verify", {"checks": [{**LOWER_BOUND_GRID_ENTRY, "u": [math.nan, 1, 1, 1]}]},
     "bad manifest entry 'lower_bound': u must be >= 0 and not NaN at every site"),
    # phi = G omega on 32 cells is 6.25 % of its maximum in the end cells,
    # over check_hardy's 5 % slack
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["hardy"], "phi": "potential"}]},
     "bad manifest entry 'hardy': phi must vanish at both endpoints of (0, 1)"),
], ids=["energy-null-gamma", "solve-top-level-list", "verify-top-level-list",
        "solve-string-kernel", "solve-number-mu", "verify-string-kernel", "energy-list-omega",
        "solve-null-site", "solve-object-site", "solve-fractional-n-cells",
        "solve-string-n-cells", "solve-nan-site", "solve-infinite-site", "solve-infinite-dim",
        "verify-infinite-n", "solve-fractional-riesz-dim", "solve-bool-riesz-dim",
        "solve-string-riesz-dim", "verify-fractional-hls-n", "verify-half-hls-n",
        "verify-small-h-iterated", "verify-small-h-relation-chain",
        "verify-negative-h-relation-chain", "solve-string-alpha", "solve-string-q",
        "energy-string-gamma", "verify-string-s", "solve-bool-declared-h", "solve-bool-h",
        "verify-bool-s", "verify-no-kernel", "verify-unknown-kind", "solve-infinite-gamma",
        "solve-infinite-h", "verify-infinite-s", "verify-infinite-p",
        "verify-equivalence-p-equals-r", "verify-equivalence-r-equals-p", "verify-infinite-beta",
        "verify-infinite-gamma", "verify-negative-u", "verify-nan-u",
        "verify-hardy-potential-32-cells"])
def test_malformed_input_exits_two(tmp_path, capsys, command, payload, message):
    assert main([command, write(tmp_path, "in.json", payload)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


# values of the retired samples and seed fields, among them every value the
# parent format refused as malformed
RETIRED_FIELDS = {
    "counts": {"samples": 200, "seed": 7}, "integral-floats": {"samples": 4.0, "seed": 1.0},
    "infinite-seed": {"seed": math.inf}, "infinite-samples": {"samples": math.inf},
    "nan-seed": {"seed": math.nan}, "negative-samples": {"samples": -3},
    "fractional-samples": {"samples": 1.5}, "fractional-seed": {"seed": 1.5},
    "bool-samples": {"samples": True}, "bool-seed": {"seed": False},
    "string-samples": {"samples": "4"}, "string-seed": {"seed": "1"},
}


@pytest.mark.parametrize("fields", RETIRED_FIELDS.values(), ids=RETIRED_FIELDS.keys())
@pytest.mark.parametrize("kind", ["norm_constant", "equivalence"])
def test_retired_probe_fields_change_no_byte(tmp_path, kind, fields):
    # the probe draws no random density: an entry that still carries
    # samples or seed, whatever their value, gives the report of the same
    # entry without them, byte for byte but the timestamp
    texts, out = [], tmp_path / "r.json"
    for extra in ({}, fields):
        manifest = {"checks": [{**FUZZ_MANIFEST_ENTRIES[kind], **extra}]}
        assert main(["verify", write(tmp_path, "m.json", manifest), "--out", str(out)]) == 0
        texts.append(strip_timestamp(out.read_text()))
    assert texts[0] == texts[1]


# entries whose constants or floors pass the float range: h^(r/(p-r)) with
# r/(p-r) = 2999, an energy of 1e100-weighted cells to the power 9.67, and
# h^(s-1) with gamma or s = 1500
FLOAT_RANGE_GRID = {"variant": "grid", "n_cells": 8, "values": [1.0] * 8}
FLOAT_RANGE_ENTRIES = {
    "equivalence-h-power": {"check": "equivalence", "kernel": {"variant": "interval1d"},
                            "omega": FLOAT_RANGE_GRID, "p": 3.0, "r": 2.999, "h": 2.0},
    "equivalence-energy-power": {"check": "equivalence", "kernel": {"variant": "interval1d"},
                                 "omega": {**FLOAT_RANGE_GRID, "values": [1e100] * 8},
                                 "p": 3.0, "r": 0.1},
    "relation-chain-gamma-1500": {"check": "relation_chain", "kernel": {"variant": "interval1d"},
                                  "sigma": FLOAT_RANGE_GRID, "mu": FLOAT_RANGE_GRID,
                                  "q": 0.5, "gamma": 1500.0, "h": 2.0},
    "iterated-s-1500": {"check": "iterated", "kernel": {"variant": "interval1d"},
                        "omega": FLOAT_RANGE_GRID, "s": 1500.0, "h": 2.0},
}


@pytest.mark.parametrize("entry", FLOAT_RANGE_ENTRIES.values(), ids=FLOAT_RANGE_ENTRIES.keys())
def test_float_range_constants_give_a_verdict(tmp_path, capsys, entry):
    # past the float range a constant is +inf, 1/inf is 0 and 0 * inf is
    # 0: valid input gets a report and a verdict, not exit 2
    out = tmp_path / "r.json"
    code = main(["verify", write(tmp_path, "m.json", {"checks": [entry]}), "--out", str(out)])
    rep = load_report(out)["reports"][0]
    assert code == (0 if rep["passed"] else 1)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("PASS" if rep["passed"] else "FAIL")
    if entry["check"] == "equivalence" and entry["r"] == 0.1:
        assert rep["rhs"] == "inf" and rep["passed"] is False
    elif entry["check"] == "equivalence":  # c0 = 1/2^2999 = 0, and the floor 0 * energy
        assert (rep["constant_used"], rep["rhs"], rep["passed"]) == (0.0, 0.0, True)
    else:
        assert rep["constant_used"] == "inf" and rep["passed"] is True


def test_flags_do_not_leak_between_calls(tmp_path):
    # one parser serves every call in a process: the flags of a call are
    # not the defaults of the next
    inp = write(tmp_path, "p.json", GRID_PROBLEM)
    out = tmp_path / "r.json"
    assert main(["solve", inp, "--history", "--tol", "1e-9",
                 "--probe-scale", "2.0", "--out", str(out)]) == 0
    first = load_report(out)
    assert first["config"]["history"] is True and "history" in first["result"]
    assert "minimality_probe" in first
    assert first["config"]["tol"] == 1e-9
    out.unlink()
    assert main(["solve", inp, "--out", str(out)]) == 0
    second = load_report(out)
    assert second["config"]["history"] is False and "history" not in second["result"]
    assert second["config"]["tol"] == 1e-7
    assert "minimality_probe" not in second


@pytest.mark.parametrize("flag, value", [
    ("--tol", "inf"), ("--tol", "nan"), ("--tol", "0"), ("--tol", "-1"),
    ("--max-iter", "0"), ("--max-iter", "-3"),
    ("--probe-scale", "inf"), ("--probe-scale", "nan"), ("--probe-scale", "1"),
])
def test_solve_flag_out_of_range_exits_two(tmp_path, capsys, flag, value):
    # refused before any work: the input file is not even read
    assert main(["solve", str(tmp_path / "absent.json"), flag, value]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} must be ")


@pytest.mark.parametrize("argv", [
    ["solve", "p.json"], ["energy", "e.json"], ["exponents", "--n", "3", "--p", "2", "--q", "0.5"],
    ["verify", "m.json"],
], ids=["solve", "energy", "exponents", "verify"])
def test_no_command_takes_a_seed(argv, capsys):
    # the WMP scan always draws from seed 0 and the norm-constant probe
    # draws nothing: no report depends on a seed
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_probe_runs_under_max_iter(tmp_path):
    # GRID_PROBLEM solves in 10 sweeps and its 2x probe needs 12: under
    # --max-iter 11 the solve converges and the probe stops at 11 sweeps
    inp = write(tmp_path, "p.json", GRID_PROBLEM)
    out = tmp_path / "r.json"
    assert main(["solve", inp, "--max-iter", "11", "--probe-scale", "2.0",
                 "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["result"]["iterations"] == 10
    probe = rep["minimality_probe"]
    assert (probe["probe_converged"], probe["iterations"]) == (False, 11)
    assert probe["diagnostic"].startswith("max_iter=11 exceeded")


def run_module(*argv):
    """``python -m greenlab`` in a child running the greenlab this suite
    imported, installed or not."""
    src = str(Path(greenlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "greenlab", *argv],
                          capture_output=True, text=True, env=env)


def test_module_entry_point_runs():
    proc = run_module("exponents", "--n", "3", "--p", "2", "--q", "0.5")
    assert proc.returncode == 0
    assert '"gamma": 1.0' in proc.stdout


ONE_ATOM = {"variant": "atomic", "sites": [0], "weights": [1.0]}


@pytest.mark.parametrize("problem", [
    {"kernel": {"variant": "matrix", "values": [[1e200]]}, "sigma": ONE_ATOM,
     "q": 0.45, "gamma": 0.05},
    {"kernel": {"variant": "matrix", "values": [[1e200]]}, "sigma": ONE_ATOM,
     "mu": {**ONE_ATOM, "weights": [1e200]}, "q": 0.5},
    {"kernel": {"variant": "matrix", "values": [[1e200, 1e200], [1e200, 1e200]]},
     "sigma": {"variant": "atomic", "sites": [0, 1], "weights": [1e200, 1e200]}, "q": 0.5},
], ids=["power", "mu-product", "row-sums"])
def test_float_range_runs_print_no_warning(tmp_path, problem):
    # overflow to +inf is the extended-real result, and the report says
    # that the run did not finish
    proc = run_module("solve", write(tmp_path, "p.json", problem))
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["result"]["converged"] is False


FUZZ_ENERGY = {"kernel": {"variant": "interval1d"},
               "omega": {"variant": "grid", "n_cells": 4, "values": [1.0, 1.0, 1.0, 1.0]},
               "gamma": 1.0}
# 1.5 and 3.0 are the fuzz entries' r and p, so equal exponents get drawn
FUZZ_POOL = [None, "x", [], {}, [1], -1, 0, 0.5, 1.5, 3.0, True, math.inf, -math.inf, math.nan]


def _fuzz_paths(doc):
    """Every field of ``doc`` and every field one level below it."""
    return [(key,) for key in doc] + [(key, sub) for key, value in doc.items()
                                      if isinstance(value, dict) for sub in value]


def _fuzz_cases():
    cases = [("solve", GOLDEN_PROBLEM, ()), ("energy", FUZZ_ENERGY, ())]
    cases += [("verify", entry, ("checks", 0)) for entry in FUZZ_MANIFEST_ENTRIES.values()]
    return [(command, doc, prefix, path) for command, doc, prefix in cases
            for path in _fuzz_paths(doc)]


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


# the number fields the fuzz documents leave out: a problem's h, a kernel's
# declared constants, a Riesz kernel's alpha and dim
NUMBER_DOCS = {
    "declared": {**GOLDEN_PROBLEM, "h": 1.0,
                 "kernel": {**GOLDEN_PROBLEM["kernel"], "declared_h": 1, "declared_a": 1.0}},
    "riesz": RIESZ_GRID_PROBLEM,
}


def _number_cases():
    """Every fuzz case, and every field of ``NUMBER_DOCS``, whose value is a number."""
    cases = [(doc.get("check", command), command, doc, prefix, path)
             for command, doc, prefix, path in _fuzz_cases()]
    cases += [(f"solve-{name}", "solve", doc, (), path) for name, doc in NUMBER_DOCS.items()
              for path in _fuzz_paths(doc)]
    out = []
    for name, command, doc, prefix, path in cases:
        value = doc[path[0]] if len(path) == 1 else doc[path[0]][path[1]]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out += [pytest.param(command, doc, prefix, path, bad, id=f"{name}-{'.'.join(path)}-{kind}")
                    for kind, bad in (("bool", True), ("string", str(value)))]
    return out


@pytest.mark.parametrize("command, doc, prefix, path, bad", _number_cases())
def test_a_number_field_takes_no_bool_or_string(tmp_path, capsys, command, doc, prefix, path,
                                                 bad):
    # the one error line names the replaced value, so the exit 2 is its own
    payload = _replaced({"checks": [doc]} if prefix else doc, prefix + path, bad)
    assert main([command, write(tmp_path, "in.json", payload)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert repr(bad) in err


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_fuzz_cases()), st.sampled_from(FUZZ_POOL))
def test_fuzzed_input_never_escapes_main(tmp_path_factory, case, value):
    # one field replaced by a value of the wrong kind or range: the run
    # ends with a report (0 or 1) or exactly one error line (2)
    command, doc, prefix, path = case
    payload = _replaced({"checks": [doc]} if prefix else doc, prefix + path, value)
    work = tmp_path_factory.mktemp("fuzz")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, write(work, "in.json", payload), "--out", str(work / "r.json")])
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")


def _walk(obj):
    """The per-element walk every array took before finite arrays were
    listed directly: non-finite floats become strings."""
    if isinstance(obj, list):
        return [_walk(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


@pytest.mark.parametrize("array", [
    np.array([0.1, -2.5e-300, 1e300, 0.0, -0.0]),
    np.array([[1.0, 1 / 3], [2.0, 7e-12]]),
    np.array([1.0, np.inf, -np.inf, np.nan]),
    np.array([[np.nan, 0.5], [np.inf, -1.0]]),
    np.arange(5), np.array([[3, -4]], dtype=np.int32), np.array([True, False]),
    np.array([]), np.zeros((0, 3)),
], ids=["float-1d", "float-2d", "nonfinite-1d", "nonfinite-2d", "int", "int32-2d", "bool",
        "empty", "empty-2d"])
def test_dumps_of_arrays_is_unchanged(array):
    assert dumps({"a": array}) == json.dumps({"a": _walk(array.tolist())}, sort_keys=True,
                                             indent=2)


_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308]))
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
               elements=_FLOATS),
    hnp.arrays(np.float64, st.integers(0, 50), elements=st.floats(-1e300, 1e300)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0)),
    hnp.arrays(np.bool_, st.integers(0, 5)),
)
_LEAVES = st.one_of(
    _FLOATS, st.integers(), st.sampled_from([10**40, -(2**63) - 1]), st.booleans(),
    st.none(), st.text(), st.sampled_from(["\u00e9\u4e2d", "\x00\x1f\x7f", "\ud800"]),
    _FLOATS.map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), _ARRAYS,
    st.sampled_from([np.array(np.nan), np.array(np.inf), np.array(-np.inf)]),
)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=6), inner, max_size=4)), max_leaves=20))
def test_dumps_is_the_indenting_json_encoder(obj):
    assert dumps(obj) == json.dumps(jsonable(obj), sort_keys=True, indent=2)
