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

import greenlab
from greenlab import Problem, a_priori_check, solve
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
                      "p": 3.0, "r": 1.5, "samples": 4, "seed": 1},
    "equivalence": {"check": "equivalence",
                    "kernel": {"variant": "matrix", "values": [[2, 1], [1, 2]]},
                    "omega": {"variant": "atomic", "sites": [0, 1], "weights": [1, 1]},
                    "p": 3.0, "r": 1.5, "samples": 4},
    "relation_chain": {"check": "relation_chain",
                       "kernel": {"variant": "matrix", "values": [[1.0]]},
                       "sigma": {"variant": "atomic", "sites": [0], "weights": [1.0]},
                       "mu": {"variant": "atomic", "sites": [0], "weights": [1.0]},
                       "q": 0.5, "gamma": 1.0},
    "hls": {"check": "hls", "alpha": 0.25, "n": 1, "beta": 1.0,
            "omega": {"variant": "grid", "n_cells": 4, "values": [1.0, 1.0, 1.0, 1.0]}},
    "hardy": {"check": "hardy", "kernel": {"variant": "interval1d"},
              "omega": {"variant": "grid", "n_cells": 4, "values": [1.0, 1.0, 1.0, 1.0]},
              "phi": "sin_pi"},
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
        assert "line" in err and "column" in err

    def test_unknown_kernel_variant(self, tmp_path, capsys):
        bad = dict(GOLDEN_PROBLEM, kernel={"variant": "sphere"})
        assert main(["solve", write(tmp_path, "p.json", bad)]) == 2
        assert "variant" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/problem.json"]) == 2

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
                 "p": 3.0, "r": 1.5, "samples": 32},
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

    def test_deterministic_modulo_timestamp(self, tmp_path):
        inp = write(tmp_path, "m.json", self.manifest())
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["verify", inp, "--seed", "0", "--out", out1]) == 0
        assert main(["verify", inp, "--seed", "0", "--out", out2]) == 0
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
            "47fb724e86b3", "733d43589eba"]

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
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["norm_constant"], "seed": math.inf}]},
     "bad manifest entry 'norm_constant': cannot convert float infinity"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["equivalence"], "samples": math.inf}]},
     "bad manifest entry 'equivalence': cannot convert float infinity"),
    ("verify", {"checks": [{**FUZZ_MANIFEST_ENTRIES["hls"], "n": math.inf}]},
     "bad manifest entry 'hls': cannot convert float infinity"),
], ids=["energy-null-gamma", "solve-top-level-list", "verify-top-level-list",
        "solve-string-kernel", "solve-number-mu", "verify-string-kernel", "energy-list-omega",
        "solve-null-site", "solve-object-site", "solve-fractional-n-cells",
        "solve-string-n-cells", "solve-nan-site", "solve-infinite-site", "solve-infinite-dim",
        "verify-infinite-seed", "verify-infinite-samples", "verify-infinite-n"])
def test_malformed_input_exits_two(tmp_path, capsys, command, payload, message):
    assert main([command, write(tmp_path, "in.json", payload)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


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
FUZZ_POOL = [None, "x", [], {}, [1], -1, 0, 0.5, True, math.inf, -math.inf, math.nan]


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
