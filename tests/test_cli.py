import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greenlab
from greenlab.cli import main

GOLDEN_PROBLEM = {
    "kernel": {"variant": "matrix", "values": [[1.0]]},
    "sigma": {"variant": "atomic", "sites": [0], "weights": [1.0]},
    "mu": {"variant": "atomic", "sites": [0], "weights": [1.0]},
    "q": 0.5,
    "gamma": 1.0,
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def load_report(path):
    return json.loads(open(path).read())


class TestSolve:
    def test_golden_scalar(self, tmp_path, capsys):
        inp = write(tmp_path, "p.json", GOLDEN_PROBLEM)
        out = str(tmp_path / "report.json")
        assert main(["solve", inp, "--out", out]) == 0
        rep = load_report(out)
        assert rep["result"]["converged"] is True
        assert rep["result"]["u"][0] == pytest.approx((3 + np.sqrt(5)) / 2, abs=1e-9)
        assert rep["config"]["problem"]["q"] == 0.5

    def test_homogeneous_file(self, tmp_path):
        problem = {
            "kernel": {"variant": "matrix", "values": [[2.0]]},
            "sigma": {"variant": "atomic", "sites": [0], "weights": [3.0]},
            "q": 0.5,
        }
        inp = write(tmp_path, "p.json", problem)
        out = str(tmp_path / "r.json")
        assert main(["solve", inp, "--out", out]) == 0
        assert load_report(out)["result"]["u"][0] == pytest.approx(36.0, abs=1e-9)

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
        strip = lambda text: re.sub(r'^\s*"timestamp": .*$', "", text, flags=re.M)
        t1, t2 = open(out1).read(), open(out2).read()
        assert t1 != t2  # the timestamps differ ...
        assert strip(t1) == strip(t2)  # ... and nothing else does

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


def test_module_entry_point_runs():
    # the child runs the greenlab this suite imported, installed or not
    src = str(Path(greenlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "greenlab", "exponents", "--n", "3", "--p", "2",
         "--q", "0.5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert '"gamma": 1.0' in proc.stdout
