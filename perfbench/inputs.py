"""Seeded input generation for the three workloads.

Run as a script, this is the set-up step the benchmark times: interpreter
start, ``import greenlab``, drawing the inputs from the seed and writing
them to disk.  It writes two kinds of file into the work directory:

* the program's inputs (problem, energy and manifest JSON files for the
  CLI; an instance list for the library-level batch), and
* ``expect.json``, the data the oracle needs (densities, points, weights),
  so that checking never has to re-parse the large program inputs.

Usage::

    python3 perfbench/inputs.py --workload grid-solve --seed 1 --dir WORKDIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("grid-solve", "dense-report", "small-batch")

# grid-solve sizes, as fixed by the benchmark definition
N_SOLVE_HOM = 4000
N_SOLVE_INH = 3000
N_SOLVE_RIESZ = 2000
N_ENERGY = 4000
N_ITER_INTERVAL = 2000
N_ITER_RIESZ = 1500
N_EQUIV = 1000
N_CHAIN = 2000
N_LOWER = 1500
N_HARDY = 2000
HLS_SIDE = 12

DENSE_SIZES = (1500, 1000)  # inhomogeneous, homogeneous
SMALL_INSTANCES = 300

Q = 0.5
GAMMA = 1.0
RIESZ_ALPHA = 0.25
ENERGY_GAMMA = 2.0


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _density(rng, n):
    return rng.uniform(0.5, 1.5, n)


def _grid(values) -> dict:
    return {"variant": "grid", "n_cells": len(values), "values": values.tolist()}


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def grid_solve(rng, workdir: Path) -> None:
    interval = {"variant": "interval1d"}
    riesz = {"variant": "riesz", "alpha": RIESZ_ALPHA, "dim": 1}
    expect = {}

    sig = _density(rng, N_SOLVE_HOM)
    _write_json(workdir / "solve_hom.json",
                {"kernel": interval, "sigma": _grid(sig), "q": Q, "gamma": GAMMA})
    expect["solve_hom"] = {"kernel": "interval1d", "sigma": sig.tolist(), "q": Q}

    sig = _density(rng, N_SOLVE_INH)
    mu = _density(rng, N_SOLVE_INH)
    _write_json(workdir / "solve_inh.json",
                {"kernel": interval, "sigma": _grid(sig), "mu": _grid(mu),
                 "q": Q, "gamma": GAMMA})
    expect["solve_inh"] = {"kernel": "interval1d", "sigma": sig.tolist(),
                           "mu": mu.tolist(), "q": Q}

    sig = _density(rng, N_SOLVE_RIESZ)
    _write_json(workdir / "solve_riesz.json",
                {"kernel": riesz, "sigma": _grid(sig), "q": Q, "gamma": GAMMA})
    expect["solve_riesz"] = {"kernel": "riesz", "alpha": RIESZ_ALPHA,
                            "sigma": sig.tolist(), "q": Q}

    omega = _density(rng, N_ENERGY)
    _write_json(workdir / "energy.json",
                {"kernel": interval, "omega": _grid(omega), "gamma": ENERGY_GAMMA})
    expect["energy"] = {"omega": omega.tolist(), "gamma": ENERGY_GAMMA}

    ax = (np.arange(HLS_SIDE) + 0.5) / HLS_SIDE
    lattice = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    hls_w = _density(rng, len(lattice)) / len(lattice)
    checks = [
        {"check": "iterated", "kernel": interval,
         "omega": _grid(_density(rng, N_ITER_INTERVAL)), "s": 2.0},
        {"check": "iterated", "kernel": riesz,
         "omega": _grid(_density(rng, N_ITER_RIESZ)), "s": 0.5},
        {"check": "equivalence", "kernel": interval,
         "omega": _grid(_density(rng, N_EQUIV)), "p": 3.0, "r": 1.5,
         "samples": 200, "seed": int(rng.integers(2**31))},
        {"check": "relation_chain", "kernel": interval,
         "sigma": _grid(_density(rng, N_CHAIN)),
         "mu": _grid(_density(rng, N_CHAIN)), "q": Q, "gamma": GAMMA},
        # Lebesgue density, the input the known lower_bound defect was
        # reproduced on: with random densities the hypothesis margin sits at
        # the 1e-9 threshold and the verdict flips with the seed
        {"check": "lower_bound", "kernel": interval,
         "omega": _grid(np.ones(N_LOWER)), "q": Q},
        {"check": "hardy", "kernel": interval,
         "omega": _grid(_density(rng, N_HARDY))},
        {"check": "hls", "alpha": 1.0, "n": 3, "beta": 1.0,
         "omega": {"variant": "atomic", "sites": lattice.tolist(),
                   "weights": hls_w.tolist()}},
    ]
    _write_json(workdir / "manifest.json", {"checks": checks})
    expect["verify"] = {"checks": [c["check"] for c in checks]}
    _write_json(workdir / "expect.json", expect)


def interval_points(rng, n) -> np.ndarray:
    """Sorted distinct points in (0, 1), kept off the endpoints."""
    while True:
        x = np.sort(rng.uniform(0.001, 0.999, n))
        if np.all(np.diff(x) > 0):
            return x


def dense_report(rng, workdir: Path) -> None:
    expect = {}
    for n, inhomogeneous in zip(DENSE_SIZES, (True, False)):
        x = interval_points(rng, n)
        sites = np.arange(n)
        w_sigma = _density(rng, n) / n
        problem = {"kernel": {"variant": "matrix", "values": oracle.interval_kernel(x).tolist()},
                   "sigma": {"variant": "atomic", "sites": sites.tolist(),
                             "weights": w_sigma.tolist()},
                   "q": Q, "gamma": GAMMA}
        entry = {"x": x.tolist(), "sigma_sites": sites.tolist(),
                 "sigma_weights": w_sigma.tolist(), "q": Q}
        if inhomogeneous:
            mu_sites = np.sort(rng.choice(n, n // 2, replace=False))
            w_mu = _density(rng, len(mu_sites)) / n
            problem["mu"] = {"variant": "atomic", "sites": mu_sites.tolist(),
                             "weights": w_mu.tolist()}
            entry.update(mu_sites=mu_sites.tolist(), mu_weights=w_mu.tolist())
        name = f"dense_{n}"
        _write_json(workdir / f"{name}.json", problem)
        expect[name] = entry
    _write_json(workdir / "expect.json", expect)


def green_matrix(rng, n) -> np.ndarray:
    """Inverse of a random symmetric strictly diagonally dominant M-matrix:
    a discrete Green matrix, positive and symmetric, whose weak-maximum-
    principle constant is exactly 1."""
    b = rng.uniform(0.1, 1.0, (n, n))
    b = 0.5 * (b + b.T)
    np.fill_diagonal(b, 0.0)
    lap = np.diag(b.sum(axis=1) * (1.0 + rng.uniform(0.1, 1.0))) - b
    return np.linalg.inv(lap)


def small_batch(rng, workdir: Path) -> None:
    """Sizes n = 2..20 and q in {0.25, 0.5, 0.75} cycle through a fixed
    pattern, so every seed has the same mix of instance costs; the seed
    draws the matrices, weights and gamma.  Homogeneous and inhomogeneous
    instances alternate, each pair sharing one size."""
    instances = []
    for i in range(SMALL_INSTANCES):
        n = 2 + (i // 2) % 19
        q = (0.25, 0.5, 0.75)[i % 3]
        inst = {"n": n, "q": q, "gamma": float(rng.uniform(0.3, 2.0)),
                "G": green_matrix(rng, n).tolist(),
                "sigma": rng.uniform(0.1, 1.0, n).tolist(), "mu": None}
        if i % 2 == 1:
            inst["mu"] = rng.uniform(0.05, 0.8, n).tolist()
        instances.append(inst)
    _write_json(workdir / "instances.json", {"instances": instances})
    _write_json(workdir / "expect.json", {"n_instances": SMALL_INSTANCES})


GENERATORS = {"grid-solve": grid_solve, "dense-report": dense_report,
              "small-batch": small_batch}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--src", required=True, help="directory holding the greenlab package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import greenlab  # noqa: F401  (import cost is part of set-up)

    workdir = Path(args.dir)
    workdir.mkdir(parents=True, exist_ok=True)
    GENERATORS[args.workload](rng_for(args.workload, args.seed), workdir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
