"""Nonnegative measures and the fields sampled against them.

Two variants: atomic measures (distinct sites, nonnegative weights) and
1-d grid densities (N uniform cells on (0,1), midpoint quadrature).  A
``Field`` is just an array of values paired with the measure whose sites
it was sampled on; every integral of a power against a measure's weights
goes through :func:`power_integral`, and every Lp norm through
:func:`lp_norm`, so the weighting convention lives in one place.

Sums use numpy's fixed-order pairwise summation, so results are
bit-reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .extreal import ext_power, weighted_sum

ATOMIC = "atomic"
GRID = "grid"


@dataclass
class Measure:
    variant: str
    sites: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    n_cells: Optional[int] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.variant == ATOMIC:
            sites = np.asarray(self.sites)
            weights = np.asarray(self.weights, dtype=float)
            if weights.ndim != 1 or len(weights) != len(sites):
                raise ValueError("need one weight per atom")
            if weights.size and (np.any(weights < 0) or not np.all(np.isfinite(weights))):
                raise ValueError("atomic weights must be finite and >= 0")
            uniq = np.unique(sites, axis=0) if sites.ndim > 1 else np.unique(sites)
            if len(uniq) != len(sites):
                raise ValueError("atomic sites must be distinct")
            if sites.dtype.kind not in "biuf":
                raise ValueError("atomic sites must be numbers")
            if not np.all(np.isfinite(sites)):
                raise ValueError("atomic sites must be finite")
            self.sites = sites
            self.weights = weights
        elif self.variant == GRID:
            n = self.n_cells
            integral = ((isinstance(n, (int, np.integer)) and not isinstance(n, bool))
                        or (isinstance(n, float) and n.is_integer()))
            if not integral or n < 1:
                raise ValueError(f"grid measure n_cells must be an integer >= 1, got {n!r}")
            self.n_cells = int(n)
            values = np.asarray(self.values, dtype=float)
            if values.shape != (self.n_cells,):
                raise ValueError("need one value per grid cell")
            if np.any(values < 0) or not np.all(np.isfinite(values)):
                raise ValueError("grid values must be finite and >= 0")
            self.values = values
        else:
            raise ValueError(f"unknown measure variant {self.variant!r}")

    @classmethod
    def atomic(cls, sites, weights) -> "Measure":
        return cls(ATOMIC, sites=np.asarray(sites), weights=np.asarray(weights, dtype=float))

    @classmethod
    def grid(cls, n_cells: int, values) -> "Measure":
        return cls(GRID, n_cells=n_cells, values=np.asarray(values, dtype=float))

    @classmethod
    def lebesgue(cls, n_cells: int) -> "Measure":
        """Lebesgue measure on (0,1) as a grid density of ones."""
        return cls.grid(n_cells, np.ones(n_cells))

    @property
    def size(self) -> int:
        return len(self.weights) if self.variant == ATOMIC else self.n_cells

    @property
    def cell_width(self) -> float:
        if self.variant != GRID:
            raise ValueError("cell_width only makes sense for grid measures")
        return 1.0 / self.n_cells

    @property
    def midpoints(self) -> np.ndarray:
        if self.variant != GRID:
            raise ValueError("midpoints only make sense for grid measures")
        return (np.arange(self.n_cells) + 0.5) / self.n_cells

    @property
    def support_sites(self):
        """Sites/midpoints the measure lives on (zero-weight atoms included)."""
        return self.sites if self.variant == ATOMIC else self.midpoints

    @property
    def integration_weights(self) -> np.ndarray:
        """Per-site masses: atom weights, or cell value times cell width."""
        if self.variant == ATOMIC:
            return self.weights
        return self.values * self.cell_width

    def scaled(self, c: float) -> "Measure":
        if c < 0:
            raise ValueError("measures are nonnegative; c must be >= 0")
        if self.variant == ATOMIC:
            return Measure.atomic(self.sites, self.weights * c)
        return Measure.grid(self.n_cells, self.values * c)

    def to_dict(self) -> dict:
        if self.variant == ATOMIC:
            return {"variant": ATOMIC, "sites": self.sites, "weights": self.weights}
        return {"variant": GRID, "n_cells": self.n_cells, "values": self.values}

    @classmethod
    def from_dict(cls, data: dict) -> "Measure":
        if not isinstance(data, dict):
            raise ValueError(f"a measure must be an object, got {type(data).__name__}")
        variant = data.get("variant")
        if variant == ATOMIC:
            return cls.atomic(data["sites"], data["weights"])
        if variant == GRID:
            return cls.grid(data["n_cells"], data["values"])
        raise ValueError(f"unknown measure variant {variant!r}")


@dataclass
class Field:
    """Values sampled on a measure's atoms or cells.

    ``measure_ref`` may be None for bare point evaluations (inspection
    only); such fields cannot be integrated.
    """

    measure_ref: Optional[Measure]
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("field values must be a 1-d array")
        if self.measure_ref is not None and len(self.values) != self.measure_ref.size:
            raise ValueError("field length does not match its measure")


def total_mass(m: Measure) -> float:
    return float(np.sum(m.integration_weights))


def same_sampling(f: Field, m: Measure) -> bool:
    if f.measure_ref is None:
        return False
    if f.measure_ref is m:
        return True
    a, b = f.measure_ref, m
    if a.variant != b.variant or a.size != b.size:
        return False
    if a.variant == ATOMIC:
        return bool(np.array_equal(a.sites, b.sites) and np.array_equal(a.weights, b.weights))
    return a.n_cells == b.n_cells and bool(np.array_equal(a.values, b.values))


def power_integral(values, expo: float, weights) -> float:
    """Integral of values^expo against per-site weights; may be +inf."""
    return float(weighted_sum(ext_power(values, expo), weights))


def lp_norm(f: Field, p: float, m: Measure) -> float:
    """(Integral of |f|^p dm)^(1/p); +inf propagates through."""
    if not p > 0:
        raise ValueError("p must be > 0")
    if not same_sampling(f, m):
        raise ValueError("field is not sampled against this measure")
    return float(ext_power(power_integral(np.abs(f.values), p, m.integration_weights), 1.0 / p))
