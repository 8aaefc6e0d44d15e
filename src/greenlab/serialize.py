"""JSON plumbing: non-finite floats, numpy scalars, stable digests, array echoes."""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np


def jsonable(obj):
    """Recursively convert to plain JSON types.

    Non-finite floats become the strings ``"inf"``, ``"-inf"``, ``"nan"``
    so reports stay valid strict JSON.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # int, bool and finite float entries are already plain JSON values
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2)


def echo(obj):
    """``obj`` with every array replaced by ``{"shape", "sha256"}``, the hex
    SHA-256 of its C-order little-endian float64 bytes: how a report
    names an input array without repeating it."""
    if isinstance(obj, dict):
        return {k: echo(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj, dtype="<f8")  # hashlib reads its buffer directly
        return {"shape": list(obj.shape), "sha256": hashlib.sha256(data).hexdigest()}
    return obj


def digest(obj) -> str:
    """Stable 12-hex-digit digest of a canonical JSON rendering of ``obj``."""
    payload = json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV, non-finite floats encoded as in reports."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(jsonable(list(row)) for row in rows)


def write_field_csv(path, values: np.ndarray, sites: np.ndarray) -> None:
    """Dump a field as (site, value) rows."""
    write_csv(path, ["site", "value"], zip(sites.tolist(), values.tolist()))
