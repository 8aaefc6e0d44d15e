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
        # int, bool and finite float entries are already plain JSON values;
        # any other array, 0-d included, converts as its nested list or scalar
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return jsonable(obj.tolist())
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


# JSON text of one entry of a flat int or finite float array, as ``json`` writes it
_ENTRY_TEXT = {"i": int.__repr__, "u": int.__repr__, "f": float.__repr__}


def dumps(obj) -> str:
    """``json.dumps(jsonable(obj), sort_keys=True, indent=2)``, byte for byte.

    A 1-d int or finite float array is listed in one join of its entries'
    text rather than walked entry by entry in ``json``'s pure-Python
    indenting encoder; a deeper array is listed as its rows.
    """
    return _dumps(obj, "\n")


def _dumps(obj, newline: str) -> str:
    """``dumps`` of obj at the level whose line break and indent are ``newline``."""
    inner = newline + "  "

    def listed(opening: str, parts, closing: str) -> str:
        parts = list(parts)
        if not parts:
            return opening + closing
        return opening + inner + ("," + inner).join(parts) + newline + closing

    if isinstance(obj, np.ndarray):
        kind = obj.dtype.kind
        if obj.ndim == 1 and kind in _ENTRY_TEXT and (kind != "f" or np.isfinite(obj).all()):
            return listed("[", map(_ENTRY_TEXT[kind], obj.tolist()), "]")
        obj = list(obj) if obj.ndim > 1 else jsonable(obj)
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
        return listed("{", (json.dumps(k) + ": " + _dumps(obj[k], inner)
                            for k in sorted(obj)), "}")
    if isinstance(obj, (list, tuple)):
        return listed("[", (_dumps(v, inner) for v in obj), "]")
    return json.dumps(jsonable(obj))


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
    """The first 12 hex digits of the SHA-256 of the sorted, compact JSON of
    ``echo(obj)``: an array counts by its float64 bytes, as in ``config``."""
    payload = json.dumps(echo(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def write_csv(path, header, rows) -> None:
    """Write a header and rows of plain Python values as CSV.  csv writes a
    float by its repr, so non-finite ones read ``nan``, ``inf``, ``-inf``,
    as in reports."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_field_csv(path, values: np.ndarray, sites: np.ndarray) -> None:
    """Dump a field as (site, value) rows."""
    write_csv(path, ["site", "value"], zip(sites.tolist(), values.tolist()))
