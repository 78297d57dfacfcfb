"""Trace serialization: fixed-column CSV and lossless JSON.

CSV columns are fixed to
``iter,f_value,f_gap,dist_to_opt,grad_norm,step_size,oracle_calls``
with '.' decimal points, 17 significant digits and LF line endings;
unknown optional fields are emitted as empty cells.  JSON keeps every
recorded field (including x vectors and tags) plus the terminal status
and reported point, and round-trips losslessly.

Writes are atomic: the file is written next to the target and renamed.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

import numpy as np

from ..core.oracles import RunStatus, Trace, TraceRow

CSV_HEADER = "iter,f_value,f_gap,dist_to_opt,grad_norm,step_size,oracle_calls"
CSV_FIELDS = tuple(CSV_HEADER.split(","))
FORMATS = ("csv", "json")


def _csv_column(values: list) -> tuple[str, list]:
    """The row-template piece of a float column, and the values it takes.

    A column without None is formatted by ``%.17g`` in the template; a
    column with None is formatted cell by cell, None as an empty cell.
    ``'%.17g' % v`` gives the same text as ``format(v, ".17g")``.
    """
    if None not in values:
        return "%.17g", values
    return "%s", ["" if v is None else "%.17g" % v for v in values]


def _csv_floats(cells: tuple, empty: Optional[float]) -> list:
    if "" not in cells:
        return list(map(float, cells))
    return [float(c) if c else empty for c in cells]


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".trace-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_for_path(path: str) -> str:
    return "csv" if str(path).lower().endswith(".csv") else "json"


def write_trace(trace: Trace, path: str, format: Optional[str] = None):
    """Serialize a trace, as CSV for a ``.csv`` path and as JSON otherwise unless ``format`` says."""
    format = format or format_for_path(path)
    if format not in FORMATS:
        raise ValueError(f"unknown trace format {format!r}; choose from {FORMATS}")
    if format == "csv":
        columns = trace.columns
        floats = [_csv_column(columns[name]) for name in CSV_FIELDS[1:-1]]
        row = ",".join(["%d", *(piece for piece, _ in floats), "%d"])
        cells = zip(columns["iter"], *(values for _, values in floats), columns["oracle_calls"])
        _atomic_write(path, "\n".join([CSV_HEADER, *map(row.__mod__, cells)]) + "\n")
        return

    doc = {
        "status": None if trace.status is None else trace.status.value,
        "x_out": None if trace.x_out is None else [float(v) for v in trace.x_out],
        "f_out": trace.f_out,
        "rows": [_row_to_json(r) for r in trace.rows],
    }
    _atomic_write(path, json.dumps(doc, indent=1) + "\n")


def _row_to_json(r: TraceRow) -> dict:
    d = {
        "iter": r.iter,
        "f_value": r.f_value,
        "f_gap": r.f_gap,
        "dist_to_opt": r.dist_to_opt,
        "grad_norm": r.grad_norm,
        "step_size": r.step_size,
        "oracle_calls": r.oracle_calls,
    }
    if r.x is not None:
        d["x"] = [float(v) for v in r.x]
    if r.tag is not None:
        d["tag"] = r.tag
    return d


def read_trace(path: str, format: Optional[str] = None) -> Trace:
    """Read a trace written by :func:`write_trace`."""
    format = format or format_for_path(path)
    if format == "csv":
        with open(path, "r", newline="") as fh:
            lines = [ln for ln in fh.read().split("\n") if ln]
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError(f"{path}: not a trace CSV (bad header)")
        cells = [ln.split(",") for ln in lines[1:]]
        if set(map(len, cells)) - {len(CSV_FIELDS)}:
            bad = next(ln for ln, c in zip(lines[1:], cells) if len(c) != len(CSV_FIELDS))
            raise ValueError(f"{path}: malformed row {bad!r}")
        columns = zip(*cells) if cells else [()] * len(CSV_FIELDS)
        iters, f_values, f_gaps, dists, grad_norms, steps, calls = columns
        return Trace(status=None, columns={
            "iter": list(map(int, iters)),
            "f_value": list(map(float, f_values)),
            "f_gap": _csv_floats(f_gaps, None),
            "dist_to_opt": _csv_floats(dists, None),
            "grad_norm": _csv_floats(grad_norms, None),
            "step_size": _csv_floats(steps, 0.0),
            "oracle_calls": list(map(int, calls)),
            "x": [None] * len(cells),
            "tag": [None] * len(cells),
        })

    with open(path, "r") as fh:
        doc = json.load(fh)
    rows = [TraceRow(
        iter=int(rd["iter"]),
        f_value=float(rd["f_value"]),
        f_gap=rd.get("f_gap"),
        dist_to_opt=rd.get("dist_to_opt"),
        grad_norm=rd.get("grad_norm"),
        step_size=float(rd["step_size"]),
        oracle_calls=int(rd["oracle_calls"]),
        x=None if rd.get("x") is None else np.array(rd["x"], dtype=float),
        tag=rd.get("tag"),
    ) for rd in doc["rows"]]
    status = None if doc.get("status") is None else RunStatus(doc["status"])
    x_out = None if doc.get("x_out") is None else np.array(doc["x_out"], dtype=float)
    return Trace(rows=rows, status=status, x_out=x_out, f_out=doc.get("f_out"))
