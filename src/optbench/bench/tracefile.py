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
import math
import os
from typing import Optional

import numpy as np

from ..core.oracles import TRACE_FIELDS, RunStatus, Trace

CSV_HEADER = "iter,f_value,f_gap,dist_to_opt,grad_norm,step_size,oracle_calls"
CSV_FIELDS = tuple(CSV_HEADER.split(","))
FORMATS = ("csv", "json")


MEMO_SHARE = 0.6
"""A float column whose distinct values number fewer than this share of its cells is formatted through a memo.

Below it, :func:`_csv_texts` formats each distinct value once and looks
each cell's text up; at or above it, each cell is formatted, in the row
template or (for a column with a None) in one list.  Timed against each
other on 2000-cell columns of random doubles (40 runs of each, 2-vCPU
x86-64 host), the memo took 0.78-0.81 of the template's time at a
distinct share of 0.4, 0.80-0.92 at 0.55, 0.99 at 0.6, 1.05-1.06 at 0.65
and 1.20-1.37 at 1: it wins below about 0.6.
"""


def _zero_cells(values: list) -> list:
    """The indices of the cells of ``values`` equal to zero, +0.0 and -0.0 alike."""
    found, i = [], -1
    for _ in range(values.count(0.0)):
        i = values.index(0.0, i + 1)
        found.append(i)
    return found


def _csv_texts(values: list, distinct: set) -> list:
    """The text of each cell of a float column whose distinct cells are ``distinct``, None as an empty cell.

    Each distinct value is formatted once.  +0.0 and -0.0 are one key
    but print as ``0`` and ``-0``, so where two or more cells are zero
    each zero cell is formatted on its own; a single zero cell is the key
    itself.  A NaN equals no other value, so each NaN object is its own
    key and is found again by identity.
    """
    memo = {v: "" if v is None else "%.17g" % v for v in distinct}
    texts = list(map(memo.__getitem__, values))
    if 0.0 in memo and values.count(0.0) > 1:
        for i in _zero_cells(values):
            texts[i] = "%.17g" % values[i]
    return texts


def _csv_column(values: list, as_text: bool = False) -> tuple[str, list]:
    """The row-template piece of a float column, and the values it takes.

    A column with few distinct values (see :data:`MEMO_SHARE`) takes
    ``%s`` and the texts of :func:`_csv_texts`.  Another is formatted
    cell by cell: by ``%.17g`` in the template, or, when it holds a None
    or ``as_text`` asks for its texts (another column shares them), as
    ``%s`` and a list of texts, None as an empty cell.  ``'%.17g' % v``
    gives the same text as ``format(v, ".17g")``.
    """
    distinct = set(values)
    if len(distinct) < MEMO_SHARE * len(values):
        return "%s", _csv_texts(values, distinct)
    if as_text or None in distinct:
        return "%s", ["" if v is None else "%.17g" % v for v in values]
    return "%.17g", values


def _print_alike(a: list, b: list) -> bool:
    """Whether each cell of ``a`` prints as the cell of ``b`` in its row.

    ``a == b`` compares cell by cell, so a NaN passes only against the
    same object; +0.0 equals -0.0, so the signs of the zero cells are
    compared too.
    """
    return a == b and all(math.copysign(1.0, a[i]) == math.copysign(1.0, b[i]) for i in _zero_cells(a))


def _csv_floats(cells: tuple, empty: Optional[float]) -> list:
    if "" not in cells:
        return list(map(float, cells))
    return [float(c) if c else empty for c in cells]


def _csv_trace(iters, f_values, f_gaps, dists, grad_norms, steps, calls) -> Trace:
    """The trace whose CSV columns of cell texts these are; a ValueError where a cell is not a number."""
    return Trace(status=None, columns={
        "iter": list(map(int, iters)),
        "f_value": list(map(float, f_values)),
        "f_gap": _csv_floats(f_gaps, None),
        "dist_to_opt": _csv_floats(dists, None),
        "grad_norm": _csv_floats(grad_norms, None),
        "step_size": _csv_floats(steps, 0.0),
        "oracle_calls": list(map(int, calls)),
        "x": [None] * len(iters),
        "tag": [None] * len(iters),
    })


def _atomic_write(path: str, text: str):
    """Write ``text`` to a new file beside ``path``, then rename it onto ``path``; remove it if either fails.

    The new file is created with mode 0o666 less the umask, as ``open(path, "w")`` creates a file
    (``tempfile.mkstemp`` would give 0o600), under a random name that ``O_EXCL`` keeps from any other file.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, ".trace-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    columns = trace.columns
    if format == "csv":
        f_value, f_gap = columns["f_value"], columns["f_gap"]
        shared = _print_alike(f_gap, f_value)  # f_gap = f_value - fstar: alike on every problem with fstar = 0
        floats = [_csv_column(f_value, shared)]
        floats.append(floats[0] if shared else _csv_column(f_gap))
        floats += [_csv_column(columns[name]) for name in CSV_FIELDS[3:-1]]
        row = ",".join(["%d", *(piece for piece, _ in floats), "%d"])
        cells = zip(columns["iter"], *(values for _, values in floats), columns["oracle_calls"])
        _atomic_write(path, "\n".join([CSV_HEADER, *map(row.__mod__, cells)]) + "\n")
        return

    rows = [dict(zip(CSV_FIELDS, cells)) for cells in zip(*(columns[name] for name in CSV_FIELDS))]
    for row, x, tag in zip(rows, columns["x"], columns["tag"]):
        if x is not None:
            row["x"] = [float(v) for v in x]
        if tag is not None:
            row["tag"] = tag
    doc = {
        "status": None if trace.status is None else trace.status.value,
        "x_out": None if trace.x_out is None else [float(v) for v in trace.x_out],
        "f_out": trace.f_out,
        "rows": rows,
    }
    _atomic_write(path, json.dumps(doc, indent=1) + "\n")


def read_trace(path: str, format: Optional[str] = None) -> Trace:
    """Read a trace written by :func:`write_trace`.

    A ValueError names a file that is not a trace, or its first malformed
    row: in CSV, a row with the wrong number of cells or a cell that is
    not a number where one is meant; in JSON, a row that is not an
    object, lacks a field, or holds anything else where a number is
    meant.  ``iter`` and ``oracle_calls`` take a JSON integer (not
    ``1.0``), ``f_value`` and ``step_size`` a number, ``f_gap``,
    ``dist_to_opt`` and ``grad_norm`` a number or null, and ``x`` a flat
    list of numbers or null; a bool or a string is never a number.  A JSON
    header field is null or else ``status`` a :class:`RunStatus` value,
    ``x_out`` a flat list of numbers and ``f_out`` a number; a ValueError
    names the file and the first that is not.
    """
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
        try:
            return _csv_trace(*columns)
        except ValueError:  # a cell that is not a number: name the first row that holds one
            for ln, c in zip(lines[1:], cells):
                try:
                    _csv_trace(*([v] for v in c))
                except ValueError:
                    raise ValueError(f"{path}: malformed row {ln!r}") from None
            raise

    with open(path, "r") as fh:
        doc = json.load(fh)
    if not (isinstance(doc, dict) and isinstance(doc.get("rows"), list)):
        raise ValueError(f"{path}: not a trace JSON (no rows list)")
    cells = [_json_cells(path, rd) for rd in doc["rows"]]
    columns = zip(*cells) if cells else [()] * len(TRACE_FIELDS)
    header = {}
    for name, read in (("status", RunStatus), ("x_out", _json_vector), ("f_out", _json_float)):
        value = doc.get(name)
        try:
            header[name] = None if value is None else read(value)
        except (TypeError, ValueError, OverflowError):  # not a status, or not a number where one is meant
            raise ValueError(f"{path}: malformed {name} {value!r}") from None
    return Trace(**header, columns={name: list(column) for name, column in zip(TRACE_FIELDS, columns)})


def _json_float(value) -> float:
    """A JSON number as a float; a TypeError for anything else (a bool, a string or null among them)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _json_vector(value) -> np.ndarray:
    """A flat JSON list of numbers as a float array; a TypeError for anything else."""
    if not isinstance(value, list):
        raise TypeError(f"not a list: {value!r}")
    return np.array([_json_float(v) for v in value], dtype=float)


def _json_int(value) -> int:
    """A JSON integer as an int; a TypeError for anything else (``1.0``, ``true`` and ``"1"`` among them)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an integer: {value!r}")
    return value


# Each trace field's reader of its value in a JSON row, in TRACE_FIELDS order, and whether the field may be
# null or missing (reading as None); a required field that is null or missing reaches its reader, which refuses it.
_JSON_READERS = {
    "iter": (_json_int, False),
    "f_value": (_json_float, False),
    "f_gap": (_json_float, True),
    "dist_to_opt": (_json_float, True),
    "grad_norm": (_json_float, True),
    "step_size": (_json_float, False),
    "oracle_calls": (_json_int, False),
    "x": (_json_vector, True),
    "tag": (lambda tag: tag, True),  # any JSON value, as written
}


def _json_cells(path: str, rd) -> list:
    """The cells of the JSON trace row ``rd``, in TRACE_FIELDS order; a ValueError names a malformed row."""
    try:
        return [None if (value := rd.get(name)) is None and optional else read(value)
                for name, (read, optional) in _JSON_READERS.items()]
    except (AttributeError, TypeError, ValueError, OverflowError):  # not an object, or a field not a number
        raise ValueError(f"{path}: malformed row {rd!r}") from None
