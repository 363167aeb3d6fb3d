"""Fixture files: a JSON document describing a truncated module bit-exactly.

Fields: name, D, dims, action (a list of {i, n, rows} with rows written as
0/1 strings, row-major), optional labels, and a u_action block (a list of
{n, rows}) for u-modules.  Round-trips are bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

from .f2core import BitMatrix
from .unstable import FuluModule, TruncatedModule


def _rows_to_strings(m: BitMatrix) -> list:
    return ["".join(str(b) for b in row) for row in m.to_lists()]


def _rows_from_strings(rows: list, ncols: int) -> BitMatrix:
    ints = []
    for s in rows:
        # one string operation per row; int(s, 2) alone would also take
        # underscores and surrounding whitespace
        if not isinstance(s, str) or len(s) != ncols or s.strip("01"):
            raise ValueError(f"bad bit row {s!r} (expected {ncols} binary digits)")
        ints.append(int(s[::-1], 2) if s else 0)
    return BitMatrix(len(ints), ncols, tuple(ints))


def module_to_dict(M: TruncatedModule) -> dict:
    doc = {
        "name": M.name,
        "D": M.D,
        "dims": list(M.dims),
        "labels": [list(ls) for ls in M.labels],
        "action": [
            {"i": i, "n": n, "rows": _rows_to_strings(mat)}
            for (i, n), mat in M.action_items()
        ],
    }
    if isinstance(M, FuluModule):
        doc["u_action"] = [{"n": n, "rows": _rows_to_strings(m)} for n, m in M.u_items()]
    return doc


def _int(value, field: str) -> int:
    """``value`` if it is a JSON integer; ``ValueError`` for anything else,
    a bool, a float such as 4.5 or Infinity, or a string such as "4"."""
    if type(value) is not int:
        raise ValueError(f"fixture field {field!r} must be an integer, got {value!r}")
    return value


def module_from_dict(doc: dict) -> TruncatedModule:
    """The module a document describes: a u-module when it has a u_action.
    ``D``, ``dims``, ``i`` and ``n`` must be integers (``_int``)."""
    D = _int(doc["D"], "D")
    dims = [_int(d, "dims") for d in doc["dims"]]
    if len(dims) != D + 1:
        raise ValueError(f"dims must list degrees 0..{D}, got {len(dims)} entries")
    action = {}
    for entry in doc.get("action", []):
        i, n = _int(entry["i"], "i"), _int(entry["n"], "n")
        if i < 1 or n < 0 or n + i > D:
            raise ValueError(f"action key ({i}, {n}) outside range")
        action[(i, n)] = _rows_from_strings(entry["rows"], dims[n + i])
        if action[(i, n)].nrows != dims[n]:
            raise ValueError(f"action ({i}, {n}) has {action[(i, n)].nrows} rows, expected {dims[n]}")
    name, labels = doc.get("name", "fixture"), doc.get("labels")
    if "u_action" not in doc:
        return TruncatedModule(name, D, dims, action, labels)
    u = {}
    for entry in doc["u_action"]:
        n = _int(entry["n"], "n")
        if n < 0 or n + 1 > D:
            raise ValueError(f"u-action key {n} outside range")
        u[n] = _rows_from_strings(entry["rows"], dims[n + 1])
    return FuluModule(name, D, dims, action, labels, u=u)


def save(module: TruncatedModule, path) -> None:
    Path(path).write_text(json.dumps(module_to_dict(module), indent=1, sort_keys=True) + "\n")


def load(path) -> TruncatedModule:
    return module_from_dict(json.loads(Path(path).read_text()))
