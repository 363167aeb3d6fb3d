"""Fixture files: a JSON document describing a truncated module bit-exactly.

Fields: name, D, dims, action (a list of {i, n, rows} with rows written as
0/1 strings, row-major), optional labels, and an optional u_action block for
u-modules.  Round-trips are bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .f2core import BitMatrix
from .fulu import FuluModule
from .unstable import TruncatedModule


def _rows_to_strings(m: BitMatrix) -> list:
    return ["".join(str(b) for b in row) for row in m.to_lists()]


def _rows_from_strings(rows: list, ncols: int) -> BitMatrix:
    ints = []
    for s in rows:
        if len(s) != ncols or any(c not in "01" for c in s):
            raise ValueError(f"bad bit row {s!r} (expected {ncols} binary digits)")
        ints.append(int(s[::-1], 2) if s else 0)
    return BitMatrix.from_row_ints(ints, ncols)


def module_to_dict(M: TruncatedModule) -> dict:
    return {
        "name": M.name,
        "D": M.D,
        "dims": list(M.dims),
        "labels": [list(ls) for ls in M.labels],
        "action": [
            {"i": i, "n": n, "rows": _rows_to_strings(mat)}
            for (i, n), mat in M.action_items()
        ],
    }


def module_from_dict(doc: dict) -> TruncatedModule:
    D = int(doc["D"])
    dims = [int(d) for d in doc["dims"]]
    if len(dims) != D + 1:
        raise ValueError(f"dims must list degrees 0..{D}, got {len(dims)} entries")
    action = {}
    for entry in doc.get("action", []):
        i, n = int(entry["i"]), int(entry["n"])
        action[(i, n)] = _rows_from_strings(entry["rows"], dims[n + i])
        if action[(i, n)].nrows != dims[n]:
            raise ValueError(f"action ({i}, {n}) has {action[(i, n)].nrows} rows, expected {dims[n]}")
    labels = doc.get("labels")
    return TruncatedModule(doc.get("name", "fixture"), D, dims, action, labels)


def fulu_to_dict(N: FuluModule) -> dict:
    doc = module_to_dict(N.underlying)
    doc["name"] = N.name
    doc["u_action"] = [
        {"n": n, "rows": _rows_to_strings(N.u_mat(n))}
        for n in range(N.D)
        if not N.u_mat(n).is_zero()
    ]
    return doc


def fulu_from_dict(doc: dict) -> FuluModule:
    mod = module_from_dict(doc)
    u_mats = {}
    for entry in doc.get("u_action", []):
        n = int(entry["n"])
        u_mats[n] = _rows_from_strings(entry["rows"], mod.dims[n + 1])
    return FuluModule(mod, u_mats, name=doc.get("name"))


def save(module: Union[TruncatedModule, FuluModule], path) -> None:
    doc = fulu_to_dict(module) if isinstance(module, FuluModule) else module_to_dict(module)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load(path) -> Union[TruncatedModule, FuluModule]:
    doc = json.loads(Path(path).read_text())
    if "u_action" in doc:
        return fulu_from_dict(doc)
    return module_from_dict(doc)
