"""Command-line interface: compute tables and run the verification catalog.

Exit codes: 0 when all checks pass, 1 when a verification check or a
certification inside ``compute`` fails, 2 for usage or input errors and
when memory runs out.  Reports go to stdout, diagnostics to stderr.
Output is deterministic unless timings are requested.

Requests in one process share what they build.  ``compute`` and
``verify`` read one calculus per realm object (``lannes.calculus``),
certified once, and a failing certificate fails every request that reads
it.  A built-in module is built once per name and degree.  A fixture file
is loaded and checked on every request, since it can change between
requests, and ``compute module`` validates its module on every request.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache
from pathlib import Path

from . import fixtures
from .harness import CATALOG, make_spec, poincare_coeffs, report, run_check
from .lannes import calculus, hv, hv_module, realm_suspend
from .singer import r1
from .steenrod import admissible_basis
from .unstable import (
    TheoryViolation,
    TruncatedModule,
    TruncationError,
    free_unstable,
    phi,
    suspend,
    tensor,
    truncate,
    unit_module,
)

_REALM_PATTERN = re.compile(r"^(?:S(?P<s>\d+))?HV(?P<r>\d+)$")


def _named_module(name: str, D: int) -> TruncatedModule:
    """The module ``name`` through degree ``D``; a module that cannot be built
    or a fixture that cannot be loaded is an input error."""
    try:
        return _build_module(name, D)
    except (ValueError, TruncationError) as exc:  # JSONDecodeError is a ValueError
        raise SystemExit2(f"cannot build module {name!r} through degree {D}: {exc}") from exc


def _build_module(name: str, D: int) -> TruncatedModule:
    path = Path(name)
    if path.suffix == ".json" and path.exists():
        try:
            loaded = fixtures.load(path)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"fixture has a missing or mistyped field: {exc}") from exc
        return truncate(loaded, min(loaded.D, D))
    return _builtin_module(name, D)


@lru_cache(maxsize=None)
def _builtin_module(name: str, D: int) -> TruncatedModule:
    """The built-in module ``name`` through degree ``D``, built once per
    process: it is fixed by its name and degree, unlike a fixture file,
    which can change between requests and is loaded on each."""
    if name in ("F", "F0", "HV0"):
        return unit_module(D)
    if name in ("F1", "F2", "F3"):
        return free_unstable(int(name[1]), D)
    if name == "HZ2":
        return hv_module(1, D)
    if name.startswith("HV") and name[2:].isdigit():
        return hv_module(int(name[2:]), D)
    if name == "PhiF1":
        return truncate(phi(free_unstable(1, (D + 1) // 2)), D, name="Ph(F(1))")
    if name == "SigmaF":
        return suspend(unit_module(D - 1))
    if name == "F1xF1":
        f1 = free_unstable(1, D)
        return tensor(f1, f1)
    raise SystemExit2(
        f"unknown module {name!r}; use F0..F3, HZ2, HV<r>, PhiF1, SigmaF, F1xF1 "
        "or a fixture file path"
    )


def _named_realm(name: str, D: int):
    m = _REALM_PATTERN.match(name)
    if not m:
        raise SystemExit2(f"realm modules must match (S<k>)?HV<r>, got {name!r}")
    X = hv(int(m.group("r")), D)
    if m.group("s"):
        X = realm_suspend(X, int(m.group("s")))
    return X


class SystemExit2(Exception):
    """A usage or input error (mapped to exit code 2)."""


def _emit(doc: dict, lines, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _dims_csv(dims) -> str:
    return ",".join(str(d) for d in dims)


def _cmd_compute(args) -> int:
    D = args.max_degree
    what = args.what
    if what == "basis":
        degrees = []
        lines = []
        for n in range(D + 1):
            monos = [m.label() for m in admissible_basis(n)]
            degrees.append({"degree": n, "count": len(monos), "monomials": monos})
            lines.append(f"{n}: {len(monos)}: {' '.join(monos)}")
        lines.append("counts: " + _dims_csv(d["count"] for d in degrees))
        _emit({"admissible_basis": degrees}, lines, args.format)
        return 0
    if what == "module":
        M = _named_module(args.module, D)
        rep = M.validate()
        dims = [M.dim(n) for n in range(min(D, M.D) + 1)]
        doc = {
            "name": M.name,
            "D": min(D, M.D),
            "dims": dims,
            "valid": rep.ok,
            "violations": rep.violations,
        }
        lines = [
            f"module {M.name} through degree {doc['D']}",
            "dims: " + _dims_csv(dims),
            "validation: " + ("ok" if rep.ok else "; ".join(rep.violations)),
        ]
        _emit(doc, lines, args.format)
        return 0
    if what == "r1":
        M = _named_module(args.module, D)
        if Path(args.module).suffix == ".json":  # the named modules are valid by construction
            rep = M.validate()
            if not rep.ok:
                raise SystemExit2(f"fixture {args.module!r} is not an unstable module: "
                                  f"{rep.violations[0]}")
        S = r1(M)
        dims = [S.fulu.dim(n) for n in range(S.D + 1)]
        doc = {
            "name": f"R1({M.name})",
            "certified_degree": S.D,
            "dims": dims,
            "free_on_distinguished_basis": S.free_gens.ok,
        }
        lines = [
            f"R1({M.name}) through degree {S.D}",
            "dims: " + _dims_csv(dims),
            f"free on the distinguished basis: {S.free_gens.ok}",
        ]
        _emit(doc, lines, args.format)
        return 0
    if what == "rtilde":
        X = _named_realm(args.module, D)
        K = calculus(X).rtilde
        dims = [K.dim(n) for n in range(D + 1)]
        doc = {"name": f"Rtilde({X.name})", "certified_degree": D, "dims": dims}
        lines = [f"Rtilde({X.name}) through degree {D}", "dims: " + _dims_csv(dims)]
        _emit(doc, lines, args.format)
        return 0
    if what == "invariants":
        if args.rank is None:
            raise SystemExit2("compute invariants requires --rank")
        inv, _ = calculus(hv(args.rank, D)).invariants()
        dims = [inv.dim(n) for n in range(D + 1)]
        series = poincare_coeffs(args.rank, D)
        doc = {
            "name": f"invariants(rank {args.rank})",
            "certified_degree": D,
            "dims": dims,
            "series": series,
        }
        lines = [
            f"stabilizer invariants at rank {args.rank} through degree {D}",
            "dims:   " + _dims_csv(dims),
            "series: " + _dims_csv(series),
        ]
        _emit(doc, lines, args.format)
        return 0
    if what == "fix":
        X = _named_realm(args.module, D)
        calc = calculus(X)
        calc.rtilde  # certifies the equalizer
        dims = list(calc.fix_parts["kernel"].table.dims)
        base = list(X.table.dims)
        doc = {
            "name": f"Fix(Rtilde({X.name}))",
            "certified_degree": D,
            "dims": dims,
            "matches_module": dims == base,
        }
        lines = [
            f"Fix(Rtilde({X.name})) through degree {D}",
            "dims: " + _dims_csv(dims),
            f"matches the module: {dims == base}",
        ]
        _emit(doc, lines, args.format)
        return 0
    raise SystemExit2(f"unknown compute target {what!r}")


def _cmd_verify(args) -> int:
    if not args.all and not args.check:
        raise SystemExit2("verify needs --check <ID> or --all")
    ids = [args.check] if args.check else [cid for cid, *_ in CATALOG]
    try:
        specs = [
            make_spec(cid, D=args.max_degree, max_rank=args.max_rank, seed=args.seed)
            for cid in ids
        ]
    except (KeyError, ValueError) as exc:  # an unknown check or a degree below its minimum
        raise SystemExit2(str(exc)) from exc
    results = [run_check(spec) for spec in specs]
    sys.stdout.write(report(results, args.format, include_timings=args.timings))
    return 0 if all(r.passed for r in results) else 1


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, like every input error, exit 2
    with one stderr line (argparse's own print the usage first)."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="usteen",
        description="Truncated unstable-module computations and verification checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="print dimension tables and bases")
    comp.add_argument("what", choices=["basis", "module", "r1", "rtilde", "invariants", "fix"])
    comp.add_argument("--module", default="HZ2", help="module name or fixture file")
    comp.add_argument("--max-degree", type=_int_at_least(0), default=10)
    comp.add_argument("--rank", type=_int_at_least(0), default=None)
    comp.add_argument("--format", choices=["text", "json"], default="text")
    comp.set_defaults(fn=_cmd_compute)

    ver = sub.add_parser("verify", help="run verification checks")
    ver.add_argument("--check", default=None, help="a single check id, e.g. T3")
    ver.add_argument("--all", action="store_true", help="run the whole catalog")
    ver.add_argument("--max-degree", type=_int_at_least(0), default=10)
    ver.add_argument("--max-rank", type=_int_at_least(1), default=2)
    ver.add_argument("--seed", type=int, default=2)
    ver.add_argument("--format", choices=["text", "json"], default="text")
    ver.add_argument("--timings", action="store_true",
                     help="include wall times (breaks byte-identical output)")
    ver.set_defaults(fn=_cmd_verify)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and reused: parsing
    leaves it unchanged and returns a fresh namespace every time."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        print("error: out of memory; lower --max-degree or the rank", file=sys.stderr)
    except TheoryViolation as exc:  # a certification inside compute failed
        print(f"check failed: structural violation: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
