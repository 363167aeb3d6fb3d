"""One pass of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py <workload> --seed N --mode pass|setup|trace
        --spawned-at T --workdir DIR

``run.py`` starts this script once per pass and reads the JSON object it
prints as its last line.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before the start, so that the set-up time runs
from interpreter start to the first measured operation.  Mode ``setup``
stops there; ``trace`` installs the layer tracer before set-up and writes
its spans and counters to DIR.

Every output is checked against ``oracles`` (computed without usteen) or
against a property the method must have; a wrong output makes the pass
incorrect.  A failed operation is one that raises, a request that exits
nonzero or a check whose verdict is FAIL, as ``usteen verify --check``
would report it; only the outputs of the other operations are checked.
Operation times are printed scaled to a reference speed (``Clock``), and
the sum of their raw wall times as ``raw_pass_s``.
"""

from __future__ import annotations

import os

# GF(2) products go through float64 BLAS; pin it to one thread before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# -- time at a reference speed ---------------------------------------------------------
#
# The cores of a shared machine change speed by tens of percent over seconds to
# minutes: a fixed loop took 30 to 46 ms, second by second, on the 2-core machine
# the README describes, and a catalog-r2 pass took 7.5 to 13.6 s.  So every
# operation is also scaled to a reference speed: its wall time divided by the
# slowness of this core while it ran.  A timer signal runs a fixed interpreter
# loop every SAMPLE_EVERY_S, in this process, in between usteen's own bytecodes;
# the slowness is the loop's time over its reference time, and the time the loop
# takes is left out of the operation's wall time.  A change to usteen cannot
# change the loop.
SAMPLE_EVERY_S = 0.05
SAMPLE_ITERATIONS = 4_000
SAMPLE_REF_S = 0.00045  # the loop's median time on the reference machine
SAMPLE_MARGIN_S = 0.2  # an operation is scaled by the samples within this of its span


def _loop_time():
    t0 = time.perf_counter()
    acc = 0
    for i in range(SAMPLE_ITERATIONS):
        acc ^= (i * i) & 0xFFFF
    return time.perf_counter() - t0


class Clock:
    """Operation wall times, and this core's slowness sampled while they run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []  # (start, end, wall seconds without the samples' time)
        self.sample_t, self.samples, self.stolen = [], [], 0.0
        # the slowness at the end of set-up, which scales setup_s
        self.setup_slowness = statistics.median(_loop_time() for _ in range(9)) / SAMPLE_REF_S
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        with self.tracer.operation("calibrate") if self.tracer else contextlib.nullcontext():
            self.sample_t.append(time.perf_counter())
            self.samples.append(_loop_time() / SAMPLE_REF_S)
        self.stolen += time.perf_counter() - t0

    def start(self):
        return time.perf_counter(), self.stolen

    def done(self, token):
        end = time.perf_counter()
        start, stolen = token
        self.ops.append((start, end, end - start - (self.stolen - stolen)))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self):
        """Each operation's time at the reference speed."""
        out = []
        for start, end, wall in self.ops:
            lo = bisect.bisect_left(self.sample_t, start - SAMPLE_MARGIN_S)
            hi = bisect.bisect_right(self.sample_t, end + SAMPLE_MARGIN_S)
            out.append(wall / statistics.median(self.samples[lo:hi] or [self.setup_slowness]))
        return out


# -- catalog workloads ------------------------------------------------------------

CATALOGS = {
    # the ROADMAP's headline grid cell: all 17 checks, check-heavy, narrow eliminations
    "catalog-r2": {"D": 14, "max_rank": 2, "only": None},
    # the checks whose work grows with rank; construction and wide eliminations
    "catalog-r3": {"D": 8, "max_rank": 3, "only": ["T1", "T2", "T3", "T8", "T11"]},
}
ALL_CHECKS = [f"T{i}" for i in range(1, 18)]


def check_catalog(results, D, max_rank):
    """Errors in the checks that PASSed: each is certified and its tables are right."""
    errors = []
    top = 2 * (D // 2)
    singer_dims = {
        "F(1)": oracles.free_dims(1, D),
        "F(2)": oracles.free_dims(2, D),
        "F(1)(x)F(1)": oracles.tensor_dims(oracles.free_dims(1, D), oracles.free_dims(1, D), D),
        "H(Z/2)": oracles.hv_dims(1, D),
    }
    for r in results:
        if r.certified_degree < 1:
            errors.append(f"{r.id} certified only through degree {r.certified_degree}")
        want = {}
        if r.id == "T1":
            want = {f"rank{k}": oracles.series(k, D) for k in range(1, max_rank + 1)}
        elif r.id == "T2":
            want = {f"rank{k}": oracles.r1_forecast(oracles.hv_dims(k, D), top)
                    for k in range(1, max_rank + 1)}
        elif r.id == "T4":
            want = {name: oracles.r1_forecast(dims, top) for name, dims in singer_dims.items()}
        elif r.id == "T6":
            want = {"product": oracles.series(2, r.certified_degree)}
        elif r.id == "T8":
            if sorted(r.tables) != [f"rank{k}_c2" for k in range(1, max_rank + 1)]:
                errors.append(f"T8 tables {sorted(r.tables)} miss a rank")
        if want and r.tables != want:
            errors.append(f"{r.id} tables {r.tables} differ from the oracle {want}")
    return errors


def run_catalog(name, seed, tracer, clock):
    """One pass: the checks of ``harness.run_all``, each run and timed as one operation.

    The loop is ``run_all``'s own, so that a check that raises fails alone and
    the checks after it still run and are timed.
    """
    from usteen import harness

    spec = CATALOGS[name]
    expected = spec["only"] or ALL_CHECKS
    passed, failures = [], []
    ctx = tracer.operation(name) if tracer else contextlib.nullcontext()
    with ctx:
        for cid in expected:
            check = harness.make_spec(cid, D=spec["D"], max_rank=spec["max_rank"], seed=seed)
            token = clock.start()
            try:
                result = harness.run_check(check)
            except Exception as exc:
                result = None
                failures.append(f"{cid} raised {exc!r}")
            clock.done(token)
            if result is None:
                continue
            if result.passed:
                passed.append(result)
            else:
                failures.append(f"{cid} FAIL: {result.witness}")
    return {
        "attempted": len(expected),
        "failed": len(failures),
        "failures": failures,
        "errors": check_catalog(passed, spec["D"], spec["max_rank"]),
        "ids": list(expected),
    }


# -- compute-mix ---------------------------------------------------------------------

DEGREES = range(6, 13)
NAMED = ["F0", "F1", "F2", "F3", "HV1", "HV2", "PhiF1", "SigmaF", "F1xF1"]
REALMS = ["HV1", "HV2", "S1HV1", "S2HV1"]
FIXTURE_D = 12


def fixture_modules():
    """Fixture files written at set-up: name -> (module factory, oracle dims)."""
    from usteen.unstable import free_unstable, phi, polynomial_module, suspend, tensor

    D = FIXTURE_D
    f1 = oracles.free_dims(1, D)
    return {
        "sigma_f1": (lambda: suspend(free_unstable(1, D - 1)), oracles.shift(f1, 1, D)),
        "f1_x_hv1": (lambda: tensor(free_unstable(1, D), polynomial_module(1, D)),
                     oracles.tensor_dims(f1, oracles.hv_dims(1, D), D)),
        "phi_f2": (lambda: phi(free_unstable(2, D // 2)),
                   oracles.phi_dims(oracles.free_dims(2, D // 2), D)),
    }


def named_dims(name, D):
    """Oracle dims of a named module of the usteen command line, through D."""
    if name == "F0":
        return oracles.free_dims(0, D)
    if name in ("F1", "F2", "F3"):
        return oracles.free_dims(int(name[1]), D)
    if name in ("HV1", "HV2"):
        return oracles.hv_dims(int(name[2]), D)
    if name == "PhiF1":
        return oracles.phi_dims(oracles.free_dims(1, (D + 1) // 2), D)
    if name == "SigmaF":
        return oracles.shift([1], 1, D)
    if name == "F1xF1":
        return oracles.tensor_dims(oracles.free_dims(1, D), oracles.free_dims(1, D), D)
    raise KeyError(name)


def realm_dims(realm, D, series_rank=None):
    """(S<k>)HV<r>: the module dims, or the series shifted by k for Rtilde."""
    k = int(realm[1:realm.index("HV")]) if realm.startswith("S") else 0
    r = int(realm[realm.index("HV") + 2:])
    if series_rank:
        return oracles.shift(oracles.series(r, D), k, D)
    return oracles.hv_dims(r, D, k)


def make_requests(seed, fixture_paths):
    """The whole request grid, in an order drawn from the seed.

    Each (target, module, degree) appears once per pass, so the work of a
    pass does not depend on the seed; only the order does.
    """
    grid = []
    modules = NAMED + sorted(fixture_paths)
    for D in DEGREES:
        for what in ("module", "r1"):
            grid += [(what, m, D) for m in modules]
        for what in ("rtilde", "fix"):
            grid += [(what, m, D) for m in REALMS]
        grid += [("invariants", r, D) for r in (1, 2)]
        grid.append(("basis", None, D))
    random.Random(seed).shuffle(grid)
    return grid


def request_argv(req, fixture_paths):
    what, arg, D = req
    argv = ["compute", what, "--max-degree", str(D), "--format", "json"]
    if what == "invariants":
        argv += ["--rank", str(arg)]
    elif what != "basis":
        argv += ["--module", str(fixture_paths.get(arg, arg))]
    return argv


def check_response(req, doc, fixture_dims):
    """Errors in one compute response, against the oracles."""
    what, arg, D = req
    errors = []

    def expect(field, value):
        if doc.get(field) != value:
            errors.append(f"{field} is {doc.get(field)!r}, expected {value!r}")

    if what in ("module", "r1"):
        dims = fixture_dims[arg] if arg in fixture_dims else named_dims(arg, D)
        dims = dims[: D + 1]
        if what == "module":
            expect("D", D)
            expect("dims", dims)
            expect("valid", True)
        else:
            top = 2 * (D // 2)
            expect("certified_degree", top)
            expect("dims", oracles.r1_forecast(dims, top))
            expect("free_on_distinguished_basis", True)
    elif what == "rtilde":
        expect("certified_degree", D)
        expect("dims", realm_dims(arg, D, series_rank=True))
    elif what == "fix":
        expect("certified_degree", D)
        expect("dims", realm_dims(arg, D))
        expect("matches_module", True)
    elif what == "invariants":
        expect("certified_degree", D)
        expect("dims", oracles.series(arg, D))
        expect("series", oracles.series(arg, D))
    elif what == "basis":
        degrees = doc.get("admissible_basis", [])
        counts = [d.get("count") for d in degrees]
        if counts != oracles.admissible_counts(D):
            errors.append(f"counts {counts} differ from {oracles.admissible_counts(D)}")
        for d in degrees:
            seqs = {oracles.parse_monomial(m) for m in d["monomials"]}
            if seqs != set(oracles.admissible_sequences(d["degree"])):
                errors.append(f"degree {d['degree']}: wrong admissible monomials")
    return errors


class ComputeMix:
    """Closed loop, one client: the seeded request grid through ``cli.main``."""

    def __init__(self, seed, workdir):
        from usteen import cli, fixtures

        self.cli = cli

        fixdir = Path(workdir) / "fixtures"
        fixdir.mkdir(parents=True, exist_ok=True)
        self.fixture_paths, self.fixture_dims = {}, {}
        self.bytes_written = 0
        for name, (build, dims) in fixture_modules().items():
            path = fixdir / f"{name}.json"
            fixtures.save(build(), path)
            self.bytes_written += path.stat().st_size
            self.fixture_paths[name] = path
            self.fixture_dims[name] = dims
        self.requests = make_requests(seed, self.fixture_paths)

    def run(self, tracer, clock):
        errors, failures = [], []
        for req in self.requests:
            argv = request_argv(req, self.fixture_paths)
            out = io.StringIO()
            ctx = tracer.operation(" ".join(map(str, req))) if tracer else contextlib.nullcontext()
            token = clock.start()
            try:
                with ctx, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = self.cli.main(argv)
            except Exception as exc:
                rc = repr(exc)
            clock.done(token)
            if rc != 0:
                failures.append(f"{' '.join(argv)}: exit {rc}")
                continue
            try:
                doc = json.loads(out.getvalue())
            except ValueError:
                errors.append(f"{' '.join(argv)}: output is not JSON")
                continue
            errors += [f"{' '.join(argv)}: {e}" for e in check_response(req, doc, self.fixture_dims)]
        return {"attempted": len(self.requests), "failed": len(failures),
                "failures": failures, "errors": errors}


WORKLOADS = ["catalog-r2", "catalog-r3", "compute-mix"]


# -- per-layer metrics ---------------------------------------------------------------

def layer_metrics(tracer, originals, bytes_written):
    calls, incl, k, ks = tracer.calls, tracer.inclusive, tracer.kernel, tracer.kernel_s
    adem = originals["steenrod.adem_normal_form"].cache_info()
    m = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0)
         for layer in ("f2core", "steenrod", "unstable", "fulu", "singer", "lannes",
                       "harness", "cli")}
    m.update({
        "f2core.elim_calls": k["narrow"] + k["mid"] + k["wide"],
        "f2core.elim_bits": k["bits"],
        "f2core.elim_calls_narrow": k["narrow"],
        "f2core.elim_narrow_s": ks["narrow"],
        "f2core.elim_calls_mid": k["mid"],
        "f2core.elim_mid_s": ks["mid"],
        "f2core.elim_calls_wide": k["wide"],
        "f2core.elim_wide_s": ks["wide"],
        "f2core.matmul_calls": k["matmul"],
        "f2core.matmul_s": ks["matmul"],
        "steenrod.adem_hits": adem.hits,
        "steenrod.adem_misses": adem.misses,
        "unstable.subquotient_s": incl["unstable.subquotient"],
        "unstable.modules_built": calls["unstable.TruncatedModule.__init__"],
        "unstable.subquotient_calls": calls["unstable.subquotient"],
        "unstable.layout_lookups": sum(calls[f"unstable.TensorLayout.{n}"]
                                       for n in ("blocks", "offset", "index")),
        "fulu.extensions_built": calls["fulu.extend_scalars"],
        "fulu.q_data_calls": calls["fulu.q_data"],
        "singer.r1_calls": calls["singer.r1"],
        "lannes.calculus_built": calls["lannes.RealmCalculus.__init__"],
        "lannes.calculus_distinct": len(tracer.realms),
        "lannes.t_apply_s": incl["lannes.t_apply"],
        "lannes.fix_s": incl["lannes.fix_presented"],
        "lannes.t_apply_calls": calls["lannes.t_apply"],
        "lannes.block_lookups": calls["lannes.RealmObject.block"] + calls["lannes.RealmObject.index"],
        "fixtures.save_s": incl["fixtures.save"],
        "fixtures.load_s": incl["fixtures.load"],
        "fixtures.bytes_written": bytes_written,
    })
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["pass", "setup", "trace"], required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import numpy
    import usteen

    if Path(usteen.__file__).resolve().parent != ROOT / "src" / "usteen":
        sys.exit(f"usteen was imported from {usteen.__file__}, not from this checkout")
    tracer = originals = None
    if args.mode == "trace":
        import layertrace
        from usteen import (  # noqa: F401  (every layer must be loaded before patching)
            _gf2py, cli, f2core, fixtures, fulu, harness, lannes, singer, steenrod, unstable)

        tracer = layertrace.Tracer()
        mods = [sys.modules[n] for n in layertrace.MODULE_LAYER if n in sys.modules]
        originals = layertrace.install(tracer, mods)

    if args.workload == "compute-mix":
        workload = ComputeMix(args.seed, args.workdir)
        bytes_written = workload.bytes_written
        run = workload.run
    else:
        from usteen import harness  # noqa: F401  (imported as part of set-up)

        bytes_written = 0

        def run(tr, clock):
            return run_catalog(args.workload, args.seed, tr, clock)

    raw_setup_s = time.monotonic() - args.spawned_at
    clock = Clock(tracer)
    out = {"setup_s": raw_setup_s / clock.setup_slowness, "raw_setup_s": raw_setup_s,
           "kernel": usteen.KERNEL_NAME, "numpy": numpy.__version__}
    if args.mode == "setup":
        clock.stop()
    else:
        out.update(run(tracer, clock))
        clock.stop()
        out["latencies"] = clock.scaled()
        out["raw_pass_s"] = sum(wall for _, _, wall in clock.ops)
        out["pass_s"] = sum(out["latencies"])
        if "ids" in out:
            out["checks"] = dict(zip(out.pop("ids"), out["latencies"]))
        out["speed"] = 1 / statistics.median(clock.samples or [clock.setup_slowness])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, originals, bytes_written)
        trace_path = Path(args.workdir) / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "layers": out["layers"]})
        out["trace_file"] = str(trace_path)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
