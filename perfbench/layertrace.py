"""Layer-by-layer tracing of the usteen package, installed from outside it.

``install`` wraps the public functions, methods and properties of every
usteen module and rebinds each wrapped name wherever a module bound it
(``from .f2core import rref`` copies the name, so patching f2core alone
would miss the copy in lannes).  A layer is one module of ``src/usteen``.

* Every call of a wrapped name is counted, also from inside its own layer.
* A call that crosses into another layer opens a span.  A call from a layer
  into itself opens none.  A layer's self time is the time of its spans
  minus the time of their child spans.
* A few names named in ``TIMED`` also keep their inclusive time, measured
  at the outermost call.
* The GF(2) kernel (``rref_inplace`` and ``mat_mult``) is counted and timed
  per call, with eliminations bucketed by width.

Spans up to ``SPAN_DEPTH`` deep are kept in memory as records and written
out with the counters by ``Tracer.dump``; deeper spans are only aggregated.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("f2core", "steenrod", "unstable", "fulu", "singer", "lannes",
          "harness", "fixtures", "cli")
# the NumPy elimination kernel belongs to the f2core layer
MODULE_LAYER = {f"usteen.{name}": name for name in LAYERS}
MODULE_LAYER["usteen._gf2py"] = "f2core"
MODULE_LAYER["usteen._gf2c"] = "f2core"

# names whose inclusive time is kept, keyed as "<layer>.<qualified name>"
TIMED = ("unstable.subquotient", "lannes.t_apply", "lannes.fix_presented",
         "fixtures.save", "fixtures.load")
# operators are public API even though their names start with an underscore
PUBLIC_DUNDERS = ("__init__", "__matmul__", "__add__", "__eq__")
NARROW, MID = 64, 1024  # elimination width buckets: <= 64, 65..1024, > 1024 cols
SPAN_DEPTH = 3  # benchmark operation, first layer, second layer


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.span_calls = Counter()
        self.span_s = defaultdict(float)
        self.kernel = Counter()
        self.kernel_s = defaultdict(float)
        self.realms = set()
        self.spans = []
        # frame: [layer, start, child time, span id]
        self._stack = [["bench", time.perf_counter(), 0.0, -1]]
        self._depth = Counter()

    # -- spans ---------------------------------------------------------------

    def _push(self, layer, key, t0):
        stack = self._stack
        sid = -1
        if len(stack) <= SPAN_DEPTH:
            sid = len(self.spans)
            self.spans.append([key, stack[-1][3], t0, None])
        frame = [layer, t0, 0.0, sid]
        stack.append(frame)
        return frame

    def _pop(self, frame, key, t1):
        self._stack.pop()
        dt = t1 - frame[1]
        self.self_s[frame[0]] += dt - frame[2]
        self._stack[-1][2] += dt
        self.span_calls[key] += 1
        self.span_s[key] += dt
        if frame[3] >= 0:
            self.spans[frame[3]][3] = t1

    @contextlib.contextmanager
    def operation(self, name):
        """A span for one benchmark operation (a check, a request or a speed sample)."""
        frame = self._push("bench", name, time.perf_counter())
        try:
            yield
        finally:
            self._pop(frame, name, time.perf_counter())

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn, layer, key):
        calls, stack, perf = self.calls, self._stack, time.perf_counter
        timed = key in TIMED
        inclusive, depth = self.inclusive, self._depth
        observe = self._observe_realm if key == "lannes.RealmCalculus.__init__" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            if observe is not None:
                observe(args)
            outer = timed and not depth[key]
            if stack[-1][0] == layer and not outer:
                return fn(*args, **kwargs)
            t0 = perf()
            frame = self._push(layer, key, t0) if stack[-1][0] != layer else None
            if outer:
                depth[key] = 1
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                if outer:
                    depth[key] = 0
                    inclusive[key] += t1 - t0
                if frame is not None:
                    self._pop(frame, key, t1)

        return traced

    def _observe_realm(self, args):
        X = args[1]
        self.realms.add((X.summands, X.D))

    def wrap_rref(self, fn):
        kernel, kernel_s, perf = self.kernel, self.kernel_s, time.perf_counter

        @functools.wraps(fn)
        def rref_inplace(work, nrows, ncols, npivot_cols):
            bucket = "narrow" if ncols <= NARROW else "mid" if ncols <= MID else "wide"
            t0 = perf()
            try:
                return fn(work, nrows, ncols, npivot_cols)
            finally:
                kernel_s[bucket] += perf() - t0
                kernel[bucket] += 1
                kernel["bits"] += nrows * ncols

        return rref_inplace

    def wrap_matmul(self, fn):
        kernel, kernel_s, perf = self.kernel, self.kernel_s, time.perf_counter

        @functools.wraps(fn)
        def mat_mult(*args):
            t0 = perf()
            try:
                return fn(*args)
            finally:
                kernel_s["matmul"] += perf() - t0
                kernel["matmul"] += 1

        return mat_mult

    # -- output ------------------------------------------------------------------

    def dump(self, path, extra=None):
        doc = {
            "calls": dict(sorted(self.calls.items())),
            "inclusive_s": dict(sorted(self.inclusive.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "span_calls": dict(sorted(self.span_calls.items())),
            "span_s": dict(sorted(self.span_s.items())),
            "kernel": dict(sorted(self.kernel.items())),
            "kernel_s": dict(sorted(self.kernel_s.items())),
            "realms_distinct": len(self.realms),
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "spans": self.spans,
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _is_callable_entry(obj):
    # plain functions and functools.lru_cache wrappers around them
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


def install(tracer, modules):
    """Wrap the public names of ``modules`` and rebind them everywhere.

    Returns the original objects keyed by wrapped key, so that callers can
    still read state such as ``cache_info()`` from an lru_cache.
    """
    replaced = {}  # id(original) -> wrapper
    originals = {}
    for mod in modules:
        layer = MODULE_LAYER[mod.__name__]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            key = f"{layer}.{name}"
            if name == "rref_inplace":
                wrapper = tracer.wrap_rref(obj)
            elif name == "mat_mult":
                wrapper = tracer.wrap_matmul(obj)
            elif _is_callable_entry(obj):
                wrapper = tracer.wrap(obj, layer, key)
            elif inspect.isclass(obj):
                _patch_class(tracer, obj, layer)
                continue
            else:
                continue
            replaced[id(obj)] = wrapper
            originals[key] = obj
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
    return originals


def _patch_class(tracer, cls, layer):
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name not in PUBLIC_DUNDERS:
            continue
        key = f"{layer}.{cls.__name__}.{name}"
        if inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(attr, layer, key))
        elif isinstance(attr, classmethod):
            setattr(cls, name, classmethod(tracer.wrap(attr.__func__, layer, key)))
        elif isinstance(attr, staticmethod):
            setattr(cls, name, staticmethod(tracer.wrap(attr.__func__, layer, key)))
        elif isinstance(attr, property) and attr.fget is not None:
            setattr(cls, name, property(tracer.wrap(attr.fget, layer, key),
                                        attr.fset, attr.fdel, attr.__doc__))
        elif isinstance(attr, functools.cached_property):
            attr.func = tracer.wrap(attr.func, layer, key)
