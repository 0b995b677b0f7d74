"""Per-layer tracing of monadcalc from outside the package.

The tracer never edits the package's source.  It replaces each public
function of a layer module with a wrapper in every module namespace that
binds it (``inverse`` is bound in matrix, p2, eigen, blowup, trivialize
and generate, for example), and wraps ``Matrix.__matmul__`` and
``Subspace.from_span`` on their classes.  Every wrapper call records a
span (name, start, end, parent) into flat arrays that stay in memory
until the run ends; self time is computed from them afterwards.

The ``QI`` operators are only counted: a span around each scalar
operation would cost more than the operation itself, and their time is
already part of the self time of the span that runs them.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

# Layer modules whose public functions get spans.  ``field`` is absent on
# purpose: its scalar operators are counted, not timed.
LAYER_MODULES = ("matrix", "closure", "eigen", "p2", "blowup", "stratify",
                 "trivialize", "jsonio", "generate", "polymat", "cli")

COUNTED_QI = {
    "__mul__": "field.qi_mul", "__rmul__": "field.qi_mul",
    "__add__": "field.qi_addsub", "__radd__": "field.qi_addsub",
    "__sub__": "field.qi_addsub", "__rsub__": "field.qi_addsub",
}

# Spans whose functions carry bytes of JSON text in or out.
BYTES_IN = {"jsonio.loads"}
BYTES_OUT = {"jsonio.dumps"}


class Tracer:
    """Installs wrappers, records spans, and summarises them per layer."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._undo: list = []
        # One dict for the life of the tracer: the counting wrappers hold it.
        self.counts = {name: 0 for name in set(COUNTED_QI.values())}
        self.counts["field.qi_inverse"] = 0
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        for name in self.counts:
            self.counts[name] = 0
        self.bytes: dict = {}
        self._stack = [-1]

    # -- installation -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self
        count_in = name in BYTES_IN
        count_out = name in BYTES_OUT
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1])
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            tracer.span_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                tracer._stack.pop()
            if count_in:
                tracer.bytes[name] = tracer.bytes.get(name, 0) + len(args[0].encode())
            elif count_out:
                tracer.bytes[name] = tracer.bytes.get(name, 0) + len(out.encode())
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer of the already imported monadcalc package."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("monadcalc")
        mods = [pkg] + [importlib.import_module(f"monadcalc.{m}")
                        for m in ("field",) + LAYER_MODULES]
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"monadcalc.{short}")
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._span_wrapper(fn, f"{short}.{name}")
                for owner in mods:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            self._set(owner, bound, wrapped)

        from monadcalc.field import QI
        from monadcalc.matrix import Matrix, Subspace

        self._set(Matrix, "__matmul__",
                  self._span_wrapper(Matrix.__matmul__, "matrix.matmul"))
        from_span = Subspace.__dict__["from_span"].__func__
        self._set(Subspace, "from_span",
                  classmethod(self._span_wrapper(from_span, "matrix.from_span")))

        counts = self.counts
        for attr, key in COUNTED_QI.items():
            self._set(QI, attr, _counted_binary(QI.__dict__[attr], counts, key))
        self._set(QI, "inverse",
                  _counted_unary(QI.__dict__["inverse"], counts, "field.qi_inverse"))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summary --------------------------------------------------------

    def summary(self) -> dict:
        """{name: {"calls", "self_ms", "bytes"}} plus the raw QI counts."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict = {}
        for i in range(n):
            rec = out.setdefault(self.names[self.span_name[i]],
                                 {"calls": 0, "self_ms": 0.0, "bytes": 0})
            rec["calls"] += 1
            rec["self_ms"] += (dur[i] - child[i]) * 1e3
        for name, b in self.bytes.items():
            out[name]["bytes"] = b
        for name, c in self.counts.items():
            out[name] = {"calls": c, "self_ms": 0.0, "bytes": 0}
        out["trivialize.checks_under_verify"] = {
            "calls": self._calls_under("p2.is_concentrated_at_origin",
                                       "trivialize.verify_trivialization"),
            "self_ms": 0.0, "bytes": 0}
        return out

    def _calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made (at any depth) inside an ``ancestor`` span."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        nid, aid = self._name_ids[name], self._name_ids[ancestor]
        total = 0
        for i in range(len(self.span_start)):
            if self.span_name[i] != nid:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != aid:
                p = self.span_parent[p]
            total += p >= 0
        return total


def _counted_binary(fn, counts, key):
    def wrapper(a, b):
        counts[key] += 1
        return fn(a, b)
    return wrapper


def _counted_unary(fn, counts, key):
    def wrapper(a):
        counts[key] += 1
        return fn(a)
    return wrapper


def merge(into: dict, summary: dict) -> dict:
    """Add one summary into another (used for traced CLI processes)."""
    for name, rec in summary.items():
        acc = into.setdefault(name, {"calls": 0, "self_ms": 0.0, "bytes": 0})
        for key in ("calls", "self_ms", "bytes"):
            acc[key] += rec[key]
    return into
