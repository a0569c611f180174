"""Span tracer that wraps tatebv's public functions from outside the package.

Only traced runs import this module.  ``Tracer.install`` replaces each
listed function in every tatebv module that bound it (``from .bv import
cup`` makes separate bindings in ``harness``, ``transfer`` and ``verify``)
and each listed method on the class that defines it.  Every call then
opens a span: name, thread id, parent span, start and end.  Spans are
folded into per-name totals when they close, so memory stays flat however
many calls a run makes.

Self time is a span's duration minus the durations of its child spans.
A span opened on a thread with no open span of its own (``cmd_dims``
computes per-class cohomology on a ThreadPoolExecutor worker, and context
variables do not reach that worker) takes as parent the innermost open
span of the thread that installed the tracer.  Children of one parent are
assumed not to overlap in time, which holds while one worker runs at once.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# modules whose public functions or methods are timed; a layer is a module
LAYERS = ("linalg", "groups", "complexes", "bv", "decomposition", "transfer",
          "harness", "verify")


def _observe_kernel(counters, args, result, span):
    from tatebv.linalg import _dense_eligible  # the engine's own dense-or-sparse rule
    M = args[0]
    dense = _dense_eligible(M)
    counters["linalg.kernel_basis.dense_s" if dense else "linalg.kernel_basis.sparse_s"] += span.dur
    counters["linalg.kernel_basis.cols"] += M.ncols
    counters["linalg.kernel_basis.nnz"] += sum(len(col) for col in M.columns)
    counters["linalg.kernel_basis.rank"] += M.ncols - len(result)


def _observe_quotient(counters, args, result, span):
    q = args[0]
    counters["linalg.QuotientSpace.image_vectors"] += len(q.image_basis)
    counters["linalg.QuotientSpace.dim"] += q.dim


def _on_miss(key, measure=None):
    """Observer for a cached lookup: a call that opened a child span missed
    the cache and built its result."""
    def observe(counters, args, result, span):
        if span.children:
            counters[key] += measure(result) if measure else 1
    return observe


def _observe_checks(counters, args, result, span):
    if "checks" in result:
        counters["verify.checks"] += len(result["checks"])
        counters["verify.failed_checks"] += sum(not c["ok"] for c in result["checks"])
    for suite in result.get("suites", {}).values():
        counters["verify.checks"] += suite["runs"]
        counters["verify.failed_checks"] += suite["failures"]


# (module, function, observer) wrapped wherever a tatebv module bound them
FUNCTIONS = (
    ("linalg", "kernel_basis", _observe_kernel),
    ("linalg", "pivot_columns", None),
    ("groups", "conjugacy_classes", None),
    ("groups", "right_coset_system", None),
    ("groups", "double_cosets", None),
    ("bv", "cup", None),
    ("bv", "bv_operator", None),
    ("bv", "m3", None),
    ("bv", "pairing", None),
    ("harness", "cmd_dims", None),
    ("harness", "cmd_tables", None),
    ("verify", "cmd_verify_s3", _observe_checks),
    ("verify", "cmd_selftest", _observe_checks),
)

# (module, class, method, span name, observer); methods are patched on the
# class that defines them, so subclass overrides that call super() count once
METHODS = (
    ("linalg", "QuotientSpace", "__init__", "linalg.QuotientSpace.build", _observe_quotient),
    ("linalg", "QuotientSpace", "project", "linalg.QuotientSpace.project", None),
    ("linalg", "QuotientSpace", "lift", "linalg.QuotientSpace.lift", None),
    ("complexes", "_BaseComplex", "matrix", "complexes.matrix",
     _on_miss("complexes.matrix.nnz", lambda M: sum(len(c) for c in M.columns))),
    ("complexes", "_BaseComplex", "basis", "complexes.basis", None),
    ("complexes", "_BaseComplex", "cohomology", "complexes.cohomology",
     _on_miss("complexes.cohomology.computed")),
    ("complexes", "_BaseComplex", "differential", "complexes.differential", None),
    ("decomposition", "ClassDecomposition", "retract_up", "decomposition.retract_up", None),
    ("decomposition", "ClassDecomposition", "retract_down", "decomposition.retract_down", None),
    ("decomposition", "ClassDecomposition", "homotopy", "decomposition.homotopy", None),
    ("transfer", "TransferContext", "double_coset_cup_reps", "transfer.double_coset_cup_reps", None),
    ("transfer", "TransferContext", "group_cup_rep", "transfer.group_cup_rep", None),
    # a span only so that complex_for sees a miss as a child span
    ("complexes", "GroupComplex", "__init__", "complexes.GroupComplex.init", None),
    ("transfer", "TransferContext", "complex_for", "transfer.complex_for",
     _on_miss("transfer.complex_for.created")),
    ("harness", "DecOps", "cup", "harness.DecOps.cup", None),
    ("harness", "DecOps", "delta", "harness.DecOps.delta", None),
    ("harness", "DecOps", "bracket", "harness.DecOps.bracket", None),
)


class _Span:
    __slots__ = ("name", "thread", "parent", "children", "child_s", "dur")

    def __init__(self, name, thread, parent):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.children = 0
        self.child_s = 0.0
        self.dur = 0.0


class Tracer:
    def __init__(self):
        self.main_thread = threading.get_ident()
        self._stacks = defaultdict(list)  # thread id -> open spans
        self._lock = threading.Lock()
        # name -> [calls, inclusive seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        self.last_root_end = None

    def install(self):
        """Wrap the listed functions and methods; tatebv must be imported."""
        import tatebv.cli  # noqa: F401  (loads every module that binds a name)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "tatebv" or n.startswith("tatebv.")]
        for mod, name, observe in FUNCTIONS:
            original = getattr(sys.modules[f"tatebv.{mod}"], name)
            traced = self._wrap(f"{mod}.{name}", original, observe)
            for m in modules:
                if getattr(m, name, None) is original:
                    setattr(m, name, traced)
        for mod, cls_name, meth, span, observe in METHODS:
            cls = getattr(sys.modules[f"tatebv.{mod}"], cls_name)
            setattr(cls, meth, self._wrap(span, cls.__dict__[meth], observe))

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span, t0)
            if observe is not None:
                with self._lock:
                    observe(self.counters, args, result, span)
            return result
        return traced

    def _enter(self, name):
        tid = threading.get_ident()
        stack = self._stacks[tid]
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks[self.main_thread]
            parent = main[-1] if tid != self.main_thread and main else None
        span = _Span(name, tid, parent)
        stack.append(span)
        return span, time.perf_counter()

    def _exit(self, span, t0):
        t1 = time.perf_counter()
        dur = span.dur = t1 - t0
        self._stacks[span.thread].pop()
        with self._lock:
            if span.parent is not None:
                span.parent.children += 1
                span.parent.child_s += dur
            elif span.thread == self.main_thread:
                self.last_root_end = t1
            if span.thread != self.main_thread:
                self.counters["trace.worker_spans"] += 1
            agg = self.spans[span.name]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - span.child_s

    def summary(self):
        """Per-name totals as plain JSON data."""
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters)}


def merge(summaries):
    """Sum span totals and counters over several traced processes."""
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    counters = defaultdict(float)
    for s in summaries:
        for k, v in s["spans"].items():
            spans[k] = [a + b for a, b in zip(spans[k], v)]
        for k, v in s["counters"].items():
            counters[k] += v
    return {"spans": dict(spans), "counters": dict(counters)}


def layer_metrics(summary):
    """Flatten a summary into the per-layer metric names.

    Every span name gets ``.calls``, ``.s`` (inclusive) and ``.self_s``;
    counters keep their names.  ``share.<layer>`` is the layer's self time
    over the self time of all spans.
    """
    out = {}
    for name, (calls, incl, self_s) in summary["spans"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = incl
        out[f"{name}.self_s"] = self_s
    out.update(summary["counters"])
    total_self = sum(v[2] for v in summary["spans"].values())
    for layer in LAYERS:
        layer_self = sum(v[2] for k, v in summary["spans"].items() if k.split(".")[0] == layer)
        out[f"share.{layer}"] = layer_self / total_self if total_self else 0.0
    out["linalg.QuotientSpace.builds"] = out.get("linalg.QuotientSpace.build.calls", 0)
    out["linalg.QuotientSpace.build_s"] = out.get("linalg.QuotientSpace.build.s", 0.0)
    calls = out.get("complexes.cohomology.calls", 0)
    computed = out.get("complexes.cohomology.computed", 0)
    out["complexes.cohomology.hit_ratio"] = (calls - computed) / calls if calls else 0.0
    return out
