"""Spans around every call into the package's layers, recorded from outside.

install() rebinds each public function of each layer module in every
jacobimax namespace that holds it (so `jacobimax._kernels.recurrence`,
`jacobimax.extrema.eval_orthonormal_parts` and `jacobimax.verify.scan_extrema`
all route through a wrapper), plus the arithmetic methods of ScaledReal.
uninstall() puts the originals back.  Spans carry a name, start, end, parent
and item id; they stay in memory and are written out by save().  Self time is
a span's duration minus the time covered by its child spans.
"""

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = {
    "jacobimax._kernels": "kernels",
    "jacobimax.jacobi": "jacobi",
    "jacobimax.scaled": "scaled",
    "jacobimax.gammafn": "gammafn",
    "jacobimax.envelope": "envelope",
    "jacobimax.extrema": "extrema",
    "jacobimax.bounds": "bounds",
    "jacobimax.verify": "verify",
    "jacobimax.cli": "cli",
}

_SCALED_METHODS = (
    "__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__neg__",
    "abs", "to_float", "is_zero", "from_float", "from_parts", "zero",
)


class Tracer:
    """Span store plus per-layer and per-name totals, updated as spans close."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.item = -1
        self._stack: list[list] = []  # [span index, layer, start, child time, name id]
        self._depth = defaultdict(int)
        self.calls = defaultdict(int)  # by layer
        self.self_s = defaultdict(float)  # by layer
        self.busy_s = defaultdict(float)  # by layer, outermost spans only
        self.name_calls = defaultdict(int)  # by span name
        self.name_s = defaultdict(float)  # by span name, outermost per name
        self.name_self_s = defaultdict(float)  # by span name
        self.row_calls = defaultdict(int)  # run_check by check id
        self.row_s = defaultdict(float)
        self.row_status = defaultdict(int)
        self.kernel_points = 0
        self.kernel_point_steps = 0
        self.scan_kernel_calls = 0
        self.scan_point_steps = 0
        self.scan_errors = defaultdict(int)
        self._open_scans = 0
        self._undo: list = []

    # ---------------------------------------------------------- recording

    def _enter(self, name_id, layer):
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        self._depth[layer] += 1
        t0 = time.perf_counter()
        self.span_start.append(t0)
        self._stack.append([idx, layer, t0, 0.0, name_id])
        return idx

    def _exit(self):
        t1 = time.perf_counter()
        idx, layer, t0, child, name_id = self._stack.pop()
        self.span_end[idx] = t1
        dur = t1 - t0
        if self._stack:
            self._stack[-1][3] += dur
        self.calls[layer] += 1
        self.self_s[layer] += dur - child
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.busy_s[layer] += dur
        self.name_calls[name_id] += 1
        self.name_self_s[name_id] += dur - child
        if not any(s[4] == name_id for s in self._stack):
            self.name_s[name_id] += dur
        return dur

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, func, layer, qualname):
        nid = self._name_id(qualname)
        tr = self

        if qualname == "kernels.recurrence":

            @functools.wraps(func)
            def wrapper(x, b, a, ln_start, k):
                n = len(x)
                tr.kernel_points += n
                tr.kernel_point_steps += n * k
                if tr._open_scans:
                    tr.scan_kernel_calls += 1
                    tr.scan_point_steps += n * k
                tr._enter(nid, layer)
                try:
                    return func(x, b, a, ln_start, k)
                finally:
                    tr._exit()

        elif qualname == "extrema.scan_extrema":

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                tr._enter(nid, layer)
                tr._open_scans += 1
                try:
                    return func(*args, **kwargs)
                except Exception as exc:
                    tr.scan_errors[type(exc).__name__] += 1
                    raise
                finally:
                    tr._open_scans -= 1
                    tr._exit()

        elif qualname == "verify.run_check":

            @functools.wraps(func)
            def wrapper(check_id, *args, **kwargs):
                tr._enter(nid, layer)
                try:
                    res = func(check_id, *args, **kwargs)
                finally:
                    dur = tr._exit()
                    tr.row_calls[check_id] += 1
                    tr.row_s[check_id] += dur
                tr.row_status[res.status] += 1
                return res

        else:

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                tr._enter(nid, layer)
                try:
                    return func(*args, **kwargs)
                finally:
                    tr._exit()

        return wrapper

    # ---------------------------------------------------------- patching

    def install(self):
        """Route every layer's public functions through span wrappers."""
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "jacobimax" or n.startswith("jacobimax.")]
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            for name, func in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(func) or func.__module__ != modname:
                    continue
                wrapper = self._wrap(func, layer, f"{layer}.{name}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is func:
                            self._undo.append((ns, attr, value))
                            setattr(ns, attr, wrapper)
        cls = sys.modules["jacobimax.scaled"].ScaledReal
        for name in _SCALED_METHODS:
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, "scaled", f"scaled.ScaledReal.{name}"))
            else:
                patched = self._wrap(raw, "scaled", f"scaled.ScaledReal.{name}")
            self._undo.append((cls, name, raw))
            setattr(cls, name, patched)

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # ---------------------------------------------------------- output

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
            parent=np.array(self.span_parent),
            item=np.array(self.span_item),
        )

    def n_spans(self):
        return len(self.span_start)

    def name_total(self, qualname):
        """(calls, busy seconds, self seconds) of one span name."""
        nid = self._name_ids.get(qualname)
        if nid is None:
            return 0, 0.0, 0.0
        return self.name_calls[nid], self.name_s[nid], self.name_self_s[nid]
