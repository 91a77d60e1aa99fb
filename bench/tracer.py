"""Spans around the calls into each layer of the program.

The tracer wraps, from outside the program, every public function of the
nine layer modules, and rebinds each name wherever the package holds it:
in its own module, in the modules that import it, and in the package
namespace.  A call that crosses from one layer into another records a
span (name, start, end, parent span, operation id); a call inside the
same layer only counts, because its time already lies in the enclosing
span of that layer.  Spans stay in memory until `save` writes them out.

A layer's self time is its spans' durations minus the durations of their
direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

PACKAGE = "semicircleqm"
LAYERS = ("specfun", "combinatorics", "fock", "orthopoly", "hilbert", "evolution", "oracle", "checks", "cli")
BENCH_LAYER = "bench"

# Names whose calls feed a count.  A name absent from the program is
# listed in the trace output as absent and contributes 0.
SPECFUN_NAMES = ("bessel_j", "bessel_j_ratio", "hyp1f1", "bessel_tail_index")
THETA_NAMES = ("theta_count", "theta_count_unbounded")
HOOKED = ("combinatorics.all_sign_words", "hilbert.hilbert_mu_pv", "oracle.expm_matrix")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack: list[tuple[int, str]] = [(-1, BENCH_LAYER)]
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []
        self.words = 0
        self.pv_nodes = 0
        self.expm_dim3 = 0

    # ------------------------------------------------------------------
    # installation

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def install(self) -> None:
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                originals[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _hook(self, name: str, fn):
        if name not in HOOKED:
            return None
        sig = inspect.signature(fn)

        def argument(args, kwargs, param):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments[param]

        if name == "combinatorics.all_sign_words":
            def hook(args, kwargs):
                self.words += 2 ** argument(args, kwargs, "k")
        elif name == "hilbert.hilbert_mu_pv":
            def hook(args, kwargs):
                self.pv_nodes += argument(args, kwargs, "m")
        else:
            def hook(args, kwargs):
                op = argument(args, kwargs, "op")
                dim = np.shape(getattr(op, "entries", op))[0]
                self.expm_dim3 += dim**3
        return hook

    def _wrap(self, layer: str, name: str, fn):
        nid = self._name_id(name, layer)
        hook = self._hook(name, fn)
        calls = self.calls
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            if hook is not None:
                hook(args, kwargs)
            if stack[-1][1] == layer:
                return fn(*args, **kwargs)
            return self._span(nid, layer, fn, args, kwargs)

        return traced

    def _span(self, nid: int, layer: str, fn, args, kwargs):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0])
        self.span_op.append(self._op)
        self.span_end.append(0)
        self._stack.append((idx, layer))
        self.span_start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = perf_counter_ns()
            self._stack.pop()

    def op(self, op_id: int, kind: str, fn):
        """Run one benchmark operation under a top-level span."""
        nid = self._op_name(kind)
        self._op = op_id
        try:
            return self._span(nid, BENCH_LAYER, fn, (), {})
        finally:
            self._op = -1

    def _op_name(self, kind: str) -> int:
        name = f"{BENCH_LAYER}.{kind}"
        if name in self.names:
            return self.names.index(name)
        return self._name_id(name, BENCH_LAYER)

    # ------------------------------------------------------------------
    # results

    def count(self, names) -> tuple[int, list[str]]:
        """Total calls of the given names and the names the program lacks."""
        total = 0
        absent = []
        for name in names:
            if name in self.names:
                total += self.calls[self.names.index(name)]
            else:
                absent.append(name)
        return total, absent

    def self_ns_by_layer(self) -> dict[str, int]:
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        names = np.frombuffer(self.span_name, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        layer_of = np.array(self.layer_of)
        span_layer = layer_of[names] if names.size else np.array([], dtype=layer_of.dtype)
        return {layer: int(own[span_layer == layer].sum()) for layer in (*LAYERS, BENCH_LAYER)}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            calls=np.array(self.calls, dtype=np.int64),
            span_name=np.frombuffer(self.span_name, dtype=np.int64),
            span_start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            span_end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int64),
            span_op=np.frombuffer(self.span_op, dtype=np.int64),
        )
