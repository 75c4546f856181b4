"""Trace shim: spans around trapbound's public functions, counters for its oracles.

Installed only in the traced run, after the untraced pass, by replacing each
public function of the traced modules with a wrapper in every trapbound
namespace that binds it.  Each wrapper records a span (id, parent id,
request id, name, start, end) in memory; spans are written out when the run
ends.  Calls through ``ConvexFunction.__call__``, ``d_plus`` and ``d_minus``
and through ``finite_difference_derivative`` happen about 10^5 times per
request, so they are aggregated as a count plus total time instead.

A span's self time is its duration minus the durations of its child spans.
Aggregated oracle time is not a span, so it stays in the self time of the
span that made the oracle calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("expr", "funcs", "quadrature", "pointwise", "probability", "divergence", "cli")

#: Public functions evaluated per point or per expression node; wrapping them
#: as spans would trace every node of every evaluation.
_PER_POINT = {"expr.eval_expr", "expr.to_string"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.self_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.counters: dict = defaultdict(float)
        self.request = -1
        self._stack: list = []
        self._next_id = 1
        self._reference_depth = 0
        self._last_error = None
        # [f calls, df calls, oracle ns, fd calls]
        self._oracle = [0, 0, 0, 0]

    # -- wrappers ---------------------------------------------------------

    def _error(self, exc: BaseException, layer: str) -> None:
        # An exception crossing several funcs boundaries is counted once.
        if exc is not self._last_error:
            self._last_error = exc
            self.counters[f"{layer}.errors"] += 1

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``after(args, result)`` runs once the call has returned normally.
        """
        layer = name.split(".", 1)[0]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(exc, layer)
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                self.spans.append((sid, parent, self.request, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _oracle_wrapper(self, fn, slot: int):
        acc = self._oracle

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter_ns()
            try:
                return fn(*args)
            except Exception as exc:
                self._error(exc, "funcs")
                raise
            finally:
                acc[2] += perf_counter_ns() - start
                acc[slot] += 1

        return wrapper

    def _fd_wrapper(self, fn):
        acc = self._oracle

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc[3] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._error(exc, "funcs")
                raise

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch trapbound in place; there is no uninstall."""
        modules = {layer: importlib.import_module(f"trapbound.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("trapbound"), *modules.values()]
        replaced = {}

        def adaptive_done(args, result):
            self.counters["quadrature.adaptive.cells"] += result.cells
            self.counters["quadrature.adaptive.converged"] += bool(result.converged)
            if self._reference_depth:
                self.counters["pointwise.reference.cells"] += result.cells

        def fixed_done(args, result):
            self.counters["quadrature.fixed.cells"] += result.cells

        def loaded(args, result):
            self.counters["cli.input.bytes"] += os.path.getsize(args[0])

        after = {
            "quadrature.adaptive_integrate": adaptive_done,
            "quadrature.integrate": fixed_done,
            "cli.load_distribution": loaded,
        }
        for layer, mod in modules.items():
            for fname, obj in list(vars(mod).items()):
                name = f"{layer}.{fname}"
                if (fname.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if name == "funcs.finite_difference_derivative":
                    replaced[obj] = self._fd_wrapper(obj)
                elif name not in _PER_POINT:
                    replaced[obj] = self.span(name, obj, after.get(name))

        pointwise = modules["pointwise"]
        reference = pointwise._reference_integral
        traced_reference = self.span("pointwise.reference", reference)

        def reference_integral(*args, **kwargs):
            self._reference_depth += 1
            try:
                return traced_reference(*args, **kwargs)
            finally:
                self._reference_depth -= 1

        replaced[reference] = reference_integral

        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(ns, attr, replaced[obj])

        dist = modules["divergence"].DiscreteDistribution

        def counted(args, result):
            self.counters["divergence.points"] += len(args[0].weights)

        dist.__post_init__ = self.span("divergence.distribution", dist.__post_init__, counted)

        cf = modules["funcs"].ConvexFunction
        cf.__call__ = self._oracle_wrapper(cf.__call__, 0)
        cf.d_plus = self._oracle_wrapper(cf.d_plus, 1)
        cf.d_minus = self._oracle_wrapper(cf.d_minus, 1)

    # -- results ----------------------------------------------------------

    def _ms(self, names) -> float:
        return sum(self.self_ns[n] for n in names) / 1e6

    def _matching(self, prefix: str, exclude=()) -> list:
        return [n for n in self.calls if n.startswith(prefix) and n not in exclude]

    def metrics(self, requests: int) -> dict:
        """Per-layer metrics, per request averaged over ``requests``."""
        n = max(1, requests)
        c = self.counters
        f_calls, df_calls, oracle_ns, fd_calls = self._oracle
        adaptive_calls = self.calls["quadrature.adaptive_integrate"]
        per_request = {
            "expr.parse.ms": self._ms(["expr.parse", "expr.tokenize"]),
            "expr.to_convex_function.ms": self._ms(["expr.to_convex_function", "expr.derivative_expr"]),
            "funcs.f.calls": f_calls,
            "funcs.df.calls": df_calls,
            "funcs.oracle.ms": oracle_ns / 1e6,
            "funcs.fd_derivative.calls": fd_calls,
            "funcs.check_convexity.ms": self._ms(["funcs.check_convexity"]),
            "funcs.errors": c["funcs.errors"],
            "quadrature.adaptive.calls": adaptive_calls,
            "quadrature.adaptive.self_ms": self._ms(["quadrature.adaptive_integrate"]),
            "quadrature.adaptive.cells": c["quadrature.adaptive.cells"],
            "quadrature.fixed.self_ms": self._ms(
                self._matching("quadrature.", exclude=("quadrature.adaptive_integrate",))),
            "quadrature.fixed.cells": c["quadrature.fixed.cells"],
            "pointwise.bounds.ms": self._ms(self._matching("pointwise.", exclude=("pointwise.reference",))),
            "pointwise.reference.ms": self._ms(["pointwise.reference"]),
            "pointwise.reference.cells": c["pointwise.reference.cells"],
            "probability.validate_density.ms": self._ms(["probability.validate_density"]),
            "probability.expectation.ms": self._ms(
                self._matching("probability.", exclude=("probability.validate_density",))),
            "divergence.distribution.ms": self._ms(["divergence.distribution"]),
            "divergence.csiszar.ms": self._ms(["divergence.csiszar"]),
            "divergence.lin_wong.ms": self._ms(["divergence.lin_wong"]),
            "divergence.hh.ms": self._ms(["divergence.hh_divergence"]),
            "divergence.gap.ms": self._ms(["divergence.gap_enclosure"]),
            "divergence.points": c["divergence.points"],
            "cli.load_distribution.ms": self._ms(["cli.load_distribution"]),
            "cli.input.bytes": c["cli.input.bytes"],
            "cli.run.ms": self._ms(["cli.run"]),
            "cli.self_ms": self._ms(["cli.main", "cli.build_parser"]),
            "cli.output.bytes": c["cli.output.bytes"],
            "cli.exit1": c["cli.exit1"],
            "cli.exit2": c["cli.exit2"],
            "cli.uncaught": c["cli.uncaught"],
        }
        for layer in LAYERS:
            per_request[f"{layer}.calls"] = sum(self.calls[name] for name in self._matching(f"{layer}."))
        out = {name: value / n for name, value in per_request.items()}
        out["quadrature.adaptive.converged_frac"] = (
            c["quadrature.adaptive.converged"] / adaptive_calls if adaptive_calls else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "request", "name", "start_ns", "end_ns"],
                       "spans": self.spans, "counters": dict(self.counters),
                       "oracle": dict(zip(("f_calls", "df_calls", "oracle_ns", "fd_calls"),
                                          self._oracle))}, fh)
