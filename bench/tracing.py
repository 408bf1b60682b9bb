"""Spans around the calls into each layer, recorded from outside the library.

``Tracer.install`` replaces each traced function, by identity, in every
``pframes.*`` namespace that binds it, so a name imported with
``from .optim import solve_lp`` is caught as well as ``optim.solve_lp``.
Spans stay in memory with a parent link and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs timed as spans, named "<module>.<function>".
TRACED = [
    ("linalg", "sym_eig"),
    ("linalg", "sqrt_psd"),
    ("measures", "frame_report"),
    ("optim", "solve_lp"),
    ("optim", "hungarian"),
    ("duality", "find_transport_dual"),
    ("duality", "canonical_dual"),
    ("transport", "wasserstein2"),
    ("transport", "optimal_permutation"),
    ("transport", "is_cyclically_monotone"),
    ("geodesics", "geodesic_profile"),
    ("geodesics", "geodesic_measure"),
    ("geodesics", "gaussian_path"),
    ("semidiscrete", "adapt_weights"),
    ("semidiscrete", "assign_cells"),
    ("semidiscrete", "reconstruct"),
    ("cli", "main"),
]

# Counted only, in optim's own namespace: the scipy assignment calls that
# optim.hungarian makes.  Not a span, so hungarian's self time keeps them.
LSA = ("optim", "linear_sum_assignment")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, failed, op]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            record = [sid, self._stack[-1] if self._stack else -1, name, perf_counter(), 0.0, False, self.op]
            self.spans.append(record)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[4] = perf_counter()
                self._stack.pop()
            if name == "optim.solve_lp" and result.status == "infeasible":
                self.counts["optim.solve_lp.infeasible"] += 1
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, original, wrapper, namespaces) -> None:
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "pframes" or n.startswith("pframes.")]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"pframes.{module_name}"], fn_name)
            self._patch(original, self._span(f"{module_name}.{fn_name}", original), namespaces)
        optim = sys.modules["pframes.optim"]
        original = getattr(optim, LSA[1])
        self._patch(original, self._counter(".".join(LSA), original), [optim])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, self_s and failed per traced function, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s, failed = Counter(), Counter(), Counter()
        for sid, _, name, start, end, bad, _ in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
            failed[name] += int(bad)
        out: dict[str, tuple[float, str]] = {}
        for module_name, fn_name in TRACED:
            name = f"{module_name}.{fn_name}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.failed"] = (failed[name], "count")
        out["optim.solve_lp.infeasible"] = (self.counts["optim.solve_lp.infeasible"], "count")
        lsa = self.counts[".".join(LSA)]
        out["optim.linear_sum_assignment.calls"] = (lsa, "count")
        per_call = lsa / calls["optim.hungarian"] if calls["optim.hungarian"] else 0.0
        out["optim.hungarian.lsa_calls_per_call"] = (per_call, "calls/call")
        return out

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "failed", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
