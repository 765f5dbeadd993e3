"""Span and counter recorder for the traced benchmark run.

The package itself carries no instrumentation, so the traced run wraps the
public functions of each layer (module) from outside.  ``from .x import f``
copies the name ``f`` into the importing module, so a wrapper is bound in
every ``sturmgas.*`` namespace that holds the original function, and the
originals are put back afterwards.  Nothing under ``src/`` is edited.

Two kinds of wrapper:

* span wrappers keep one span per call (name, start, end, parent span and
  the benchmark operation it belongs to);
* aggregate wrappers keep only a call count and total time, for leaf
  functions that run once per configuration inside a scan (``rotate``,
  ``is_locally_legal``), where one span per call would swamp memory.

A span's self time is its duration minus the time covered by its direct
children, aggregate calls included.  All calls come from one thread, so
children never overlap and the covered time is their sum.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

SPANNED = {
    "lattice_gas": ("ground_state_search", "energy_open", "periodic_energy_density"),
    "characterization": ("enumerate_legal", "enumerate_legal_stable", "periodic_exclusion"),
    "discrepancy": ("component_intervals", "frequency", "strict_boundary_check"),
    "sturmian_gen": ("generate",),
    "order_analysis": (
        "distance_profile",
        "is_balanced",
        "is_most_homogeneous",
        "factor_complexity",
    ),
    "verify": ("suite_order", "suite_discrepancy", "suite_characterize", "suite_energy"),
    "cli": ("main",),
}

AGGREGATED = {
    "exact_angle": ("rotate",),
    "characterization": ("is_locally_legal",),
}


def _segments(bound) -> int:
    """(length, offset) segments strict_boundary_check compares at its widest horizon."""
    import numpy as np

    window = 2 * bound.arguments["max_len"]
    m = len(bound.arguments["w"])
    lengths = list(range(m, window + 1))
    trials = bound.arguments.get("trials")
    if trials is not None and trials < len(lengths):
        idx = np.unique(np.linspace(0, len(lengths) - 1, trials).astype(int))
        lengths = [m + int(i) for i in idx]
    return sum(window - L + 1 for L in lengths)


# name -> function(bound arguments, result) -> {counter: increment}
COUNTERS = {
    "lattice_gas.ground_state_search": lambda b, r: {
        "states_scanned": r.states_scanned,
        "argmin": len(r.argmin),
    },
    "characterization.enumerate_legal": lambda b, r: {"words_found": len(r)},
    "characterization.enumerate_legal_stable": lambda b, r: {"m_reached": r[1]},
    "discrepancy.component_intervals": lambda b, r: {"n_sum": r.n},
    "discrepancy.strict_boundary_check": lambda b, r: {"segments": _segments(b)},
    "sturmian_gen.generate": lambda b, r: {"symbols": len(r)},
    "order_analysis.distance_profile": lambda b, r: {"horizon_sum": r.horizon},
    "verify.suite_order": lambda b, r: _suite_counts(r),
    "verify.suite_discrepancy": lambda b, r: _suite_counts(r),
    "verify.suite_characterize": lambda b, r: _suite_counts(r),
    "verify.suite_energy": lambda b, r: _suite_counts(r),
}


def _suite_counts(checks) -> dict:
    return {"checks_run": len(checks), "checks_failed": sum(not c.passed for c in checks)}


class Recorder:
    """In-memory spans, aggregate call totals and counters of one traced pass."""

    def __init__(self):
        self.op = None
        self._next_id = 0
        self._stack: list[list[int]] = []  # open spans: [id, child_ns]
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, op, name, start_ns, end_ns, child_ns)
        self.agg: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # name -> [calls, ns]
        self.counts: dict[str, int] = defaultdict(int)

    def _wrap_span(self, name, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((frame[0], parent, self.op, name, start, end, frame[1]))
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _wrap_aggregate(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                slot = self.agg[name]
                slot[0] += 1
                slot[1] += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed

        return wrapper

    def install(self):
        """Bind wrappers into every sturmgas module; return a function that undoes it."""
        importlib.import_module("sturmgas.cli")  # loads every layer
        wrappers = {}
        for kinds, wrap in ((SPANNED, self._wrap_span), (AGGREGATED, self._wrap_aggregate)):
            for layer, names in kinds.items():
                module = sys.modules[f"sturmgas.{layer}"]
                for fname in names:
                    original = getattr(module, fname)
                    wrappers[id(original)] = (original, wrap(f"{layer}.{fname}", original))
        rebound = []
        for modname, module in list(sys.modules.items()):
            if modname != "sturmgas" and not modname.startswith("sturmgas."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    rebound.append((module, attr, value))

        qi_class = sys.modules["sturmgas.exact_angle"].QuadIrrational
        post_init = qi_class.__post_init__

        def counted_post_init(qi):
            self.counts["exact_angle.qi_constructed"] += 1
            post_init(qi)

        qi_class.__post_init__ = counted_post_init

        def uninstall():
            qi_class.__post_init__ = post_init
            for module, attr, value in rebound:
                setattr(module, attr, value)

        return uninstall

    def write_jsonl(self, fh, pass_index: int) -> None:
        for sid, parent, op, name, start, end, child in self.spans:
            fh.write(
                json.dumps(
                    {
                        "pass": pass_index,
                        "id": sid,
                        "parent": parent,
                        "op": op,
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "self_ns": end - start - child,
                    }
                )
                + "\n"
            )
        for name, (calls, ns) in sorted(self.agg.items()):
            fh.write(json.dumps({"pass": pass_index, "aggregate": name, "calls": calls, "total_ns": ns}) + "\n")
        for name, value in sorted(self.counts.items()):
            fh.write(json.dumps({"pass": pass_index, "counter": name, "value": value}) + "\n")

    # --- per-layer metrics of one pass ---

    def layer_metrics(self) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        freq_children = 0
        by_id = {s[0]: s for s in self.spans}
        for sid, parent, _, name, start, end, child in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child
            total_ns[name] += end - start
            if (
                name == "discrepancy.component_intervals"
                and parent in by_id
                and by_id[parent][3] == "discrepancy.frequency"
            ):
                freq_children += 1
        for name, (n, ns) in self.agg.items():
            calls[name] += n
            self_ns[name] += ns
            total_ns[name] += ns
        c = self.counts

        def ms(name):
            return self_ns[name] / 1e6

        gss = "lattice_gas.ground_state_search"
        states = c[f"{gss}.states_scanned"]
        suites = ("suite_order", "suite_discrepancy", "suite_characterize", "suite_energy")
        metrics = {
            f"{gss}.calls": calls[gss],
            f"{gss}.self_ms": ms(gss),
            f"{gss}.states_scanned": states,
            "lattice_gas.states_per_s": states / (total_ns[gss] / 1e9) if total_ns[gss] else 0.0,
            "lattice_gas.argmin_per_state": c[f"{gss}.argmin"] / states if states else 0.0,
            "discrepancy.intervals_per_frequency": (
                freq_children / calls["discrepancy.frequency"]
                if calls["discrepancy.frequency"]
                else 0.0
            ),
            "exact_angle.qi_constructed": c["exact_angle.qi_constructed"],
            "verify.checks_run": sum(c[f"verify.{s}.checks_run"] for s in suites),
            "verify.checks_failed": sum(c[f"verify.{s}.checks_failed"] for s in suites),
            "cli.output_bytes": c["cli.output_bytes"],
        }
        for name in (
            "lattice_gas.energy_open",
            "lattice_gas.periodic_energy_density",
            "characterization.enumerate_legal",
            "characterization.is_locally_legal",
            "discrepancy.component_intervals",
            "discrepancy.frequency",
            "discrepancy.strict_boundary_check",
            "exact_angle.rotate",
            "sturmian_gen.generate",
            "order_analysis.distance_profile",
        ):
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_ms"] = ms(name)
        for name in (
            "characterization.enumerate_legal_stable",
            "characterization.periodic_exclusion",
            "order_analysis.is_balanced",
            "order_analysis.is_most_homogeneous",
            "order_analysis.factor_complexity",
            "cli.main",
        ) + tuple(f"verify.{s}" for s in suites):
            metrics[f"{name}.self_ms"] = ms(name)
        for key in (
            "characterization.enumerate_legal.words_found",
            "characterization.enumerate_legal_stable.m_reached",
            "discrepancy.component_intervals.n_sum",
            "discrepancy.strict_boundary_check.segments",
            "sturmian_gen.generate.symbols",
            "order_analysis.distance_profile.horizon_sum",
        ):
            metrics[key] = c[key]
        return metrics
