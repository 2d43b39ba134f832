"""Per-layer tracing of dfclab, done from outside the package.

While a ``with Tracer():`` block runs, each traced public function of dfclab
is replaced by a wrapper in every dfclab namespace that binds it. Calls from
one module into another, and a module's calls to its own globals, then pass
through the wrapper. A wrapper counts calls and accumulates self time: its
span minus the spans of the traced calls made inside it. A few wrappers also
record a count where the work happens (polynomial degrees, fallbacks, map
evaluations made by the cycle search, simulation steps).

Spans are folded into these totals as they end rather than kept one by one:
a round of the dynamics workload makes hundreds of thousands of map
evaluations.
"""

from __future__ import annotations

import importlib
import sys
import warnings
from collections import Counter, defaultdict
from time import perf_counter

# (defining module, function) pairs that are traced.
TARGETS = (
    ("dfclab.maps", "parse_map"),
    ("dfclab.maps", "eval_map"),
    ("dfclab.maps", "eval_map_deriv"),
    ("dfclab.cycles", "find_cycles"),
    ("dfclab.polynomials", "poly_roots"),
    ("dfclab.spectrum", "char_poly_closed"),
    ("dfclab.stability", "jury_stable"),
    ("dfclab.stability", "stable_mu_interval"),
    ("dfclab.stability", "min_N_to_stabilize"),
    ("dfclab.stability", "gamma_t1"),
    ("dfclab.simulation", "simulate"),
    ("dfclab.simulation", "basin_fraction"),
    ("dfclab.cli", "main"),
)

# Per-layer metric -> unit, in the order they are reported.
LAYER_UNITS = {
    "maps.eval_calls": "count",
    "maps.eval_ms": "ms",
    "maps.parse_ms": "ms",
    "cycles.find_calls": "count",
    "cycles.find_ms": "ms",
    "cycles.evals_per_orbit": "evals/orbit",
    "polynomials.roots_calls": "count",
    "polynomials.roots_ms": "ms",
    "polynomials.roots_degree_sum": "degree",
    "polynomials.fallbacks": "count",
    "spectrum.char_poly_calls": "count",
    "spectrum.char_poly_ms": "ms",
    "stability.jury_calls": "count",
    "stability.jury_ms": "ms",
    "stability.interval_ms": "ms",
    "stability.min_n_ms": "ms",
    "stability.gamma_ms": "ms",
    "stability.roots_per_query": "solves/query",
    "simulation.simulate_calls": "count",
    "simulation.steps": "steps",
    "simulation.ms": "ms",
    "cli.commands": "count",
    "cli.self_ms": "ms",
    "cli.out_bytes": "bytes",
    "cli.simulations_per_command": "sims/command",
}


class Tracer:
    """Call counts, self times and work counts of dfclab's layers."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "dfclab"]
        for mod_name, name in TARGETS:
            original = getattr(importlib.import_module(mod_name), name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stack, active, calls, self_s = self._stack, self._active, self.calls, self.self_s
        after = getattr(self, f"_after_{name}", None)
        if name == "poly_roots":
            fn = self._counting_fallbacks(fn)

        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - frame[0]
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                self_s[name] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_fallbacks(self, fn):
        """Count companion-matrix fallbacks, then pass their warnings on."""

        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            for w in caught:
                if "companion-matrix" in str(w.message):
                    self.counts["fallbacks"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return counted

    # -- work counted where it happens -----------------------------------

    def _after_eval_map(self, args, result) -> None:
        if self._active["find_cycles"]:
            self.counts["evals_in_find"] += 1

    _after_eval_map_deriv = _after_eval_map

    def _after_find_cycles(self, args, result) -> None:
        self.counts["orbits_found"] += len(result)

    def _after_poly_roots(self, args, result) -> None:
        self.counts["roots_degree"] += args[0].degree
        if self._active["stable_mu_interval"] or self._active["min_N_to_stabilize"]:
            self.counts["roots_in_query"] += 1

    def _after_simulate(self, args, result) -> None:
        self.counts["sim_steps"] += len(result.controls)
        if self._active["main"]:
            self.counts["sims_in_cli"] += 1

    # -- read-out ---------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Current totals as one flat mapping, for differences between points."""
        out: dict[str, float] = {}
        out.update({f"calls:{k}": v for k, v in self.calls.items()})
        out.update({f"self:{k}": v for k, v in self.self_s.items()})
        out.update({f"count:{k}": v for k, v in self.counts.items()})
        return out


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from totals over some jobs (self times in seconds)."""

    def c(name):
        return totals.get(f"calls:{name}", 0)

    def ms(*names):
        return 1e3 * sum(totals.get(f"self:{n}", 0.0) for n in names)

    def k(name):
        return totals.get(f"count:{name}", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "maps.eval_calls": c("eval_map") + c("eval_map_deriv"),
        "maps.eval_ms": ms("eval_map", "eval_map_deriv"),
        "maps.parse_ms": ms("parse_map"),
        "cycles.find_calls": c("find_cycles"),
        "cycles.find_ms": ms("find_cycles"),
        "cycles.evals_per_orbit": ratio(k("evals_in_find"), k("orbits_found")),
        "polynomials.roots_calls": c("poly_roots"),
        "polynomials.roots_ms": ms("poly_roots"),
        "polynomials.roots_degree_sum": k("roots_degree"),
        "polynomials.fallbacks": k("fallbacks"),
        "spectrum.char_poly_calls": c("char_poly_closed"),
        "spectrum.char_poly_ms": ms("char_poly_closed"),
        "stability.jury_calls": c("jury_stable"),
        "stability.jury_ms": ms("jury_stable"),
        "stability.interval_ms": ms("stable_mu_interval"),
        "stability.min_n_ms": ms("min_N_to_stabilize"),
        "stability.gamma_ms": ms("gamma_t1"),
        "stability.roots_per_query": ratio(
            k("roots_in_query"), c("stable_mu_interval") + c("min_N_to_stabilize")
        ),
        "simulation.simulate_calls": c("simulate"),
        "simulation.steps": k("sim_steps"),
        "simulation.ms": ms("simulate", "basin_fraction"),
        "cli.commands": c("main"),
        "cli.self_ms": ms("main"),
        "cli.out_bytes": k("out_bytes"),
        "cli.simulations_per_command": ratio(k("sims_in_cli"), c("main")),
    }
