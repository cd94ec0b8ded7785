"""Layer tracing from outside the package.

Wraps public functions and methods of the quditmbqc modules and rebinds
each wrapped name wherever a caller looks it up (module globals that
imported it by name, the package namespace, class attributes).  Nothing
under src/ is edited; uninstall() puts every original back.

Boundary calls record a span (name, start, end, parent).  Hot calls keep
aggregated counters only, so memory stays bounded: a call count, and for
the timed ones their total time, which is also charged to the enclosing
span so that span self times stay exact.  Timed hot calls must be leaves
with respect to every other timed wrapper.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (metric name, module, attribute path, kind)
#   span:  one span per call
#   timed: aggregated count and time
#   count: aggregated count only
TARGETS = [
    ("cli.main", "cli", "main", "span"),
    ("compiler.compile_general_prime", "compiler", "compile_general_prime", "span"),
    ("compiler.compile_odd_ring", "compiler", "compile_odd_ring", "span"),
    ("compiler.verify", "compiler", "verify", "span"),
    ("engine.MbqcPlan.init", "engine", "MbqcPlan.__init__", "span"),
    ("engine.MbqcPlan.save", "engine", "MbqcPlan.save", "span"),
    ("engine.MbqcPlan.load", "engine", "MbqcPlan.load", "span"),
    ("engine.extract_output_function", "engine", "extract_output_function", "span"),
    ("engine.is_deterministic", "engine", "is_deterministic", "span"),
    ("engine.run", "engine", "run", "span"),
    ("engine.output_distribution", "engine", "output_distribution", "span"),
    ("engine.empirical_success", "engine", "empirical_success", "span"),
    ("engine.site_observable", "engine", "MbqcPlan.site_observable", "count"),
    ("states.eigenphase_of", "states", "eigenphase_of", "span"),
    ("states.measurement_distribution", "states", "measurement_distribution", "timed"),
    ("states.MonomialOp.compose", "states", "MonomialOp.compose", "count"),
    ("weyl.conjugate_weyl", "weyl", "conjugate_weyl", "timed"),
    ("phases.PhaseSum", "phases", "PhaseSum.__init__", "count"),
    ("fields.interpolate", "fields", "interpolate", "span"),
    ("fields.closure_generate", "fields", "closure_generate", "span"),
    ("fields.is_polynomial_over_ring", "fields", "is_polynomial_over_ring", "span"),
    ("witnesses.degree_witness", "witnesses", "degree_witness", "span"),
    ("witnesses.ncva_search", "witnesses", "ncva_search", "span"),
    ("witnesses.nu_distance", "witnesses", "nu_distance", "span"),
]

PACKAGE = "quditmbqc"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, hot_child_s]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.hot_s: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _timed(self, name, fn):
        spans, stack, counts, hot_s, clock = (self.spans, self.stack, self.counts,
                                              self.hot_s, time.perf_counter)
        on_result = self._measurement_hook if name == "states.measurement_distribution" else None

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                counts[name] += 1
                hot_s[name] += dt
                if stack:
                    spans[stack[-1]][4] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _measurement_hook(self, args, branches):
        support = len(args[0].terms)
        counts = self.counts
        counts["states.support_in.sum"] += support
        counts["states.support_in.max"] = max(counts["states.support_in.max"], support)
        counts["states.branches"] += len(branches)
        counts["states.branch_slots"] += args[0].d

    # -- install / uninstall -------------------------------------------------
    def install(self):
        make = {"span": self._span, "timed": self._timed, "count": self._count}
        for name, module, path, kind in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(make[kind](name, raw.__func__))
                else:
                    new = make[kind](name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
            else:
                self._rebind(getattr(mod, path), make[kind](name, getattr(mod, path)))

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- checkpoints (drop the partial work of an op that hit its limit) -----
    def checkpoint(self):
        return len(self.spans), dict(self.counts), dict(self.hot_s)

    def rollback(self, cp):
        n, counts, hot_s = cp
        del self.spans[n:]
        self.stack.clear()
        self.counts.clear()
        self.counts.update(counts)
        self.hot_s.clear()
        self.hot_s.update(hot_s)

    # -- results -------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per-name self time: span duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, hot in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent, hot) in enumerate(self.spans):
            out[name] += (end - start) - child[idx] - hot
        for name, total in self.hot_s.items():
            out[name] += total
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        for name, n in self.counts.items():
            out[name] += n
        return out
