"""Per-layer spans recorded from outside the package.

A Tracer wraps the public functions of entrecovery's modules where their
callers look them up (every module namespace that binds the same object,
class methods, and RecoveryProblem's constructor), so nested calls give
nested spans.  Spans are folded into per-layer totals as they close: calls,
total time and the time covered by direct child spans, from which self time
follows.  Nothing under src/ is edited; the original attributes are put back
when the context manager exits.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# The layers named by the benchmark, as <module>.<attribute path>.
LAYERS = (
    "spectra.make_spectrum",
    "spectra.entropy",
    "majorization.is_majorized_by",
    "majorization.compare",
    "nielsen.transform_verdict",
    "recovery.RecoveryProblem",
    "recovery.product_spectra",
    "recovery.is_feasible_closed_form",
    "recovery.classify_point",
    "recovery.can_concentrate_bell",
    "recovery.region_grid",
    "recovery.RegionGrid.counts",
    "cli.main",
    "cli.write_region_csv",
)
MODULES = ("spectra", "majorization", "nielsen", "recovery", "cli")


class Tracer:
    """Aggregated span statistics for one traced run."""

    def __init__(self):
        # name -> [calls, total_ns, child_ns]
        self.stats = {name: [0, 0, 0] for name in LAYERS}
        # work units counted by the benchmark at layer boundaries
        self.work = {"recovery.region_grid": 0, "cli.write_region_csv": 0}
        # kind of op -> name -> [calls, total_ns, child_ns], filled by charge()
        self.by_kind = {}
        self._stack = []

    def wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += dt

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = fn.__doc__
        span.__wrapped__ = fn
        return span

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        mods = {m: importlib.import_module(f"entrecovery.{m}") for m in MODULES}
        namespaces = [importlib.import_module("entrecovery"), *mods.values()]
        undo = []
        try:
            for name in LAYERS:
                mod, *path = name.split(".")
                owner = mods[mod]
                for part in path[:-1]:
                    owner = getattr(owner, part)
                attr = path[-1]
                target = getattr(owner, attr)
                if isinstance(target, type):
                    # constructor span: time spent building and validating
                    init = target.__init__
                    undo.append((target, "__init__", init))
                    setattr(target, "__init__", self.wrap(name, init))
                elif isinstance(owner, type):
                    undo.append((owner, attr, target))
                    setattr(owner, attr, self.wrap(name, target))
                else:
                    wrapped = self.wrap(name, target)
                    for ns in namespaces:
                        if ns.__dict__.get(attr) is target:
                            undo.append((ns, attr, target))
                            setattr(ns, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def merge(self, stats: dict) -> None:
        """Add span totals recorded by another process."""
        for name, (calls, total_ns, child_ns) in stats.items():
            mine = self.stats[name]
            mine[0] += calls
            mine[1] += total_ns
            mine[2] += child_ns

    def snapshot(self) -> list:
        return [list(stat) for stat in self.stats.values()]

    def charge(self, kind: str, before: list) -> None:
        """Add the spans closed since snapshot `before` to the totals of kind."""
        totals = self.by_kind.setdefault(kind, {})
        for name, now, then in zip(self.stats, self.stats.values(), before):
            if now[0] != then[0]:
                mine = totals.setdefault(name, [0, 0, 0])
                for i in range(3):
                    mine[i] += now[i] - then[i]

    def kind_breakdown(self) -> dict:
        """Per-kind calls, self and total milliseconds of every layer that ran."""
        return {
            kind: {name: {"calls": calls, "self_ms": (total_ns - child_ns) / 1e6,
                          "total_ms": total_ns / 1e6}
                   for name, (calls, total_ns, child_ns) in layers.items()}
            for kind, layers in self.by_kind.items()
        }

    def metrics(self) -> dict:
        """Per-layer metrics named <module>.<function>.<stat>."""
        out = {}
        for name, (calls, total_ns, child_ns) in self.stats.items():
            self_ns = total_ns - child_ns
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
            out[f"{name}.total_ms"] = (total_ns / 1e6, "ms")
            out[f"{name}.self_us_per_call"] = (
                self_ns / 1e3 / calls if calls else 0.0, "us"
            )
        grid_s = self.stats["recovery.region_grid"][1] / 1e9
        cells = self.work["recovery.region_grid"]
        out["recovery.region_grid.mcells_per_s"] = (
            cells / grid_s / 1e6 if grid_s else 0.0, "Mcells/s"
        )
        csv_s = self.stats["cli.write_region_csv"][1] / 1e9
        nbytes = self.work["cli.write_region_csv"]
        out["cli.write_region_csv.bytes"] = (nbytes, "B")
        out["cli.write_region_csv.mb_per_s"] = (
            nbytes / csv_s / 1e6 if csv_s else 0.0, "MB/s"
        )
        return out
