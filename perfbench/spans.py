"""Spans around the calls between carpetlab's layers, for the traced run.

``Tracer.install`` replaces each traced function at the module attribute
through which another layer calls it (for example ``carpetlab.cli.slice_cover``
or ``carpetlab.scenery.shift``) and puts the originals back on exit.  Only
the traced run installs anything: the timed runs execute the unmodified
program.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records (id, parent, name, start, end, work) spans.

    A span's parent is the innermost open span on the same thread; spans
    opened on a worker thread of the sweep pool attach to the operation's
    root span.  ``work`` is a count of the layer's unit of work (cells,
    phases, atoms, symbols or completed steps).
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.roots: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, work=None):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        out, done = None, False
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            done = True
            return out
        finally:
            end = time.perf_counter()
            stack.pop()
            amount = work(args, out) if work is not None and done else 0
            self.spans.append((sid, parent, name, start, end, amount))

    def op(self, name: str, fn, *args):
        """Run one benchmark operation as a root span."""
        sid = next(self._ids)
        self.roots.append(sid)
        self._root = sid
        self._stack().append(sid)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._root = 0
            self.spans.append((sid, 0, name, start, end, 0))

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        return traced

    @contextlib.contextmanager
    def install(self):
        import carpetlab.cli as cli
        import carpetlab.scenery as scenery
        import carpetlab.slicer as slicer

        tracer = self
        orbit_cls = slicer.RotationOrbit

        class TracedOrbit(orbit_cls):
            """RotationOrbit whose construction and queries are spans."""

            def __init__(self, *args, **kwargs):
                tracer.call("symbolic.orbit", super().__init__, args, kwargs, lambda a, o: 1)

            def return_counts(self, k):
                return tracer.call("symbolic.orbit", super().return_counts, (k,), {}, _phases)

            def near_boundary(self, k, *args, **kwargs):
                return tracer.call(
                    "symbolic.orbit", super().near_boundary, (k, *args), kwargs, _phases
                )

        patches = [
            (cli, "slice_cover", "slicer.slice_cover", lambda a, o: sum(o.counts)),
            (cli, "estimate_slice_dimension", "slicer.estimate", None),
            (cli, "dimension_report", "carpet.dimension_report", None),
            (slicer, "dimension_report", "carpet.dimension_report", None),
            (scenery, "shift", "symbolic.shift", None),
            (scenery, "carry_shift", "symbolic.shift", None),
            (scenery, "entropy", "measures.entropy", lambda a, o: len(a[0])),
            (scenery, "condition_rescale", "measures.condition_rescale", lambda a, o: len(a[0])),
            (cli, "finite_scale_dimension", "measures.finite_scale_dimension", None),
            (scenery, "magnify_step", "scenery.magnify_step", lambda a, o: 1),
            (cli, "run_scenery", "scenery.run_scenery", None),
            (cli, "state_from_cell", "scenery.state_from_cell", None),
            (cli, "empirical_measures_linear", "scenery.window_tables", lambda a, o: a[1]),
            (cli, "bound_chain_report", "scenery.bound_chain_report", None),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in patches]
        saved += [(cli, "RotationOrbit", cli.RotationOrbit), (slicer, "RotationOrbit", orbit_cls)]
        try:
            for mod, attr, name, work in patches:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), work))
            cli.RotationOrbit = slicer.RotationOrbit = TracedOrbit
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -----------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-operation layer figures; 0 where the layer did not run."""
        ops = max(1, len(self.roots))
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        work: dict[str, int] = defaultdict(int)
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, name, start, end, amount in self.spans:
            busy[name] += end - start
            calls[name] += 1
            work[name] += amount
            children[parent].append((start, end))

        def self_time(name: str) -> float:
            total = 0.0
            for sid, _, span_name, start, end, _ in self.spans:
                if span_name == name:
                    total += (end - start) - _covered(children.get(sid, []))
            return total / ops

        def per_op(v):
            return v / ops

        def rate(name):
            return work[name] / busy[name] if busy[name] > 0.0 else 0.0

        return {
            "cli.self_s": (self_time("cli.main"), "s"),
            "carpet.dimension_report.calls": (per_op(calls["carpet.dimension_report"]), "count"),
            "carpet.dimension_report.s": (per_op(busy["carpet.dimension_report"]), "s"),
            "symbolic.orbit.phases": (per_op(work["symbolic.orbit"]), "count"),
            "symbolic.orbit.s": (per_op(busy["symbolic.orbit"]), "s"),
            "symbolic.shift.calls": (per_op(calls["symbolic.shift"]), "count"),
            "symbolic.shift.s": (per_op(busy["symbolic.shift"]), "s"),
            "slicer.slice_cover.s": (per_op(busy["slicer.slice_cover"]), "s"),
            "slicer.kept_cells": (per_op(work["slicer.slice_cover"]), "count"),
            "slicer.kept_cells_per_s": (rate("slicer.slice_cover"), "cells/s"),
            "slicer.estimate.s": (per_op(busy["slicer.estimate"]), "s"),
            "measures.entropy.s": (per_op(busy["measures.entropy"]), "s"),
            "measures.entropy.atoms_per_s": (rate("measures.entropy"), "atoms/s"),
            "measures.condition_rescale.s": (per_op(busy["measures.condition_rescale"]), "s"),
            "measures.condition_rescale.atoms_per_s": (
                rate("measures.condition_rescale"),
                "atoms/s",
            ),
            "measures.finite_scale_dimension.s": (
                per_op(busy["measures.finite_scale_dimension"]),
                "s",
            ),
            "scenery.magnify_step.steps_per_s": (rate("scenery.magnify_step"), "steps/s"),
            "scenery.run_scenery.self_s": (self_time("scenery.run_scenery"), "s"),
            "scenery.state_from_cell.s": (per_op(busy["scenery.state_from_cell"]), "s"),
            "scenery.window_tables.s": (per_op(busy["scenery.window_tables"]), "s"),
            "scenery.window_tables.symbols_per_s": (rate("scenery.window_tables"), "symbols/s"),
            "scenery.bound_chain_report.s": (per_op(busy["scenery.bound_chain_report"]), "s"),
        }


def _phases(args, out) -> int:
    return int(args[0]) + 1


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children on two threads overlap)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
