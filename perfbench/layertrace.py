"""Spans and counters around the public entry points of each trigauge layer.

``Tracer.install`` rebinds every wrapped function in each ``trigauge``
module that holds it, because callers look names up in their own module
(``generators`` and ``micro`` import ``solve_lp`` by name, ``gauge``
imports ``hull_min_scale``, and so on); each binding gets its own wrapper
tagged with the module it sits in.  Methods are wrapped on their class.
``Tracer.uninstall`` puts the originals back, so traced and untraced
rounds can alternate in one process.

A span is (name, start, end, parent, attrs); spans stay in memory until
the run writes them out.  Counters record calls only, for functions too
hot to time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Any, Callable

# (span name, module, attribute); the attribute may be Class.method
SPANS = (
    ("lp.solve", "trigauge.lp", "solve_lp"),
    ("generators.enumerate", "trigauge.generators", "enumerate_grid_seqs"),
    ("generators.hull_min_scale", "trigauge.generators", "hull_min_scale"),
    ("generators.validate", "trigauge.generators", "HullCertificate.validate"),
    ("decompose.make_disjoint_rep", "trigauge.decompose", "make_disjoint_rep"),
    ("decompose.decompose_average", "trigauge.decompose", "decompose_average"),
    ("decompose.partition_matrix", "trigauge.decompose", "partition_matrix"),
    ("decompose.merge", "trigauge.decompose", "merge_representatives"),
    ("decompose.split", "trigauge.decompose", "split_element"),
    ("gauge.interval", "trigauge.gauge", "gauge_interval"),
    ("gauge.upper", "trigauge.gauge", "gauge_upper"),
    ("gauge.lower", "trigauge.gauge", "gauge_lower"),
    ("gauge.pairing_witness", "trigauge.gauge", "pairing_witness"),
    ("micro.oracle", "trigauge.micro", "tau_micro_oracle"),
    ("exact.enclosure", "trigauge.exact", "root_enclosure"),
)
COUNTERS = (
    ("core.trivector_new", "trigauge.core", "TriVector.__init__"),
    ("core.row_norm_sq", "trigauge.core", "row_norm_sq"),
    ("core.lorentz_le_sq", "trigauge.core", "lorentz_le_sq"),
)


def _attrs(name: str, args: tuple, result: Any) -> dict | None:
    """Sizes worth keeping on a span, read from its arguments or result."""
    if name == "lp.solve":
        return {"columns": len(args[0]), "cells": len(args[1])}
    if name == "generators.enumerate":
        return {"n": len(result)}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, site: str) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, time.perf_counter(), None, stack[-1] if stack else -1, {"site": site}]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4]["error"] = True
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            extra = _attrs(name, args, result)
            if extra:
                record[4].update(extra)
            return result

        return traced

    def _counter(self, name: str, fn: Callable, site: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / uninstall -------------------------------------------------

    def _rebind(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every entry point in the tables; one the program no longer
        has is skipped, and its metrics read 0."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "trigauge" or n.startswith("trigauge.")]
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, home, attr in table:
                owner_name, _, meth = attr.rpartition(".")
                owner = sys.modules.get(home)
                if owner_name:
                    owner = getattr(owner, owner_name, None)
                if owner is None or meth not in vars(owner):
                    continue
                if owner_name:
                    self._rebind(owner, meth, make(name, vars(owner)[meth], owner_name))
                    continue
                original = vars(owner)[meth]
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            site = module.__name__.rpartition(".")[2]
                            self._rebind(module, key, make(name, original, site))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- bench-level spans -----------------------------------------------------

    def begin(self, name: str) -> list:
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list, **attrs: Any) -> None:
        record[2] = time.perf_counter()
        record[4].update(attrs)
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children (one thread, so
    children never overlap)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def ancestor(spans: list[list], idx: int, name: str) -> int:
    """Index of the nearest enclosing span with the given name, or -1."""
    idx = spans[idx][3]
    while idx >= 0 and spans[idx][0] != name:
        idx = spans[idx][3]
    return idx
