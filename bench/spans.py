"""Span recorder for the traced benchmark run.

The recorder rebinds library functions at every module attribute that
holds them (their import sites), so calls that cross module boundaries
open a span. Spans stay in memory as (name, start, end, parent, request)
tuples; self time is a span's duration minus the durations of its direct
children. Calls run on one thread, so children never overlap.

A recursive function opens one span at its outermost call only.

Names are ``module.function`` relative to the ``wovenframes`` package.
A name the program no longer defines is reported as absent, never as an
error, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "wovenframes"
REQUEST = "request"


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._names: list[str] = []
        self._request = -1
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._names.append(name)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self._names.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self._request)

    def run_request(self, request_id: int, fn):
        """Call ``fn()`` as the root span of one request; returns its result."""
        self._request = request_id
        idx = self._open(REQUEST)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, REQUEST, start, time.perf_counter())

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._names and self._names[-1] == name:
                return fn(*args, **kwargs)
            idx = self._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, time.perf_counter())

        return traced

    def _counted(self, name: str, fn, measure):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += measure(result)
            return result

        return counted

    # -- installation ----------------------------------------------------

    def _rebind(self, qualified: str, make_wrapper) -> None:
        module_name, _, attr = qualified.rpartition(".")
        home = sys.modules.get(f"{PACKAGE}.{module_name}")
        original = getattr(home, attr, None) if home is not None else None
        if not callable(original):
            self.absent.append(qualified)
            return
        wrapper = make_wrapper(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for site, value in list(vars(module).items()):
                if value is original:
                    setattr(module, site, wrapper)
                    self._rebound.append((module, site, original))

    def install(self, timed: list[str], counters: dict) -> None:
        """Wrap each timed name in a span and each counter hook.

        ``counters`` maps a metric name to ``(qualified_function, measure)``,
        where ``measure(result)`` gives the count one call adds.
        """
        for name in timed:
            self._rebind(name, lambda fn, name=name: self._timed(name, fn))
        for metric, (qualified, measure) in counters.items():
            self._rebind(
                qualified,
                lambda fn, metric=metric, measure=measure: self._counted(
                    metric, fn, measure
                ),
            )

    def uninstall(self) -> None:
        for module, site, original in reversed(self._rebound):
            setattr(module, site, original)
        self._rebound.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per-name totals plus request coverage.

        Returns ``{"requests", "self_s", "calls", "children_calls",
        "coverage"}``: ``self_s`` and ``calls`` are totals per span name,
        ``children_calls[(parent, child)]`` counts direct child spans, and
        ``coverage`` is the share of request wall time inside named spans.
        """
        selfs = self.self_times()
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        children_calls: dict[tuple[str, str], int] = defaultdict(int)
        request_wall = 0.0
        request_self = 0.0
        requests = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name == REQUEST:
                requests += 1
                request_wall += end - start
                request_self += selfs[i]
                continue
            self_s[name] += selfs[i]
            calls[name] += 1
            if parent >= 0:
                children_calls[(self.spans[parent][0], name)] += 1
        coverage = 1.0 - request_self / request_wall if request_wall > 0 else 0.0
        return {
            "requests": requests,
            "self_s": dict(self_s),
            "calls": dict(calls),
            "children_calls": dict(children_calls),
            "coverage": coverage,
        }

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
