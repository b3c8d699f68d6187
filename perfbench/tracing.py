"""Spans around the benchmark's calls into the package, and what they add up to.

A span is recorded for each call the benchmark makes into a public function
of one of the package modules (the layers).  Spans live in memory and are
written out once, at the end of a traced run.  Nothing inside the package
is instrumented: a layer's span covers exactly the call the benchmark made.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("dynamics", "rational", "rqa", "solenoidal", "finite_omega",
          "intervals", "constructions", "cli")


@dataclass
class Span:
    name: str          # "<layer>.<function>", or "job"
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 for a root
    job: int           # job id shared by every span of one job
    error: str = ""    # exception type name when the call raised
    pairs: int = 0     # logical pairs the call decided (see README)
    backend: str = ""  # pair-kernel backend, where the caller knows it

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = -1

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self._job)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def failed_layer(self, job_id: int) -> str | None:
        """Layer of the innermost span that raised out of a failed job."""
        for span in reversed(self.spans):
            if span.job == job_id and span.error and span.name != "job":
                return span.layer
        return None

    def job(self, job_id: int, fn, *args):
        """Run one job under a root span carrying its id."""
        self._job = job_id
        try:
            return self.call("job", fn, *args)
        finally:
            self._job = -1


class Layer:
    """One package module; calls go through the tracer when one is set."""

    def __init__(self, name: str, tracer: Tracer | None):
        self._name = name
        self._module = importlib.import_module(f"rqamaps.{name}")
        self._tracer = tracer

    def __getattr__(self, attr):
        fn = getattr(self._module, attr)
        if self._tracer is None or not callable(fn) or attr[:1].isupper():
            return fn  # classes and constants are not layer calls
        tracer, name = self._tracer, f"{self._name}.{attr}"
        return lambda *a, **k: tracer.call(name, fn, *a, **k)


class Layers:
    """The eight package layers plus the per-layer work counters.

    Counters are kept in traced and untraced runs alike; spans only when a
    tracer is given.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.counts: Counter = Counter()
        for name in LAYERS:
            setattr(self, name, Layer(name, tracer))

    def count(self, name: str, k: int | float = 1) -> None:
        self.counts[name] += k

    def pairs(self, k: int, metric: str | None = None, backend: str = "") -> None:
        """Record the logical pairs decided by the call just made."""
        self.counts["pairs"] += k
        if metric:
            self.counts[metric] += k
        if self.tracer is not None:
            span = self.tracer.spans[-1]
            span.pairs, span.backend = k, backend


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Busy time, self time and call count per layer.

    A layer's calls never overlap (the benchmark makes them one at a time),
    so busy time is the sum of its span durations; self time is that less
    the time of child spans.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out = {name: {"busy_s": 0.0, "self_s": 0.0, "calls": 0} for name in LAYERS}
    for idx, s in enumerate(spans):
        if s.name == "job":
            continue
        row = out[s.layer]
        row["calls"] += 1
        row["busy_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - child_time[idx]
    return out


def call_times(spans: list[Span]) -> dict[str, list[float]]:
    """Durations of every call, by span name."""
    out = defaultdict(list)
    for s in spans:
        out[s.name].append(s.end - s.start)
    return out


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w") as fh:
        json.dump([vars(s) for s in spans], fh)
