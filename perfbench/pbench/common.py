"""Shared pieces of the benchmark: repo location, statistics, spans.

The benchmark lives beside the package it measures and imports it from
the checkout's ``src/`` directory, so a run always measures the code in
the same tree.  :func:`require_repo` fails the run early (non-zero exit,
no result line) when that tree is missing.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
EXPECTED_DIR = BENCH_DIR / "expected"
OUT_DIR = BENCH_DIR / "out"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"


class SetupError(RuntimeError):
    """The benchmark cannot run here (missing package, daemon down)."""


def require_repo() -> None:
    """Put ``src/`` on the import path, or fail if the tree lacks it."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SetupError(f"package sources not found under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    that ``BENCHMARK.json`` lists, in its order."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@dataclass
class StageResult:
    """What one stage measured and checked.

    ``metrics`` holds end-to-end values (untraced runs), ``layers`` the
    per-layer values (traced runs), and ``breakdown`` maps an
    end-to-end metric to the base time it was traced over and its
    largest layers by self time.
    """

    attempted: int = 0
    failed: int = 0
    #: The failures that are wrong outputs (the rest were refused or
    #: timed out); any wrong output fails the run.
    wrong: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    breakdown: Dict[str, dict] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        """Record ``count`` wrong outputs."""
        self.failed += count
        self.wrong += count
        self.note(message)

    def note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def merge(self, other: "StageResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for message in other.errors:
            self.note(message)
        self.metrics.update(other.metrics)
        self.layers.update(other.layers)
        self.breakdown.update(other.breakdown)


def breakdown(base_s: float, top: Sequence[tuple]) -> dict:
    """Top layers by self time, each with its share of ``base_s``."""
    return {
        "base_s": base_s,
        "top": [
            {"layer": name, "self_s": seconds,
             "share": seconds / base_s if base_s > 0 else 0.0}
            for name, seconds in top
        ],
    }


def cpu_count() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without affinity masks
        return max(1, os.cpu_count() or 1)


# -- statistics -------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# -- benchmark-side spans ---------------------------------------------------

class Tracer:
    """In-memory span recorder with per-name total and self time.

    A span's self time is its duration minus the time its child spans
    cover.  The stages that use a tracer call the package from one
    thread, so one stack of open spans suffices.  ``samples`` keeps every
    duration of the span names listed in ``keep`` (for per-call
    medians); other names keep only sums.
    """

    def __init__(self, keep: Sequence[str] = ()) -> None:
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.samples: Dict[str, List[int]] = {name: [] for name in keep}
        self.counts: Dict[str, float] = {}
        self._stack: List[List[int]] = []  # [child_ns] per open span

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = [0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            duration = time.perf_counter_ns() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            self.total_ns[name] = self.total_ns.get(name, 0) + duration
            self.self_ns[name] = (
                self.self_ns.get(name, 0) + duration - frame[0]
            )
            kept = self.samples.get(name)
            if kept is not None:
                kept.append(duration)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def total_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def median_us(self, name: str) -> float:
        kept = self.samples.get(name) or []
        return median(kept) / 1e3 if kept else 0.0

    def top_self(self, limit: int = 3) -> List[tuple]:
        """``(name, self_seconds)`` of the ``limit`` largest self times."""
        ranked = sorted(self.self_ns.items(), key=lambda kv: -kv[1])
        return [(name, ns / 1e9) for name, ns in ranked[:limit]]


class Patches:
    """Temporarily wraps functions and methods in tracer spans.

    Every binding of a module-level function is replaced, including
    copies other modules imported by name, so the span sees calls that
    reach the function through any import.  :meth:`restore` puts every
    original back.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, original: Callable, span_name: str) -> Callable:
        tracer = self.tracer

        def traced(*args, **kwargs):
            with tracer.span(span_name):
                return original(*args, **kwargs)

        return traced

    def function(self, module, name: str, span_name: str) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(original, span_name)
        for holder in list(sys.modules.values()):
            if getattr(holder, name, None) is original:
                setattr(holder, name, wrapper)
                self._undo.append(
                    lambda h=holder: setattr(h, name, original)
                )

    def method(self, cls, name: str, span_name: str,
               after: Optional[Callable] = None) -> None:
        original = cls.__dict__[name]
        wrapper = self._wrap(original, span_name)
        if after is not None:
            inner = wrapper

            def wrapper(*args, **kwargs):  # noqa: F811 - chained hook
                result = inner(*args, **kwargs)
                after(result)
                return result

        setattr(cls, name, wrapper)
        self._undo.append(lambda: setattr(cls, name, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
