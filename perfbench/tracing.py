"""Spans and allocation peaks around the package's public functions.

Each target is wrapped at the module (or class) attribute its callers look
it up from, so the package's internal calls become child spans: `dbisim`
calling `init_refine`, and `minimize_dfa` calling `normalize` and `dbisim`.
Wrapping lasts only while a `Patched` context is open; a target that no
longer exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import tracemalloc
from time import perf_counter

# (module, attribute path, span name).  The benchmark's jobs call the
# top-level package; the other entries are the lookups inside the package.
TARGETS = [
    ("dlts_bisim", "parse_lts", "lts.parse_lts"),
    ("dlts_bisim", "parse_dfa", "lts.parse_dfa"),
    ("dlts_bisim", "normalize", "lts.normalize"),
    ("dlts_bisim.lts", "normalize", "lts.normalize"),  # Dfa.normalized
    ("dlts_bisim.cli", "normalize", "lts.normalize"),  # minimize_dfa
    ("dlts_bisim", "format_partition", "lts.format_partition"),
    ("dlts_bisim", "format_dfa", "lts.format_dfa"),
    ("dlts_bisim.partition", "RefinablePartition.from_initial", "partition.from_initial"),
    ("dlts_bisim.partition", "RefinablePartition.to_canonical", "partition.to_canonical"),
    ("dlts_bisim", "dbisim", "bisim.dbisim"),
    ("dlts_bisim.cli", "dbisim", "bisim.dbisim"),  # minimize_dfa
    ("dlts_bisim.bisim", "init_refine", "bisim.init_refine"),  # dbisim
    ("dlts_bisim", "minimize_dfa", "cli.minimize_dfa"),
]


class Patched:
    """Context that replaces every target by `make_wrapper(span_name, original)`."""

    def __init__(self, make_wrapper):
        self.make_wrapper = make_wrapper
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self) -> "Patched":
        for module_name, path, span in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self.make_wrapper(span, original.__func__))
            else:
                wrapped = self.make_wrapper(span, original)
            setattr(owner, attr, wrapped)
            self.saved.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


class SpanRecorder:
    """Spans kept in memory as [name, start, end, parent index, job id] plus per-span counters."""

    def __init__(self, scan_stats_type):
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = {}
        self.stack: list[int] = []
        self.job = -1
        self.scan_stats_type = scan_stats_type

    def wrapper(self, name: str, fn):
        counted = None
        if name == "bisim.dbisim":
            counted = _dbisim_counter(fn)
        elif name == "cli.minimize_dfa":
            counted = _count_minimize

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                if counted is None:
                    span[1] = perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        span[2] = perf_counter()
                return counted(self, idx, span, fn, args, kwargs)
            finally:
                self.stack.pop()

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j, **self.counters.get(i, {})}
            for i, (n, s, e, p, j) in enumerate(self.spans)
        ]


def _dbisim_counter(fn):
    """Time dbisim, passing a ScanStats when the caller gave none, and record its counters."""
    sig = inspect.signature(fn)
    if "stats" not in sig.parameters:
        return None

    def counted(rec, idx, span, fn, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        stats = bound.arguments.get("stats")
        if stats is None:
            stats = bound.arguments["stats"] = rec.scan_stats_type()
        before = (stats.transitions_scanned, stats.split_calls)
        span[1] = perf_counter()
        try:
            return fn(*bound.args, **bound.kwargs)
        finally:
            span[2] = perf_counter()
            T = bound.args[0]
            rec.counters[idx] = {
                "transitions_scanned": stats.transitions_scanned - before[0],
                "split_calls": stats.split_calls - before[1],
                "blocks_final": stats.blocks_final,
                "scan_bound": T.m * max(T.n.bit_length(), 1),
            }

    return counted


def _count_minimize(rec: SpanRecorder, idx: int, span: list, fn, args, kwargs):
    span[1] = perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        span[2] = perf_counter()
    report = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    if report is not None and hasattr(report, "useless_removed"):
        rec.counters[idx] = {
            "useless_removed": report.useless_removed,
            "final_blocks": report.final_blocks,
        }
    return result


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [end - start for _name, start, end, _parent, _job in spans]
    for _name, start, end, parent, _job in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class AllocPeaks:
    """Peak traced allocation per span name, above the level at the span's start.

    A child span resets tracemalloc's peak, so it first hands the peak reached
    so far to its parent, and on exit hands up its own absolute peak.
    """

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self.stack: list[list[int]] = []  # [start level, highest absolute peak seen by children]

    def wrapper(self, name: str, fn):
        def measured(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1][1] = max(self.stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, 0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                top = max(frame[1], tracemalloc.get_traced_memory()[1])
                self.peaks[name] = max(self.peaks.get(name, 0), top - frame[0])
                if self.stack:
                    self.stack[-1][1] = max(self.stack[-1][1], top)

        return measured
