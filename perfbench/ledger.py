"""Metric catalogue, span recorder, self-time fold and summary statistics.

Stdlib only: the orchestrator (`perfbench/run.py`) imports this module
without importing the program under test.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions; the program itself carries no benchmark spans.
A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span in the recorder (``None`` for an op's root span) and
``op`` is the id shared by every span of one timed operation.  A layer's
self time is its span's duration minus the part covered by its child
spans; the root span's self time is the unattributed remainder.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

#: End-to-end metrics (reported with ``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (reported with ``--trace 1``): name -> unit.  Time
#: values are self time in ms per op; counts are per op.
PER_LAYER = {
    "failed_ratio": "ratio",
    "serve.overhead_ms": "ms",
    "serve.protocol.parse_ms": "ms",
    "serve.protocol.encode_ms": "ms",
    "serve.scheduler.coalesce_ratio": "ratio",
    "serve.scheduler.batch_size": "requests",
    "serve.refused": "count",
    "core.engine.plan_ms": "ms",
    "core.engine.record_ms": "ms",
    "core.cache.lookup_ms": "ms",
    "core.cache.put_ms": "ms",
    "core.cache.hit_ratio": "ratio",
    "core.analytic.outcome_ms": "ms",
    "core.analytic.summarize_ms": "ms",
    "chip.cells.population_ms": "ms",
    "chip.cells.retention_ms": "ms",
    "chip.cells.cells": "cells",
    "fleet.scenario.instance_ms": "ms",
    "fleet.aggregate.add_ms": "ms",
    "fleet.aggregate.checkpoint_ms": "ms",
    "fleet.aggregate.state_bytes": "bytes",
    "memsys.simulation.step_ms": "ms",
    "memsys.simulation.finish_ms": "ms",
    "memsys.timingcheck.check_ms": "ms",
    "memsys.simulation.events": "count",
    "memsys.host_ns_per_event": "ns",
    "memsys.sim_cycles": "cycles",
    "memsys.row_hit_rate": "ratio",
    "memsys.violations": "count",
    "ledger.unattributed_pct": "%",
    "ledger.tracing_overhead_pct": "%",
}

#: Span names whose self time becomes a ``<name>_ms`` per-layer metric.
LAYER_SPANS = tuple(
    name[: -len("_ms")]
    for name in PER_LAYER
    if name.endswith("_ms") and name != "serve.overhead_ms"
)

#: Name of every op's root span.
OP_SPAN = "op"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class SpanRecorder:
    """In-memory span recorder; `dump` writes the spans out at the end."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), 0.0, parent, self._op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    @contextmanager
    def operation(self, op: int):
        """Root span of one timed operation; yields the root `Span`."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._op = op
        with self.span(OP_SPAN) as root:
            yield root

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


class NullRecorder:
    """A recorder whose spans record nothing (the untraced replays)."""

    def span(self, name: str):
        return nullcontext()


def alternating(op: int, *calls):
    """Call ``calls`` in order on even ops and in reverse on odd ops, so no
    side always runs second on warm caches; results in argument order."""
    order = range(len(calls)) if op % 2 == 0 else reversed(range(len(calls)))
    results = [None] * len(calls)
    for index in order:
        results[index] = calls[index]()
    return results


def fold_self_time(spans: list[Span]) -> dict[str, float]:
    """Fold span trees into total self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children.  Root spans fold under their own name (``op``): that is the
    time no layer span accounts for.
    """
    self_time = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            self_time[span.parent] -= span.end - span.start
    totals: dict[str, float] = {}
    for span, seconds in zip(spans, self_time):
        totals[span.name] = totals.get(span.name, 0.0) + seconds
    return totals


def op_durations(spans: list[Span]) -> list[float]:
    """Wall seconds of every op's root span, in op order."""
    return [span.end - span.start for span in spans if span.name == OP_SPAN]


def layer_ledger(spans: list[Span], served_s: list[float] | None = None) -> dict:
    """Per-layer self ms per op, plus the unattributed share.

    ``served_s`` (characterize workloads) is each op's HTTP latency; the
    part of it the in-process replay does not cover is transport, protocol
    framing and scheduler wait, reported as ``serve.overhead_ms``.  The
    ledger's total is the served time when given, else the root spans.
    Spans outside any op (probes) fold under their own names and are not
    part of the total.
    """
    folded = fold_self_time(spans)
    roots = op_durations(spans)
    ops = len(roots)
    if ops == 0:
        raise ValueError("no operations recorded")
    total = sum(served_s) if served_s is not None else sum(roots)
    out = {f"{name}_ms": folded.get(name, 0.0) * 1e3 / ops for name in LAYER_SPANS}
    out["serve.overhead_ms"] = (
        (total - sum(roots)) * 1e3 / ops if served_s is not None else 0.0
    )
    out["ledger.unattributed_pct"] = 100.0 * folded.get(OP_SPAN, 0.0) / total
    return out


REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(name: str):
    """One entry of ``reference.json``: outputs pinned when the benchmark
    was defined, which every run recomputes."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)[name]


def close_match(got, pinned, rel_tol: float = 1e-9) -> bool:
    """Equal JSON values, except that floats may differ by ``rel_tol``:
    numpy's exp and log may round the last bit differently on another CPU
    instruction set, and that is not drift of the model."""
    if isinstance(pinned, float) and isinstance(got, (int, float)):
        return math.isclose(got, pinned, rel_tol=rel_tol)
    if isinstance(pinned, dict) and isinstance(got, dict):
        return got.keys() == pinned.keys() and all(
            close_match(got[key], pinned[key], rel_tol) for key in pinned
        )
    if isinstance(pinned, list) and isinstance(got, list):
        return len(got) == len(pinned) and all(
            close_match(a, b, rel_tol) for a, b in zip(got, pinned)
        )
    return type(got) is type(pinned) and got == pinned


def check_in_parallel(function, arguments: list[tuple]) -> list:
    """``function(*args)`` for each entry, on up to ``os.cpu_count()`` (at
    most 2) spawned processes.  Reference computations run after the timed
    phase, so they may use every CPU without disturbing a measurement."""
    if not arguments:
        return []
    workers = min(2, os.cpu_count() or 1, len(arguments))
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(function, *zip(*arguments)))


def read_peak_rss_bytes(pid: int | str = "self") -> int:
    """Peak resident set size (``VmHWM``) of a live process (Linux)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Calls per tail window: a run with at least twice this many calls takes
#: its tail in consecutive windows of at least this many (so at p95 or
#: above) and reports their median, which one burst of host noise does not
#: move; shorter runs take it over all their calls.
TAIL_WINDOW = 200


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, samples)``.  With ``n`` samples sorted
    ascending, the value at index ``n - TAIL_BEYOND - 1`` has exactly
    ``TAIL_BEYOND`` samples above it; its nearest-rank percentile is
    ``100 * (n - TAIL_BEYOND) / n``.
    """
    n = len(values)
    if n < TAIL_BEYOND + 1:
        raise ValueError(
            f"a tail needs at least {TAIL_BEYOND + 1} samples, got {n}"
        )
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def windowed_tail(values: list[float]) -> tuple[float, float, int]:
    """`tail_percentile` of each window of `TAIL_WINDOW` or more
    consecutive calls, and the median over windows.

    Returns ``(value, percentile, window)``: the median tail, the median
    of the windows' percentiles and the calls in the smallest window.
    """
    windows = max(1, len(values) // TAIL_WINDOW)
    bounds = [len(values) * k // windows for k in range(windows + 1)]
    tails = [
        tail_percentile(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    ]
    return (
        statistics.median(tail for tail, _, _ in tails),
        statistics.median(percentile for _, percentile, _ in tails),
        min(samples for _, _, samples in tails),
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize_calls(latencies_s: list[float], units: int) -> dict:
    """End-to-end call metrics from one run's timed calls."""
    tail, percentile, window = windowed_tail(latencies_s)
    q1, median, q3 = quartiles(latencies_s)
    return {
        "work_per_s": units / sum(latencies_s),
        "call_p50_ms": statistics.median(latencies_s) * 1e3,
        "call_tail_ms": tail * 1e3,
        "call_tail_percentile": percentile,
        "call_tail_window": window,
        "calls": len(latencies_s),
        "call_quartiles_ms": [q1 * 1e3, median * 1e3, q3 * 1e3],
    }


def metric_block(values: dict[str, float], catalogue: dict[str, str]) -> dict:
    """The result line's ``metrics`` object for every name in ``catalogue``."""
    missing = sorted(set(catalogue) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in catalogue.items()
    }
