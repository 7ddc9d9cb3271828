"""Memory-system bench: `repro.sim.memsys` throughput and snapshot cost.

Runs the same multiprogrammed mix through the memsys engine at 1x1 (the
parity topology) and at 2 channels x 2 ranks with timing checking and
enforcement, and records the numbers that matter for the subsystem's
claims: sustained requests/sec through `MemorySystem.serve_next`, the
topology scaling of end-to-end cycles (more channels must not *slow* the
mix), the serialized snapshot size (what a resume actually carries), and
the violation count of an enforced run (must be zero — the enforcement
fixpoint is only worth its cost if the checker agrees).

The 2x2 run is timed in two parts: the enforced event loop and
`MemorySystem.run_checker` over the finished command stream.  Every
timing is repeated ``--rounds`` times (1x1 and 2x2 alternate within a
round) and recorded as median, min and max, next to ``cpu_count`` and a
host label.

Results merge as the ``memsys`` block of ``BENCH_engine.json`` (repo
root + ``benchmarks/results/``) via the shared block-preserving writer
in ``_common`` — other benches' blocks survive a refresh and vice versa.

Run directly for the committed numbers::

    PYTHONPATH=src python benchmarks/bench_memsys.py

or via pytest (marked ``slow``; asserts the invariants without
rewriting the JSON)::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_memsys.py -m slow
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import pytest

from _common import merge_bench_block
from repro.sim.memsys import MemsysSimulation, MemsysTopology
from repro.sim.refreshpolicy import PeriodicRefresh
from repro.sim.timing import MEMSYS_DDR4_3200
from repro.workloads.trace import WorkloadTrace


def _traces(cores: int, length: int) -> list[WorkloadTrace]:
    return [
        WorkloadTrace(
            name=f"bench-memsys-{i}", mpki=35.0 + 5.0 * i,
            locality=0.3 + 0.1 * (i % 4), length=length,
        )
        for i in range(cores)
    ]


def _simulation(
    traces: list[WorkloadTrace], topology: MemsysTopology, enforce: bool
) -> MemsysSimulation:
    return MemsysSimulation(
        traces,
        PeriodicRefresh(MEMSYS_DDR4_3200),
        topology=topology,
        timing=MEMSYS_DDR4_3200,
        check_timing=enforce,
        enforce_timing=enforce,
    )


def _spread(samples: list[float]) -> dict:
    return {
        "median": round(statistics.median(samples), 4),
        "min": round(min(samples), 4),
        "max": round(max(samples), 4),
    }


def run_memsys_bench(
    cores: int = 4, length: int = 4000, rounds: int = 5, host: str | None = None
) -> dict:
    """One mix at 1x1 and 2x2 (checked, enforced), ``rounds`` times each,
    wall-clocked; then a mid-run snapshot of the 2x2 mix, sized."""
    traces = _traces(cores, length)
    topo = MemsysTopology(channels=2, ranks=2)
    walls_1x1, loops_2x2, checks_2x2 = [], [], []
    for _ in range(rounds):
        simulation = _simulation(traces, MemsysTopology(), False)
        start = time.perf_counter()
        result_1x1 = simulation.run()
        walls_1x1.append(time.perf_counter() - start)

        simulation = _simulation(traces, topo, True)
        start = time.perf_counter()
        simulation.prime()
        while simulation.pending_events:
            simulation.step()
        loops_2x2.append(time.perf_counter() - start)
        start = time.perf_counter()
        checker = simulation.system.run_checker()
        checks_2x2.append(time.perf_counter() - start)
        result_2x2 = simulation.finish()

    assert checker.violations == [], "enforced run must be violation-free"
    assert result_2x2.violations == [], "enforced run must be violation-free"
    assert result_2x2.cycles <= result_1x1.cycles * 1.05, (
        "2x2 must not slow the mix: "
        f"{result_2x2.cycles} vs {result_1x1.cycles} cycles"
    )

    # Snapshot cost: rerun 2x2 halfway and measure the carried state.
    half = MemsysSimulation(
        traces,
        PeriodicRefresh(MEMSYS_DDR4_3200),
        topology=topo,
        timing=MEMSYS_DDR4_3200,
    )
    half.prime()
    for _ in range(cores * length // 2):
        half.step()
    start = time.perf_counter()
    snapshot_bytes = len(json.dumps(half.snapshot()).encode())
    snapshot_ms = (time.perf_counter() - start) * 1e3

    requests = result_1x1.requests
    return {
        "host": host or f"{platform.system()} {platform.machine()}",
        "cpu_count": os.cpu_count(),
        "rounds": rounds,
        "cores": cores,
        "length": length,
        "requests": requests,
        "wall_1x1_s": _spread(walls_1x1),
        "requests_per_s_1x1": round(requests / statistics.median(walls_1x1), 1),
        "event_loop_2x2_enforced_s": _spread(loops_2x2),
        "run_checker_2x2_s": _spread(checks_2x2),
        "requests_per_s_2x2_enforced_loop": round(
            requests / statistics.median(loops_2x2), 1
        ),
        "commands_2x2": len(simulation.system.commands),
        "cycles_1x1": result_1x1.cycles,
        "cycles_2x2": result_2x2.cycles,
        "cycle_speedup_2x2": round(result_1x1.cycles / result_2x2.cycles, 3),
        "row_hit_rate_1x1": round(result_1x1.row_hit_rate, 4),
        "violations_2x2_enforced": len(result_2x2.violations),
        "rank_turnarounds_2x2": sum(
            channel.turnarounds for channel in simulation.system.counters.channels
        ),
        "snapshot_bytes_midrun": snapshot_bytes,
        "snapshot_serialize_ms": round(snapshot_ms, 2),
    }


@pytest.mark.slow
def test_memsys_bench_invariants():
    """The subsystem's promises at bench scale: enforced runs are clean,
    topology helps, and a mid-run snapshot stays small."""
    result = run_memsys_bench(cores=4, length=1500, rounds=1)
    assert result["violations_2x2_enforced"] == 0
    assert result["cycle_speedup_2x2"] >= 0.95
    assert result["rank_turnarounds_2x2"] > 0
    # The snapshot carries queues + trackers, never the trace or history:
    # it must stay far below a megabyte at any point of the run.
    assert result["snapshot_bytes_midrun"] < 1_000_000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="memory-system bench; merges a 'memsys' block into "
                    "BENCH_engine.json",
    )
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--length", type=int, default=4000)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--host",
        help="host label recorded with the numbers (default: OS and "
             "machine)",
    )
    parser.add_argument(
        "--no-json", action="store_true",
        help="print the result without rewriting BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    result = run_memsys_bench(
        cores=args.cores, length=args.length, rounds=args.rounds, host=args.host
    )
    print(json.dumps({"memsys": result}, indent=2))
    if not args.no_json:
        merge_bench_block("memsys", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
