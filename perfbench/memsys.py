"""``memsys``: seeded 4-core mixes through `MemsysSimulation.run`.

Each op simulates one mix on 2 channels x 2 ranks with timing checking
and timing enforcement on.  No numpy physics runs here.

Checks: every run must be violation-free and serve every request of its
mix; for `REFERENCE_OPS` evenly spaced ops, the result (cycles, requests,
row-hit rate, energy, every counter) must equal a second, independent run
of the same mix exactly; and a fixed anchor mix must reproduce the
figures in ``reference.json``, so the simulated model cannot drift
unnoticed.

Traced runs time the event loop and the close-out separately, then probe
`TimingChecker.check` over the finished command stream outside the op.
"""

from __future__ import annotations

import time

from perfbench import inputs
from perfbench.ledger import (
    alternating,
    check_in_parallel,
    layer_ledger,
    load_reference,
    read_peak_rss_bytes,
)
from repro.sim.memsys import MemsysSimulation, MemsysTopology, TimingChecker
from repro.sim.refreshpolicy import PeriodicRefresh
from repro.sim.timing import MEMSYS_DDR4_3200

TOPOLOGY = MemsysTopology(channels=2, ranks=2)
#: The anchor mix: seed and op of the mix whose figures are pinned.
ANCHOR = (0, 0)
#: Ops per run whose result is compared with an independent rerun.  The
#: rest are checked for invariants only, so the run's time goes to
#: measuring: pure-Python simulation is the workload the host's speed drift
#: moves most, and only a long timed window averages that drift out.
REFERENCE_OPS = 8


def simulation(op_seed: int, op: int) -> MemsysSimulation:
    return MemsysSimulation(
        inputs.memsys_mix(op_seed, op),
        PeriodicRefresh(MEMSYS_DDR4_3200),
        topology=TOPOLOGY,
        timing=MEMSYS_DDR4_3200,
        check_timing=True,
        enforce_timing=True,
    )


def pinned_figures(result) -> dict:
    """The figures ``reference.json`` pins for the anchor mix."""
    return {
        "cycles": result.cycles,
        "requests": result.requests,
        "row_hit_rate": result.row_hit_rate,
        "energy_total_mj": result.energy_total_mj,
        "violations": len(result.violations),
    }


def _image(result) -> dict:
    """The deterministic result image, plus the figures pinned for the anchor."""
    return dict(result.to_json(), pinned=pinned_figures(result))


def reference_image(op_seed: int, op: int) -> dict:
    """The result image of an independent run of the same mix."""
    return _image(simulation(op_seed, op).run())


def _valid(result) -> bool:
    return (
        result.violations == []
        and result.requests == inputs.MEMSYS_CORES * inputs.MEMSYS_LENGTH
        and result.timing_checked
        and result.timing_enforced
    )


class MemsysWorkload:
    probe = "python"
    call_speed = "local"

    def __init__(self, name: str, seed: int, workdir: str, src_dir: str) -> None:
        self.seed = seed

    def setup(self, ops: int) -> None:
        self.ops = ops
        self.anchor = load_reference("memsys_anchor")

    def close(self) -> None:
        pass

    def timed(self, speed) -> dict:
        latencies, probes, results = [], [], []
        for op in range(self.ops):
            sim = simulation(self.seed, op)
            probes.append(speed.between_calls())
            start = time.perf_counter()
            result = sim.run()
            latencies.append(time.perf_counter() - start)
            results.append(result)
        peak_rss = read_peak_rss_bytes()
        rerun = list(range(0, self.ops, max(1, self.ops // REFERENCE_OPS)))
        references = check_in_parallel(
            reference_image, [(self.seed, op) for op in rerun] + [ANCHOR]
        )
        anchor = references.pop()
        wrong = sum(not _valid(result) for result in results)
        wrong += sum(
            _image(results[op]) != reference for op, reference in zip(rerun, references)
        )
        wrong += anchor["pinned"] != self.anchor
        return {
            "latencies_s": latencies,
            "call_probes": probes,
            "units": sum(result.requests for result in results),
            "attempted": len(results) + 1,
            "failed": wrong,
            "wrong": wrong,
            "peak_rss_bytes": peak_rss,
        }

    def traced(self, recorder) -> dict:
        ops = self.ops
        untraced, traced = [], []
        events = cycles = violations = wrong = 0
        row_hits = 0.0
        for op in range(ops):

            def plain():
                sim = simulation(self.seed, op)
                start = time.perf_counter()
                result = sim.run()
                untraced.append(time.perf_counter() - start)
                return result

            def spanned():
                sim = simulation(self.seed, op)
                with recorder.operation(op) as root:
                    with recorder.span("memsys.simulation.step"):
                        sim.prime()
                        while sim.pending_events:
                            sim.step()
                    with recorder.span("memsys.simulation.finish"):
                        result = sim.finish()
                traced.append(root.end - root.start)
                with recorder.span("memsys.timingcheck.check"):
                    TimingChecker(sim.system.timing).check(sim.system.commands)
                return sim, result

            expected, (sim, result) = alternating(op, plain, spanned)
            events += sim.events_processed
            cycles += result.cycles
            row_hits += result.row_hit_rate
            violations += len(result.violations)
            wrong += not (_valid(result) and result.to_json() == expected.to_json())
        values = layer_ledger(recorder.spans)
        step_s = sum(
            span.end - span.start
            for span in recorder.spans
            if span.name == "memsys.simulation.step"
        )
        values.update(
            {
                "memsys.simulation.events": events / ops,
                "memsys.host_ns_per_event": step_s * 1e9 / events,
                "memsys.sim_cycles": cycles / ops,
                "memsys.row_hit_rate": row_hits / ops,
                "memsys.violations": violations / ops,
            }
        )
        return {
            "values": values,
            "traced_s": traced,
            "untraced_s": untraced,
            "attempted": ops,
            "failed": wrong,
            "wrong": wrong,
        }
