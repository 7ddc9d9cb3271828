"""Run one workload in a fresh process; spawned by ``perfbench/run.py``.

The worker imports the program, creates its inputs and (for the
characterize workloads) starts the server, then prints ``ready`` on
stdout: the time from its spawn to that line is one set-up sample.  With
``--setup-only`` it tears down and exits there; otherwise it runs the
timed (``--trace 0``) or traced (``--trace 1``) phase and writes its raw
result as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [ROOT, SRC]

import numpy as np  # noqa: E402

from perfbench import hostspeed, inputs, ledger  # noqa: E402

#: Ops per second of ``--seconds``, untraced and traced, and the size of
#: one round of inputs, from rates measured on a shared 2-vCPU host.  A run
#: makes a whole number of rounds lasting about ``--seconds`` there, so
#: its op count, and so every input and count it reports, depends only on
#: the seed and ``--seconds``, never on how fast the host happened to be.
OPS_PER_S = {
    "characterize-cold": (9.0, 3.0, 29),
    "characterize-cached": (100.0, 60.0, inputs.HOT_SET),
    # Longer measured windows where drift moves the figures most; see
    # fleetrisk.REFERENCE_OPS and memsys.REFERENCE_OPS.
    "fleet-risk": (8.25, 2.5, 1),
    "memsys": (11.0, 2.5, 1),
}


def load_workload(name: str, seed: int, workdir: str):
    if name.startswith("characterize-"):
        from perfbench.characterize import CharacterizeWorkload as cls
    elif name == "fleet-risk":
        from perfbench.fleetrisk import FleetRiskWorkload as cls
    elif name == "memsys":
        from perfbench.memsys import MemsysWorkload as cls
    else:
        raise ValueError(f"unknown workload {name!r}")
    return cls(name, seed, workdir, SRC)


def op_count(name: str, seconds: float, trace: int) -> int:
    untraced_rate, traced_rate, round_size = OPS_PER_S[name]
    rate = traced_rate if trace else untraced_rate
    rounds = max(1, round(rate * seconds / round_size))
    minimum = math.ceil((ledger.TAIL_BEYOND + 1) / round_size)
    return max(rounds, minimum) * round_size


def run_traced(workload, spans_path: str) -> dict:
    recorder = ledger.SpanRecorder()
    raw = workload.traced(recorder)
    recorder.dump(spans_path)
    values = dict.fromkeys(ledger.PER_LAYER, 0.0)
    values.update(raw["values"])
    untraced = statistics.median(raw["untraced_s"])
    values["ledger.tracing_overhead_pct"] = (
        100.0 * (statistics.median(raw["traced_s"]) - untraced) / untraced
    )
    values["failed_ratio"] = raw["failed"] / raw["attempted"]
    return {
        "values": values,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "wrong": raw["wrong"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through `finally`, so a started server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = load_workload(args.workload, args.seed, args.workdir)
    try:
        workload.setup(op_count(args.workload, args.seconds, args.trace))
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = run_traced(workload, args.spans)
        else:
            speed = hostspeed.HostSpeed(workload.probe)
            result = workload.timed(speed)
            result["probe_kind"] = speed.kind
            result["call_speed"] = workload.call_speed
            result["probe_samples_s"] = speed.samples_s
        result["numpy"] = np.__version__
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
