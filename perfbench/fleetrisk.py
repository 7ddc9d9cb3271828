"""``fleet-risk``: inline `FleetCampaign.run` over seeded ``mixed`` shards.

Each op is one campaign of `inputs.FLEET_MODULES` instances at the default
64 x 256 geometry, run inline (``workers=0``) and checkpointing to its own
directory.  It is the only workload with aggregator and checkpoint writes.

Checks: every campaign must cover its shard and leave a last checkpoint
that holds its aggregator state (the exact histogram behind its percentile
snapshot) at the shard's end cursor; for `REFERENCE_OPS` evenly spaced
campaigns that state must equal, by digest, the state an independent
per-instance replay of the same shard folds; and the replay of a fixed
anchor shard must reproduce the digest pinned in ``reference.json``.

Traced runs time that replay: one span per layer around the public calls
`FleetCampaign.run` makes for each instance and chunk.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from perfbench import inputs
from perfbench.chain import summarize_subarray
from perfbench.ledger import (
    NullRecorder,
    alternating,
    check_in_parallel,
    layer_ledger,
    load_reference,
    read_peak_rss_bytes,
)
from repro.fleet import CheckpointStore, FleetAggregator, FleetCampaign, FleetSpec
from repro.fleet.campaign import CHECKPOINT_FORMAT, DEFAULT_CHUNK


#: Ops per run whose aggregator state is compared with an independent
#: replay; every op's checkpoint and module count are checked.  The time
#: the other replays would take goes to a longer timed window instead,
#: which is what averages out the host's speed drift.
REFERENCE_OPS = 16


def state_digest(state: dict) -> str:
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def replay(spec: FleetSpec, checkpoint_dir: str, recorder) -> FleetAggregator:
    """Fold one shard instance by instance, checkpointing like the campaign."""
    span = recorder.span
    aggregator = FleetAggregator(spec.intervals)
    store = CheckpointStore(checkpoint_dir)
    end = spec.offset + spec.modules
    dilution = spec.topology_dilution
    since_checkpoint = 0
    for lo in range(spec.offset, end, DEFAULT_CHUNK):
        hi = min(lo + DEFAULT_CHUNK, end)
        with span("fleet.scenario.instance"):
            instances = [spec.instance(i) for i in range(lo, hi)]
        for instance in instances:
            summary = summarize_subarray(
                recorder,
                instance.population_key,
                instance.profile,
                instance.rows,
                instance.columns,
                instance.config,
                instance.timing,
                instance.aggressor_local_row,
                spec.horizon,
            )
            with span("core.engine.record"):
                rates = [
                    summary.flip_count(interval / dilution) / summary.cells
                    for interval in spec.intervals
                ]
            with span("fleet.aggregate.add"):
                aggregator.add(rates)
        since_checkpoint += hi - lo
        if since_checkpoint >= inputs.FLEET_CHECKPOINT_EVERY or hi == end:
            with span("fleet.aggregate.checkpoint"):
                store.save(
                    {
                        "format": CHECKPOINT_FORMAT,
                        "spec_digest": spec.digest(),
                        "next_index": hi,
                        "aggregator": aggregator.state(),
                    },
                    hi,
                )
            since_checkpoint = 0
    return aggregator


def reference_digest(seed: int, op: int, checkpoint_dir: str) -> str:
    """State digest of op ``op``'s shard, folded by the untraced replay."""
    spec = inputs.fleet_spec(seed, op)
    return state_digest(replay(spec, checkpoint_dir, NullRecorder()).state())


class FleetRiskWorkload:
    probe = "numpy"
    call_speed = "local"

    def __init__(self, name: str, seed: int, workdir: str, src_dir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self, ops: int) -> None:
        self.ops = ops
        self.anchor = load_reference("fleet_anchor")

    def close(self) -> None:
        pass

    def _dir(self, kind: str, op: int) -> str:
        return os.path.join(self.workdir, f"{kind}-{op}")

    def _run(self, op: int, spec: FleetSpec) -> tuple[dict | None, float]:
        """One timed `FleetCampaign.run`: (aggregator state, seconds); the
        state is None when the campaign stopped short of its range."""
        campaign = FleetCampaign(
            spec,
            checkpoint_dir=self._dir("campaign", op),
            checkpoint_every=inputs.FLEET_CHECKPOINT_EVERY,
        )
        start = time.perf_counter()
        result = campaign.run()
        elapsed = time.perf_counter() - start
        complete = result.complete and not result.interrupted
        return (result.aggregator.state() if complete else None), elapsed

    def timed(self, speed) -> dict:
        latencies, probes, states = [], [], []
        for op in range(self.ops):
            probes.append(speed.between_calls())
            state, elapsed = self._run(op, inputs.fleet_spec(self.seed, op))
            latencies.append(elapsed)
            states.append(state)
        peak_rss = read_peak_rss_bytes()
        replayed = list(range(0, self.ops, max(1, self.ops // REFERENCE_OPS)))
        anchor = self.anchor
        digests = check_in_parallel(
            reference_digest,
            [(self.seed, op, self._dir("reference", op)) for op in replayed]
            + [(anchor["seed"], anchor["op"], self._dir("anchor", 0))],
        )
        wrong = int(digests.pop() != anchor["state_sha256"])
        references = dict(zip(replayed, digests))
        for op, state in enumerate(states):
            spec = inputs.fleet_spec(self.seed, op)
            checkpoint = CheckpointStore(self._dir("campaign", op)).latest() or {}
            wrong += (
                state is None
                or state["modules"] != spec.modules
                or checkpoint.get("next_index") != spec.offset + spec.modules
                or checkpoint.get("aggregator") != state
                or (op in references and state_digest(state) != references[op])
            )
        return {
            "latencies_s": latencies,
            "call_probes": probes,
            "units": sum(state["modules"] for state in states if state),
            "attempted": len(states) + 1,
            "failed": wrong,
            "wrong": wrong,
            "peak_rss_bytes": peak_rss,
        }

    def traced(self, recorder) -> dict:
        ops = self.ops
        untraced, traced, state_bytes = [], [], []
        wrong = cells = 0
        for op in range(ops):
            spec = inputs.fleet_spec(self.seed, op)

            def plain():
                state, elapsed = self._run(op, spec)
                untraced.append(elapsed)
                return state

            def spanned():
                with recorder.operation(op) as root:
                    aggregator = replay(spec, self._dir("traced", op), recorder)
                traced.append(root.end - root.start)
                return aggregator.state()

            state, replayed = alternating(op, plain, spanned)
            cells += spec.modules * spec.rows * spec.columns
            state_bytes.append(len(json.dumps(replayed, sort_keys=True).encode()))
            wrong += state is None or state_digest(replayed) != state_digest(state)
        values = layer_ledger(recorder.spans)
        values["fleet.aggregate.state_bytes"] = sum(state_bytes) / ops
        values["chip.cells.cells"] = cells / ops
        return {
            "values": values,
            "traced_s": traced,
            "untraced_s": untraced,
            "attempted": ops,
            "failed": wrong,
            "wrong": wrong,
        }
