"""Snapshot/restore: byte-identical resumption, digest-verified files.

The contract under test: a simulation restored from a snapshot taken at
*any* point produces a `SystemResult` whose JSON form is byte-for-byte
identical to the uninterrupted run's (the property test sweeps the cut
point and topology), and a snapshot file can never restore unless its
content hashes to its stamp and its configuration digest matches the
simulation it restores into.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.memsys import (
    SNAPSHOT_VERSION,
    MemorySystem,
    MemsysSimulation,
    MemsysTopology,
    SnapshotStore,
    state_digest,
)
from repro.sim.mechanism import NoMechanism
from repro.sim.refreshpolicy import PeriodicRefresh, smd_raidr_policy
from repro.sim.timing import DDR4_3200
from repro.workloads.trace import WorkloadTrace


def _traces(cores: int = 2, length: int = 150, locality: float = 0.4):
    return [
        WorkloadTrace(name=f"snap-{i}", mpki=40.0, locality=locality, length=length)
        for i in range(cores)
    ]


def _simulation(traces=None, **kwargs) -> MemsysSimulation:
    return MemsysSimulation(
        traces if traces is not None else _traces(),
        PeriodicRefresh(DDR4_3200),
        **kwargs,
    )


def _result_bytes(simulation: MemsysSimulation) -> str:
    return json.dumps(simulation.run().to_json(), sort_keys=True)


@settings(max_examples=12, deadline=None)
@given(
    cut=st.floats(0.05, 0.95),
    channels=st.integers(1, 2),
    ranks=st.integers(1, 2),
    enforce=st.booleans(),
)
def test_restore_at_any_point_is_byte_identical(cut, channels, ranks, enforce):
    topology = MemsysTopology(channels=channels, ranks=ranks)
    flags = {"check_timing": enforce, "enforce_timing": enforce}
    reference = _result_bytes(_simulation(topology=topology, **flags))

    interrupted = _simulation(topology=topology, **flags)
    interrupted.prime()
    target = max(1, int(cut * 2 * 150))
    while interrupted.pending_events and interrupted.events_processed < target:
        interrupted.step()
    state = interrupted.snapshot()

    resumed = _simulation(topology=topology, **flags)
    resumed.restore(json.loads(json.dumps(state)))  # through real JSON
    assert _result_bytes(resumed) == reference


def test_run_with_store_then_resume_from_latest(tmp_path):
    reference = _result_bytes(_simulation())

    store = SnapshotStore(tmp_path / "snaps")
    first = _simulation()
    first.run(store=store, snapshot_every=100)
    state = store.latest()
    assert state is not None

    resumed = _simulation()
    resumed.restore(state)
    assert _result_bytes(resumed) == reference


#: `state_digest` of a checked, enforced 2x2 run snapshotted after 150
#: events.  The snapshot carries the command history as a list of
#: ``{"kind", "channel", "rank", "bank", "cycle"}`` dicts; a change to how
#: that history is stored must leave these bytes alone or bump
#: `SNAPSHOT_VERSION`.
CHECKED_2X2_DIGEST = "6bfb8b5c2a63f3760da985f174b26ae4338c2a9fc8502fed03afe4b5e307ccf4"


def test_checked_enforced_snapshot_bytes_are_pinned():
    flags = {"check_timing": True, "enforce_timing": True}
    topology = MemsysTopology(channels=2, ranks=2)
    reference = _result_bytes(_simulation(topology=topology, **flags))

    interrupted = _simulation(topology=topology, **flags)
    interrupted.prime()
    for _ in range(150):
        interrupted.step()
    state = interrupted.snapshot()
    assert len(state["system"]["commands"]) > 0
    assert state_digest(state) == CHECKED_2X2_DIGEST

    resumed = _simulation(topology=topology, **flags)
    resumed.restore(json.loads(json.dumps(state)))
    assert state_digest(resumed.snapshot()) == CHECKED_2X2_DIGEST
    assert _result_bytes(resumed) == reference


def test_snapshot_survives_json_round_trip_exactly():
    simulation = _simulation()
    simulation.prime()
    for _ in range(40):
        simulation.step()
    state = simulation.snapshot()
    rehydrated = json.loads(json.dumps(state))
    assert state_digest(rehydrated) == state_digest(state)


class TestSnapshotStore:
    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        state = {"version": 1, "x": [1, 2, 3]}
        path = store.save(state, events=7)
        assert path.name == "snapshot-000000000007.json"
        assert store.load(path) == state
        assert store.latest() == state

    def test_tampered_file_is_skipped_not_trusted(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"x": 1}, events=1)
        newest = store.save({"x": 2}, events=2)
        record = json.loads(newest.read_text())
        record["state"]["x"] = 99
        newest.write_text(json.dumps(record))
        assert store.load(newest) is None
        assert store.latest() == {"x": 1}  # falls back to the older valid one

    def test_prunes_beyond_keep(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for events in (1, 2, 3, 4):
            store.save({"n": events}, events=events)
        survivors = sorted(p.name for p in tmp_path.glob("snapshot-*.json"))
        assert survivors == [
            "snapshot-000000000003.json",
            "snapshot-000000000004.json",
        ]

    def test_garbage_and_missing_files(self, tmp_path):
        store = SnapshotStore(tmp_path)
        garbage = tmp_path / "snapshot-000000000001.json"
        garbage.write_text("{not json")
        assert store.load(garbage) is None
        assert store.load(tmp_path / "missing.json") is None
        assert store.latest() is None

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            SnapshotStore(tmp_path, keep=0)


class TestRestoreRefusals:
    def test_version_mismatch(self):
        simulation = _simulation()
        simulation.prime()
        state = simulation.snapshot()
        state["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(ValueError, match="snapshot version"):
            _simulation().restore(state)

    def test_configuration_mismatch(self):
        donor = _simulation(_traces(locality=0.3))
        donor.prime()
        state = donor.snapshot()
        receiver = _simulation(_traces(locality=0.6))
        with pytest.raises(ValueError, match="different simulation configuration"):
            receiver.restore(state)

    def test_topology_is_part_of_the_configuration(self):
        donor = _simulation(topology=MemsysTopology(channels=2))
        donor.prime()
        state = donor.snapshot()
        with pytest.raises(ValueError, match="different simulation configuration"):
            _simulation().restore(state)

    def test_region_aware_policies_refuse_to_snapshot(self):
        policy = smd_raidr_policy(DDR4_3200, 4096, 0.02)
        simulation = MemsysSimulation(_traces(), policy)
        simulation.prime()
        with pytest.raises(ValueError, match="region-aware"):
            simulation.snapshot()

    def test_mechanisms_refuse_to_snapshot(self):
        system = MemorySystem(banks=16, mechanism=NoMechanism())
        with pytest.raises(ValueError, match="mechanism"):
            system.state()
