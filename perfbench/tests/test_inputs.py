"""Seeded inputs: the same seed gives the same inputs, in any process."""

import dataclasses

import pytest

from perfbench import inputs
from repro.chip.catalog import CATALOG


def trace_image(trace):
    return (
        trace.name,
        trace.mpki,
        trace.locality,
        trace.length,
        trace.write_fraction,
        [trace.request(i) for i in range(trace.length)],
        [trace.is_write(i) for i in range(trace.length)],
    )


def test_same_seed_same_request_lists():
    assert inputs.characterize_cold(5, 80) == inputs.characterize_cold(5, 80)
    assert inputs.characterize_hot_set(5) == inputs.characterize_hot_set(5)
    order = inputs.characterize_hot_order(5, 300)
    assert order == inputs.characterize_hot_order(5, 300)


def test_other_seed_other_request_lists():
    assert inputs.characterize_cold(5, 80) != inputs.characterize_cold(6, 80)
    assert inputs.characterize_hot_set(5) != inputs.characterize_hot_set(6)


def test_request_lists_are_prefix_stable():
    assert inputs.characterize_cold(9, 10) == inputs.characterize_cold(9, 100)[:10]
    prefix = inputs.characterize_hot_order(9, 99)[:10]
    assert inputs.characterize_hot_order(9, 10) == prefix


def test_cold_requests_are_unique_and_cover_table1():
    bodies = inputs.characterize_cold(2, 300)
    pairs = {(body["serial"], body["temperature_c"]) for body in bodies}
    assert len(pairs) == len(bodies)
    assert {body["serial"] for body in bodies[: len(CATALOG)]} == set(CATALOG)
    assert "HBM0" in inputs.TABLE1
    low, high = inputs.TEMPERATURE_RANGE
    assert all(low <= body["temperature_c"] <= high for body in bodies)
    # Default request geometry: the body names only module and temperature.
    assert all(set(body) == {"serial", "temperature_c"} for body in bodies)


def test_hot_order_visits_every_hot_entry_each_round():
    order = inputs.characterize_hot_order(4, inputs.HOT_SET * 5)
    for start in range(0, len(order), inputs.HOT_SET):
        visited = order[start : start + inputs.HOT_SET]
        assert sorted(visited) == list(range(inputs.HOT_SET))


def test_same_seed_same_fleet_specs():
    for op in range(3):
        first, second = inputs.fleet_spec(11, op), inputs.fleet_spec(11, op)
        assert first == second
        assert first.digest() == second.digest()
        assert first.instance(first.offset) == second.instance(second.offset)
    spec = inputs.fleet_spec(11, 2)
    assert spec.offset == 2 * inputs.FLEET_MODULES
    assert (spec.rows, spec.columns, spec.scenario) == (64, 256, "mixed")
    assert dataclasses.replace(spec, seed=12) != inputs.fleet_spec(11, 2)
    assert inputs.fleet_spec(12, 2).digest() != spec.digest()


def test_same_seed_same_traces():
    first, second = inputs.memsys_mix(21, 4), inputs.memsys_mix(21, 4)
    assert [trace_image(t) for t in first] == [trace_image(t) for t in second]
    other = inputs.memsys_mix(22, 4)
    assert [trace_image(t) for t in first] != [trace_image(t) for t in other]


@pytest.mark.parametrize("seed", [0, 1, 2**40])
def test_memsys_mix_draws_one_core_per_stratum(seed):
    mix = inputs.memsys_mix(seed, 0)
    assert len(mix) == inputs.MEMSYS_CORES
    low, high = inputs.MEMSYS_MPKI
    width = (high - low) / inputs.MEMSYS_CORES
    strata = sorted(int((trace.mpki - low) // width) for trace in mix)
    assert strata == list(range(inputs.MEMSYS_CORES))
    assert all(trace.mpki >= 10.0 for trace in mix)
