"""Summary parity: `SubarrayOutcome.summarize` against frozen loop oracles.

`frozen_merged_row_intervals` and `frozen_build_summary` below are the
per-row loop implementation the whole-array summary replaced, kept as the
correctness oracle (the way `ReferenceKernel` is kept for the bank
kernels).  Every `OutcomeSummary` must match them byte for byte: the same
six event arrays with the same dtypes, the same ``time_to_first``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chip import DDR4, expand_pattern, get_module
from repro.chip.catalog import CATALOG
from repro.chip.cells import CellPopulation
from repro.chip.timing import HBM2
from repro.core.analytic import (
    OutcomeSummary,
    SubarrayOutcome,
    SubarrayRole,
    disturb_outcome,
)
from repro.core.config import SEARCH_INTERVAL, DisturbConfig

EVENT_ARRAYS = (
    "cd_cell_starts",
    "cd_cell_ends",
    "cd_row_starts",
    "cd_row_ends",
    "ret_cell_times",
    "ret_row_times",
)


# ---------------------------------------------------------------------------
# Frozen oracles (the per-row loop summary)
# ---------------------------------------------------------------------------

def frozen_merged_row_intervals(
    row_index: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if row_index.size == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    order = np.lexsort((starts, row_index))
    row_index = row_index[order]
    starts = starts[order]
    ends = ends[order]
    out_starts: list[np.ndarray] = []
    out_ends: list[np.ndarray] = []
    boundaries = np.nonzero(np.diff(row_index))[0] + 1
    for lo, hi in zip(
        np.concatenate(([0], boundaries)),
        np.concatenate((boundaries, [row_index.size])),
    ):
        group_starts = starts[lo:hi]
        running_end = np.maximum.accumulate(ends[lo:hi])
        # A merged interval begins wherever a cell interval starts after
        # every earlier interval of the row has already ended.
        new = np.empty(hi - lo, dtype=bool)
        new[0] = True
        new[1:] = group_starts[1:] > running_end[:-1]
        first = np.nonzero(new)[0]
        out_starts.append(group_starts[first])
        out_ends.append(running_end[np.append(first[1:] - 1, hi - lo - 1)])
    return np.concatenate(out_starts), np.concatenate(out_ends)


def frozen_time_to_first(cd_times: np.ndarray, retention_worst: np.ndarray) -> float:
    eligible = retention_worst > SEARCH_INTERVAL
    times = np.where(eligible, cd_times, np.inf)
    first = float(times.min()) if times.size else float("inf")
    return first if first <= SEARCH_INTERVAL else float("inf")


def frozen_build_summary(
    cd_times: np.ndarray,
    retention_worst: np.ndarray,
    retention_nominal: np.ndarray,
    horizon: float,
) -> OutcomeSummary:
    starts = cd_times
    ends = retention_worst
    eligible = (starts <= horizon) & (starts < ends)
    row_index, _ = np.nonzero(eligible)
    cell_starts = starts[eligible]
    cell_ends = ends[eligible]
    row_starts, row_ends = frozen_merged_row_intervals(row_index, cell_starts, cell_ends)
    nominal = retention_nominal
    row_first_retention = nominal.min(axis=1) if nominal.size else np.empty(0)
    return OutcomeSummary(
        rows=cd_times.shape[0],
        cells=cd_times.size,
        horizon=horizon,
        time_to_first=frozen_time_to_first(cd_times, retention_worst),
        cd_cell_starts=np.sort(cell_starts),
        cd_cell_ends=np.sort(cell_ends[cell_ends <= horizon]),
        cd_row_starts=np.sort(row_starts),
        cd_row_ends=np.sort(row_ends[row_ends <= horizon]),
        ret_cell_times=np.sort(nominal[nominal <= horizon], axis=None),
        ret_row_times=np.sort(row_first_retention[row_first_retention <= horizon]),
    )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def make_outcome(cd_times, retention_worst, retention_nominal) -> SubarrayOutcome:
    rows, columns = cd_times.shape
    return SubarrayOutcome(
        cd_times=cd_times,
        retention_nominal=retention_nominal,
        retention_worst=retention_worst,
        victim_bits=np.ones(columns, dtype=np.uint8),
        included_rows=np.ones(rows, dtype=bool),
    )


def assert_same_summary(summary: OutcomeSummary, oracle: OutcomeSummary) -> None:
    for name in ("rows", "cells", "horizon", "time_to_first"):
        assert getattr(summary, name) == getattr(oracle, name), name
    for name in EVENT_ARRAYS:
        got, want = getattr(summary, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def assert_matches_oracle(outcome: SubarrayOutcome, horizon: float) -> None:
    oracle = frozen_build_summary(
        outcome.cd_times, outcome.retention_worst, outcome.retention_nominal, horizon
    )
    assert_same_summary(outcome.summarize(horizon), oracle)


# ---------------------------------------------------------------------------
# Synthetic outcomes
# ---------------------------------------------------------------------------

HORIZONS = (0.25, SEARCH_INTERVAL, 1.0, 4.0)

# A small value pool makes ties (equal starts, start == end, events exactly
# at a horizon or at the search window) common rather than rare.
TIMES = st.sampled_from(
    (0.0, 0.125, 0.25, SEARCH_INTERVAL, 0.75, 1.0, 2.0, 4.0, 16.0, np.inf, np.nan)
)


@st.composite
def synthetic_outcomes(draw):
    rows = draw(st.integers(1, 6))
    columns = draw(st.integers(1, 8))
    times = st.lists(TIMES, min_size=rows * columns, max_size=rows * columns)
    grids = [np.reshape(draw(times), (rows, columns)) for _ in range(3)]
    return grids, draw(st.sampled_from(HORIZONS))


def case(cd_times, retention_worst, retention_nominal, horizon):
    grids = (cd_times, retention_worst, retention_nominal)
    return [np.array(times, dtype=np.float64) for times in grids], horizon


INF = np.inf


@given(synthetic_outcomes())
@settings(max_examples=150, deadline=None)
# Ties in starts, with overlapping, touching and nested ends.
@example(
    case([[0.25, 0.25, 0.25, 0.5, 1.0]], [[0.5, 2.0, 1.0, 0.75, INF]], [[INF] * 5], 4.0)
)
# start == end is filtered; infinite ends; a row with no eligible cells.
@example(
    case([[1.0, 0.5], [0.25, INF]], [[1.0, INF], [0.125, INF]], [[INF] * 2] * 2, 1.0)
)
# A subarray with no eligible cells at all.
@example(case([[INF, 2.0], [1.0, 0.5]], [[INF, 1.0], [1.0, 0.25]], [[INF, INF]] * 2, 1.0))
# A 1-row subarray with events exactly at the horizon.
@example(case([[1.0, 0.5]], [[2.0, 1.0]], [[1.0, 4.0]], 1.0))
def test_summary_matches_frozen_oracle(drawn):
    (cd_times, retention_worst, retention_nominal), horizon = drawn
    outcome = make_outcome(cd_times, retention_worst, retention_nominal)
    assert_matches_oracle(outcome, horizon)


# ---------------------------------------------------------------------------
# Table 1 sweep and the memoized rebuild
# ---------------------------------------------------------------------------

def module_outcome(serial: str, temperature_c: float) -> SubarrayOutcome:
    spec = get_module(serial)
    population = CellPopulation(
        key=("summary-parity", serial), profile=spec.profile, rows=64, columns=128
    )
    config = DisturbConfig(temperature_c=temperature_c)
    return disturb_outcome(
        population,
        config,
        timing=HBM2 if spec.interface == "HBM2" else DDR4,
        role=SubarrayRole.AGGRESSOR,
        aggressor_local_row=32,
    )


@pytest.mark.parametrize("temperature_c", (45.0, 95.0))
@pytest.mark.parametrize("serial", sorted(CATALOG))
def test_table1_summaries_match_frozen_oracle(serial, temperature_c):
    outcome = module_outcome(serial, temperature_c)
    for horizon in (SEARCH_INTERVAL, 128.0):
        outcome._summary = None
        assert_matches_oracle(outcome, horizon)


def test_larger_horizon_rebuild_matches_fresh_summary():
    outcome = module_outcome("M8", 95.0)
    outcome.summarize(horizon=1.0)
    rebuilt = outcome.summarize(horizon=32.0)
    fresh = module_outcome("M8", 95.0).summarize(horizon=32.0)
    assert rebuilt.horizon == 32.0
    assert_same_summary(rebuilt, fresh)


def test_disturb_outcome_marks_discharged_cells_only():
    """Discharged victim cells read ``inf`` in all three per-cell arrays,
    charged cells keep their times, and the population's memoized
    retention arrays are left untouched."""
    spec = get_module("S0")
    population = CellPopulation(
        key=("summary-parity", "S0"), profile=spec.profile, rows=64, columns=128
    )

    def outcome(victim: int) -> SubarrayOutcome:
        config = DisturbConfig(victim_pattern=victim, temperature_c=85.0)
        return disturb_outcome(population, config, DDR4, SubarrayRole.AGGRESSOR, 32)

    charged = (expand_pattern(0x55, 128) == 1)[np.newaxis, :] ^ population.anti_mask
    assert not charged.all()
    nominal, worst = population.retention_time_arrays(85.0)
    expected = (
        np.where(charged, outcome(0xFF).cd_times, np.inf),
        np.where(charged, nominal, np.inf),
        np.where(charged, worst, np.inf),
    )
    got = outcome(0x55)
    arrays = (got.cd_times, got.retention_nominal, got.retention_worst)
    for want, array in zip(expected, arrays):
        assert array.dtype == want.dtype
        assert array.tobytes() == want.tobytes()
    assert np.isfinite(nominal[~charged]).all()
    assert np.isinf(got.cd_times[24:41]).all()
