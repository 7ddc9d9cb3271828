"""The analytic chain behind one characterized subarray, one span per layer.

Both the served characterize path (per work unit) and a fleet campaign
(per module instance) sample a cell population and reduce it to an
`OutcomeSummary` through the same public calls; the traced replays of both
workloads time them here.  Lazily built population arrays are forced in
their own span before `disturb_outcome` reads them (they are memoized, so
nothing repeats).
"""

from __future__ import annotations

from repro.chip.cells import CellPopulation
from repro.core.analytic import GUARDBAND_ROWS, OutcomeSummary, SubarrayRole, disturb_outcome


def summarize_subarray(
    recorder,
    population_key: tuple,
    profile,
    rows: int,
    columns: int,
    config,
    timing,
    aggressor_local_row: int,
    horizon: float,
) -> OutcomeSummary:
    span = recorder.span
    with span("chip.cells.population"):
        population = CellPopulation(
            key=population_key, profile=profile, rows=rows, columns=columns
        )
    with span("chip.cells.retention"):
        population.retention_time_arrays(config.temperature_c)
        population.anti_mask
    with span("core.analytic.outcome"):
        outcome = disturb_outcome(
            population,
            config,
            timing=timing,
            role=SubarrayRole.AGGRESSOR,
            aggressor_local_row=aggressor_local_row,
            guardband=GUARDBAND_ROWS,
        )
    with span("core.analytic.summarize"):
        return outcome.summarize(horizon)
