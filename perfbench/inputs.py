"""Seeded workload inputs.

Every input the program receives comes from these functions, and each is a
pure function of the workload seed (and the op index): the same seed gives
the same request bodies, `FleetSpec`s and memory traces in every process.

Draws are stratified where a property sets the cost of an op (which module,
which temperature, how memory-intensive a core is), so that different seeds
give different inputs of the same expected cost, and runs with different
seeds compare.
"""

from __future__ import annotations

import numpy as np

from repro.chip.catalog import CATALOG
from repro.fleet import FleetSpec
from repro.workloads.trace import WorkloadTrace

#: Table 1: the 28 DDR4 modules and the HBM2 stack, in a fixed order.
TABLE1 = tuple(sorted(CATALOG))

#: Temperature range of the paper's temperature sweeps (degrees C).
TEMPERATURE_RANGE = (45.0, 95.0)

#: Distinct (serial, temperature) pairs served from the cache on
#: ``characterize-cached``: one per Table 1 module, so every seed's hot set
#: has the same module mix (and the server the same warm-up peak).
HOT_SET = len(TABLE1)

#: Module instances per `FleetCampaign.run` on ``fleet-risk``.
FLEET_MODULES = 64
#: Instances between fleet checkpoints (two checkpoints per campaign).
FLEET_CHECKPOINT_EVERY = 32
#: Fleet scenario: one attack scenario drawn per instance.
FLEET_SCENARIO = "mixed"

#: Cores per memsys mix and requests per core.
MEMSYS_CORES = 4
MEMSYS_LENGTH = 1500
#: Per-core strata of LLC misses per kilo-instruction (all >= 10, the
#: paper's memory-intensive threshold), row-buffer locality and writes.
MEMSYS_MPKI = (10.0, 60.0)
MEMSYS_LOCALITY = (0.1, 0.9)
MEMSYS_WRITES = (0.0, 0.3)

# Stream ids keep the draws of different workloads independent.
_COLD, _HOT, _HOT_ORDER, _MEMSYS = 1, 2, 3, 4


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63, *stream])


def _strata(rng: np.random.Generator, count: int, low: float, high: float):
    """One uniform draw from each of ``count`` equal slices of
    ``[low, high)``, in random order."""
    points = (np.arange(count) + rng.random(count)) / count
    return [low + (high - low) * float(p) for p in rng.permutation(points)]


def characterize_cold(seed: int, count: int) -> list[dict]:
    """``count`` request bodies, each a distinct (serial, temperature).

    Requests come in rounds of all 29 Table 1 modules in a seeded order,
    each paired with a temperature from its own slice of the paper's range,
    so every round has the same mix of modules and temperatures.
    """
    rng = _rng(seed, _COLD)
    low, high = TEMPERATURE_RANGE
    seen: set[tuple[str, float]] = set()
    bodies: list[dict] = []
    while len(bodies) < count:
        serials = [TABLE1[i] for i in rng.permutation(len(TABLE1))]
        temperatures = _strata(rng, len(TABLE1), low, high)
        for serial, temperature in zip(serials, temperatures):
            pair = (serial, round(temperature, 3))
            if pair in seen:
                continue
            seen.add(pair)
            bodies.append({"serial": pair[0], "temperature_c": pair[1]})
    return bodies[:count]


def characterize_hot_set(seed: int) -> list[dict]:
    """The ``HOT_SET`` request bodies warmed into the cache during set-up:
    every Table 1 module in a seeded order, each at a temperature from its
    own slice of the paper's range."""
    rng = _rng(seed, _HOT)
    low, high = TEMPERATURE_RANGE
    serials = [TABLE1[i] for i in rng.permutation(len(TABLE1))]
    temperatures = _strata(rng, HOT_SET, low, high)
    return [
        {"serial": serial, "temperature_c": round(temperature, 3)}
        for serial, temperature in zip(serials, temperatures)
    ]


def characterize_hot_order(seed: int, count: int) -> list[int]:
    """Indices into the hot set, one per timed request: rounds that each
    visit every hot entry once, in a seeded order."""
    rng = _rng(seed, _HOT_ORDER)
    order: list[int] = []
    while len(order) < count:
        order.extend(int(i) for i in rng.permutation(HOT_SET))
    return order[:count]


def fleet_spec(seed: int, op: int) -> FleetSpec:
    """Op ``op``'s campaign: shard ``op`` of one seeded ``mixed`` fleet at
    the default 64 x 256 geometry."""
    return FleetSpec(
        modules=FLEET_MODULES,
        seed=int(seed) % 2**63,
        offset=op * FLEET_MODULES,
        scenario=FLEET_SCENARIO,
    )


def memsys_mix(seed: int, op: int) -> list[WorkloadTrace]:
    """Op ``op``'s 4-core mix; each core's intensity, locality and write
    share come from its own stratum, so mixes differ but cost alike."""
    rng = _rng(seed, _MEMSYS, op)
    mpki = _strata(rng, MEMSYS_CORES, *MEMSYS_MPKI)
    locality = _strata(rng, MEMSYS_CORES, *MEMSYS_LOCALITY)
    writes = _strata(rng, MEMSYS_CORES, *MEMSYS_WRITES)
    return [
        WorkloadTrace(
            name=f"perfbench-{seed}-{op}-{core}",
            mpki=round(mpki[core], 3),
            locality=round(locality[core], 3),
            length=MEMSYS_LENGTH,
            write_fraction=round(writes[core], 3),
        )
        for core in range(MEMSYS_CORES)
    ]
