"""Host-speed probes, and call times at a reference host speed.

The shared host this benchmark runs on changes speed by 25-50% for seconds
to tens of seconds at a time, in CPU time as well as wall time, which no
run window the benchmark can afford averages out.  Each timed phase
therefore times a small fixed kernel between its calls (never inside one),
at most every `PROBE_EVERY_S`, and `local_scales` converts each call's host
seconds to seconds at the kernel's reference speed around that call.

The kernels call nothing of the program under test, so a change to the
program cannot move them; only the host's speed does.  Each runs once
untimed before it is timed, so what the last call left in the CPU caches
does not count either.  Each workload names its kernel (``probe``: the
host's slow spells slow interpreter-bound and numpy-bound code by
different amounts) and how its calls are scaled (``call_speed``: one by
one, ``local``, when the probe runs in the process doing the work; by the
run's speed, ``run``; or not at all, ``host``, when they do not follow CPU
speed).  Set-up is scaled by the run's speed on the numpy kernel
(`SETUP_PROBE`).  See the README's "Host speed" section for the
measurements behind each choice.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

import numpy as np

#: Least seconds between two probes in a timed phase.
PROBE_EVERY_S = 0.25
#: Probes around a call whose median is its local host speed.
PROBE_SMOOTHING = 5
#: Median timed probe seconds of each kernel in a workload worker on the
#: shared 2-vCPU host the benchmark was defined on.
PROBE_REFERENCE_S = {"python": 0.0019, "numpy": 0.0022}
#: The kernel that scales set-up (process start, imports, and on the
#: characterize workloads the server's numpy warm-up), on every workload.
SETUP_PROBE = "numpy"


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0


_SLOTS = [_Slot(i) for i in range(1 << 14)]


def _python_kernel() -> None:
    """Attribute updates, dict updates and a bounded heap."""
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    for i in range(2000):
        slot = _SLOTS[(i * 40503) % len(_SLOTS)]
        slot.value += 1
        key = slot.key % 8191
        table[key] = table.get(key, 0) + slot.value
        heapq.heappush(heap, (key, i))
        if len(heap) > 256:
            heapq.heappop(heap)


_ARRAY = np.random.default_rng(0).random((64, 256))


def _numpy_kernel() -> None:
    """Elementwise transcendentals, a row sort and a count on one
    subarray-sized (64 x 256) array, like the physics the workloads run."""
    for _ in range(20):
        values = np.exp(-_ARRAY) * 1.5 + np.log1p(_ARRAY)
        values.sort(axis=1)
        int((values > 0.7).sum())


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def probe_s(kind: str) -> float:
    """Seconds one timed run of the ``kind`` kernel takes now."""
    kernel = KERNELS[kind]
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostSpeed:
    """The probes of one timed phase: the ``SETUP_PROBE`` kernel and the
    workload's own ``kind``, each into its list of ``samples_s``."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        # The workload's kernel runs last, next to the call it scales.
        kinds = dict.fromkeys((SETUP_PROBE, kind))
        self.samples_s: dict[str, list[float]] = {k: [] for k in kinds}
        self._last = -math.inf

    def between_calls(self) -> int:
        """Probe if one is due; returns the index of the latest probe,
        which the next call's local speed is centred on."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            for kind, samples in self.samples_s.items():
                samples.append(probe_s(kind))
            self._last = time.perf_counter()
        return len(self.samples_s[self.kind]) - 1


def speed_scale(kind: str, samples_s: list[float]) -> float:
    """Reference seconds per host second at a speed these probes measured."""
    return PROBE_REFERENCE_S[kind] / statistics.median(samples_s)


def call_scales(
    kind: str, samples_s: list[float], call_probes: list[int], call_speed: str
) -> list[float]:
    """Reference seconds per host second for each call, as ``call_speed``
    says: the speed around each call (``local``), the run's speed
    (``run``) or none (``host``)."""
    if call_speed == "local":
        return local_scales(kind, samples_s, call_probes)
    if call_speed == "run":
        return [speed_scale(kind, samples_s)] * len(call_probes)
    if call_speed == "host":
        return [1.0] * len(call_probes)
    raise ValueError(f"unknown call_speed {call_speed!r}")


def local_scales(kind: str, samples_s: list[float], call_probes: list[int]) -> list[float]:
    """`speed_scale` of the `PROBE_SMOOTHING` probes centred on each call's
    latest probe (``call_probes``, as `HostSpeed.between_calls` returned)."""
    half = PROBE_SMOOTHING // 2
    return [
        speed_scale(kind, samples_s[max(0, probe - half) : probe + half + 1])
        for probe in call_probes
    ]
