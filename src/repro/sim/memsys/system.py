"""The multi-rank / multi-channel memory system.

`MemorySystem` generalizes `repro.sim.controller.MemoryController` to
R ranks x C channels: every channel has its own data bus (accesses on
different channels never serialize against each other) and every rank
shares its channel's bus behind a rank-to-rank turnaround (``t_rtrs``)
whenever consecutive data bursts come from different ranks.

It exposes the same duck interface as the single-channel controller
(``banks`` as a flat list over the global bank space, ``enqueue`` /
``serve_next`` / ``stats``), so the event loop drives either unchanged.
With ``channels == ranks == 1`` the scheduling arithmetic reduces
term-for-term to `MemoryController.serve_next` — the parity suite pins
the two bit-identical.

Two optional fidelity layers:

* ``check_timing`` synthesizes the explicit command stream implied by
  the three-latency schedule (PRE/ACT/RD placements) and runs it through
  the `TimingChecker` at end of run — an honest account of where the
  abstract model breaks JEDEC spacing rules.
* ``enforce_timing`` additionally *delays* each access until its implied
  commands are legal (per-bank tRC/tRAS/tRTP, per-rank tRRD/tFAW,
  per-channel tCCD, bus + tRTRS), so a checked run reports zero
  violations.  Enforcement changes schedules, so it is opt-in; the
  default path stays bit-identical to the historic model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro import obs
from repro.sim.controller import ControllerStats, MemoryRequest
from repro.sim.memsys.counters import SystemCounters
from repro.sim.memsys.timingcheck import KIND_CODES, CommandLog, TimingChecker
from repro.sim.memsys.topology import SINGLE_CHANNEL, MemsysTopology
from repro.sim.refreshpolicy import NoRefresh, RefreshPolicy
from repro.sim.timing import MEMSYS_DDR4_3200, MemsysTiming

_FAR_PAST = -(10**9)
_PRE, _ACT, _RD = KIND_CODES["PRE"], KIND_CODES["ACT"], KIND_CODES["RD"]

# Same family/labels as the single-channel controller registers: the
# registry returns the existing family, so both models feed one series.
_REQUESTS = obs.counter(
    "sim_requests_total",
    "Memory requests served by the simulated controller, by row outcome.",
    labelnames=("outcome",),
)
_REQ_HIT = _REQUESTS.labels(outcome="hit")
_REQ_CLOSED = _REQUESTS.labels(outcome="closed")
_REQ_CONFLICT = _REQUESTS.labels(outcome="conflict")


@dataclass
class _SysBankState:
    """Open-row and occupancy state of one bank (plus the enforcement
    trackers; unused — and unchanging — when enforcement is off)."""

    open_row: int | None = None
    free_at: int = 0
    queue: list = field(default_factory=list)
    act_at: int = _FAR_PAST
    ready_for_pre: int = 0

    def to_json(self) -> dict:
        return {
            "open_row": self.open_row,
            "free_at": self.free_at,
            "act_at": self.act_at,
            "ready_for_pre": self.ready_for_pre,
            "queue": [_request_to_json(r) for r in self.queue],
        }


@dataclass
class _RankState:
    """ACT bookkeeping of one (channel, rank) for tRRD/tFAW enforcement."""

    last_act: int = _FAR_PAST
    acts: deque = field(default_factory=lambda: deque(maxlen=4))

    def to_json(self) -> dict:
        return {"last_act": self.last_act, "acts": list(self.acts)}


def _request_to_json(request: MemoryRequest) -> dict:
    return {
        "core": request.core,
        "index": request.index,
        "bank": request.bank,
        "row": request.row,
        "arrival": request.arrival,
        "is_write": request.is_write,
        "issue": request.issue,
        "completion": request.completion,
        "row_hit": request.row_hit,
    }


def _request_from_json(payload: dict) -> MemoryRequest:
    return MemoryRequest(
        core=int(payload["core"]),
        index=int(payload["index"]),
        bank=int(payload["bank"]),
        row=int(payload["row"]),
        arrival=int(payload["arrival"]),
        is_write=bool(payload["is_write"]),
        issue=int(payload["issue"]),
        completion=int(payload["completion"]),
        row_hit=bool(payload["row_hit"]),
    )


class MemorySystem:
    """R ranks x C channels of banks behind one scheduling interface.

    Args:
        banks: global bank count, interleaved over the topology
            (must divide evenly by ``channels * ranks``).
        topology: channel/rank layout (default: single channel, single
            rank — the historic controller, bit-identical).
        timing: `MemsysTiming` parameters (a `SimTiming` superset).
        policy: refresh policy (blockers per global bank index).
        fr_fcfs: row hits first, then oldest (else plain FCFS).
        mechanism: optional reactive mitigation (`repro.sim.mechanism`).
        check_timing: synthesize the implied command stream and check it
            with `TimingChecker` at end of run.
        enforce_timing: delay accesses until their implied commands are
            legal (changes schedules; off by default for parity).
    """

    def __init__(
        self,
        banks: int = 16,
        topology: MemsysTopology = SINGLE_CHANNEL,
        timing: MemsysTiming = MEMSYS_DDR4_3200,
        policy: RefreshPolicy | None = None,
        fr_fcfs: bool = True,
        mechanism=None,
        check_timing: bool = False,
        enforce_timing: bool = False,
    ) -> None:
        topology.validate_banks(banks)
        self.topology = topology
        self.timing = timing
        self.policy = policy if policy is not None else NoRefresh()
        self.fr_fcfs = fr_fcfs
        self.mechanism = mechanism
        self.check_timing = check_timing
        self.enforce_timing = enforce_timing
        self.banks = [_SysBankState() for _ in range(banks)]
        self._blockers = [self.policy.blockers(b) for b in range(banks)]
        channels, ranks = topology.channels, topology.ranks
        self.channel_free_at = [0] * channels
        self.last_data_rank: list[int | None] = [None] * channels
        self.last_column_at = [_FAR_PAST] * channels
        self.rank_state = [[_RankState() for _ in range(ranks)] for _ in range(channels)]
        self.stats = ControllerStats()
        self.counters = SystemCounters(channel_count=channels, rank_count=ranks)
        self.commands = CommandLog()

    @property
    def bank_count(self) -> int:
        return len(self.banks)

    def enqueue(self, request: MemoryRequest) -> None:
        """Add an arrived request to its bank queue."""
        self.banks[request.bank].queue.append(request)

    def bank_has_work(self, bank: int) -> bool:
        return bool(self.banks[bank].queue)

    # ------------------------------------------------------------------
    def serve_next(self, bank_index: int, now: int) -> MemoryRequest | None:
        """Issue the next request of ``bank_index`` (FR-FCFS), if any.

        Mirrors `MemoryController.serve_next` term for term, with the
        channel-local data bus and the rank-to-rank turnaround replacing
        the single global bus.
        """
        bank = self.banks[bank_index]
        if not bank.queue:
            return None
        ready = [r for r in bank.queue if r.arrival <= now]
        if not ready:
            return None
        if self.fr_fcfs:
            request = next((r for r in ready if r.row == bank.open_row), ready[0])
        else:
            request = ready[0]
        bank.queue.remove(request)

        channel, rank = self.topology.locate(bank_index)
        timing = self.timing
        start = max(now, bank.free_at, request.arrival)
        start = self._resolve_blockers(bank_index, start, request.row)
        if bank.open_row is None:
            outcome = "closed"
            latency = timing.closed_latency()
            self.stats.row_closed += 1
            _REQ_CLOSED.inc()
        elif bank.open_row == request.row:
            outcome = "hit"
            latency = timing.hit_latency()
            request.row_hit = True
            self.stats.row_hits += 1
            _REQ_HIT.inc()
        else:
            outcome = "conflict"
            latency = timing.conflict_latency()
            self.stats.row_conflicts += 1
            _REQ_CONFLICT.inc()

        # Data-bus serialization: the burst must not overlap another burst
        # on this channel, plus the rank-to-rank turnaround when the bus
        # switches ranks.  (With one rank the turnaround never applies and
        # this is exactly the single-channel controller's bus step.)
        turnaround = 0
        previous_rank = self.last_data_rank[channel]
        if previous_rank is not None and previous_rank != rank:
            turnaround = timing.t_rtrs
        if self.enforce_timing:
            start = self._enforce(
                bank_index,
                channel,
                rank,
                bank,
                outcome,
                start,
                latency,
                turnaround,
                request.row,
            )
        else:
            data_start = start + latency - timing.t_burst
            if data_start < self.channel_free_at[channel] + turnaround:
                shift = self.channel_free_at[channel] + turnaround - data_start
                start += shift
                start = self._resolve_blockers(bank_index, start, request.row)
        completion = start + latency

        request.issue = start
        request.completion = completion
        bank.open_row = request.row
        bank.free_at = completion
        if self.mechanism is not None and not request.row_hit:
            extra = self.mechanism.on_activate(request.bank, request.row, start)
            bank.free_at += extra
        self.channel_free_at[channel] = completion
        if turnaround:
            self.counters.channels[channel].turnarounds += 1
        self.last_data_rank[channel] = rank
        self.stats.requests += 1
        self._account(bank_index, channel, rank, bank, outcome, start)
        return request

    # ------------------------------------------------------------------
    def _implied_commands(
        self, outcome: str, start: int
    ) -> tuple[int | None, int | None, int]:
        """(pre, act, column) cycles implied by an access at ``start``."""
        timing = self.timing
        if outcome == "conflict":
            return start, start + timing.t_rp, start + timing.t_rp + timing.t_rcd
        if outcome == "closed":
            return None, start, start + timing.t_rcd
        return None, None, start

    def _enforce(
        self,
        bank_index: int,
        channel: int,
        rank: int,
        bank: _SysBankState,
        outcome: str,
        start: int,
        latency: int,
        turnaround: int,
        row: int,
    ) -> int:
        """Earliest start >= ``start`` whose implied commands are legal.

        All constraints are minimum spacings, so delaying never breaks an
        already-satisfied one; the loop monotonically raises ``start``
        until blockers, the data bus, and every command constraint agree.
        """
        timing = self.timing
        rank_state = self.rank_state[channel][rank]
        pre_off, act_off, col_off = 0, None, latency - timing.t_cl - timing.t_burst
        if outcome == "conflict":
            act_off = timing.t_rp
        elif outcome == "closed":
            act_off = 0
        while True:
            candidate = start
            if outcome == "conflict":
                candidate = max(candidate, bank.ready_for_pre - pre_off)
            if act_off is not None:
                candidate = max(
                    candidate,
                    bank.act_at + timing.t_rc - act_off,
                    rank_state.last_act + timing.t_rrd - act_off,
                )
                if len(rank_state.acts) == 4:
                    candidate = max(
                        candidate, rank_state.acts[0] + timing.t_faw - act_off
                    )
            candidate = max(
                candidate, self.last_column_at[channel] + timing.t_ccd - col_off
            )
            data_start = candidate + latency - timing.t_burst
            bus_min = self.channel_free_at[channel] + turnaround
            if data_start < bus_min:
                candidate += bus_min - data_start
            candidate = self._resolve_blockers(bank_index, candidate, row)
            if candidate == start:
                return start
            start = candidate

    def _account(
        self,
        bank_index: int,
        channel: int,
        rank: int,
        bank: _SysBankState,
        outcome: str,
        start: int,
    ) -> None:
        """Fold one served access into counters, trackers, and (when
        checking) the synthesized command stream."""
        timing = self.timing
        rank_counters = self.counters.ranks[channel][rank]
        rank_counters.requests += 1
        rank_counters.busy_cycles += timing.t_burst
        if outcome == "hit":
            rank_counters.row_hits += 1
        elif outcome == "closed":
            rank_counters.row_closed += 1
        else:
            rank_counters.row_conflicts += 1
        pre, act, column = self._implied_commands(outcome, start)
        channel_counters = self.counters.channels[channel]
        channel_counters.commands += 1 + (pre is not None) + (act is not None)
        channel_counters.column_commands += 1
        if self.enforce_timing:
            rank_state = self.rank_state[channel][rank]
            if act is not None:
                bank.act_at = act
                rank_state.last_act = act
                rank_state.acts.append(act)
                bank.ready_for_pre = max(act + timing.t_ras, column + timing.t_rtp)
            else:
                bank.ready_for_pre = max(bank.ready_for_pre, column + timing.t_rtp)
            self.last_column_at[channel] = column
        if self.check_timing:
            commands = self.commands
            if pre is not None:
                commands.append(_PRE, channel, rank, bank_index, pre)
            if act is not None:
                commands.append(_ACT, channel, rank, bank_index, act)
            commands.append(_RD, channel, rank, bank_index, column)

    def run_checker(self, strict: bool = False) -> TimingChecker:
        """Check the synthesized command stream collected so far."""
        checker = TimingChecker(self.timing, strict=strict)
        checker.check(self.commands)
        checker.record()
        return checker

    def _resolve_blockers(
        self, bank_index: int, cycle: int, row: int | None = None
    ) -> int:
        """Earliest cycle >= ``cycle`` at which no refresh window blocks the
        access.  Iterates because leaving one window may land in another.
        Region-aware policies (SMD) contribute row-dependent blockers."""
        blockers = self._blockers[bank_index]
        if self.policy.region_aware and row is not None:
            blockers = blockers + self.policy.blockers_for(bank_index, row)
        if not blockers:
            return cycle
        changed = True
        while changed:
            changed = False
            for blocker in blockers:
                available = blocker.next_available(cycle)
                if available != cycle:
                    cycle = available
                    changed = True
        return cycle

    # ------------------------------------------------------------------
    # Snapshot support (see repro.sim.memsys.snapshot)
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Exact JSON-able internal state (for snapshot/restore)."""
        if self.mechanism is not None:
            raise ValueError(
                "snapshot/restore does not support reactive mechanisms "
                "(their internal state is not serializable)"
            )
        return {
            "banks": [bank.to_json() for bank in self.banks],
            "channel_free_at": list(self.channel_free_at),
            "last_data_rank": list(self.last_data_rank),
            "last_column_at": list(self.last_column_at),
            "rank_state": [
                [rank.to_json() for rank in channel] for channel in self.rank_state
            ],
            "stats": {
                "requests": self.stats.requests,
                "row_hits": self.stats.row_hits,
                "row_conflicts": self.stats.row_conflicts,
                "row_closed": self.stats.row_closed,
            },
            "counters": self.counters.to_json(),
            "commands": self.commands.to_json(),
        }

    def load_state(self, state: dict) -> None:
        """Restore internal state captured by `state` (same construction)."""
        if len(state["banks"]) != len(self.banks):
            raise ValueError("snapshot bank count does not match this system")
        for bank, payload in zip(self.banks, state["banks"]):
            bank.open_row = (
                int(payload["open_row"]) if payload["open_row"] is not None else None
            )
            bank.free_at = int(payload["free_at"])
            bank.act_at = int(payload["act_at"])
            bank.ready_for_pre = int(payload["ready_for_pre"])
            bank.queue = [_request_from_json(r) for r in payload["queue"]]
        self.channel_free_at = [int(v) for v in state["channel_free_at"]]
        self.last_data_rank = [
            int(v) if v is not None else None for v in state["last_data_rank"]
        ]
        self.last_column_at = [int(v) for v in state["last_column_at"]]
        for channel, payloads in zip(self.rank_state, state["rank_state"]):
            for rank, payload in zip(channel, payloads):
                rank.last_act = int(payload["last_act"])
                rank.acts = deque((int(v) for v in payload["acts"]), maxlen=4)
        stats = state["stats"]
        self.stats = ControllerStats(
            requests=int(stats["requests"]),
            row_hits=int(stats["row_hits"]),
            row_conflicts=int(stats["row_conflicts"]),
            row_closed=int(stats["row_closed"]),
        )
        self.counters = SystemCounters.from_json(state["counters"])
        self.commands = CommandLog.from_json(state["commands"])
