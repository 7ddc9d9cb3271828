"""Timing-violation checking over explicit DRAM command streams.

A `TimingChecker` checks a stream of `Command` records — (kind, channel,
rank, bank, cycle) — against every JEDEC-class minimum-spacing
constraint the configured timing object can express:

per bank     tRCD (ACT->column), tRP (PRE->ACT), tRAS (ACT->PRE),
             tRC (ACT->ACT), tRTP (RD->PRE), tWR (WR recovery->PRE);
per rank     tRRD (ACT->ACT), tFAW (four-activate window),
             tWTR (WR data->RD), tREFI (REF cadence: a REF may be
             postponed at most 9 intervals);
per channel  tCCD (column->column), data-bus burst overlap ("bus"),
             tRTRS (rank-to-rank data turnaround).

Constraints whose parameters the timing object lacks are skipped — the
checker accepts both `repro.sim.timing.MemsysTiming` (read-modeled
streams, tRTRS/tREFI) and `repro.sim.cmdlevel.CommandTiming`
(write-aware streams, tWTR/tWR) unchanged.

Streams are columnar: a `CommandLog` holds int-coded rows, and the check
is a fixed number of whole-array numpy passes over them (one stable sort
by cycle, one stable sort per grouping, one masked running maximum per
"previous command of kind K in my group" lookup).  `Command` objects are
only built for the commands a violation names.

Violations are *structured records*, not log lines: each carries the
offending command, the constraint name, the reference command it
collided with, and the earliest legal cycle.  `record` routes them to
the obs registry as ``sim_timing_violations_total{constraint,channel}``;
strict mode (`assert_legal`) raises `TimingViolationError` on the first
violation instead.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro import obs

#: Command kinds the checker understands.
COMMAND_KINDS = ("ACT", "PRE", "RD", "WR", "REF")

#: The integer code of each command kind in a `CommandLog` row.
KIND_CODES = {kind: code for code, kind in enumerate(COMMAND_KINDS)}
_ACT, _PRE, _RD, _WR, _REF = range(len(COMMAND_KINDS))

#: A REF may be postponed at most this many tREFI intervals (JEDEC).
REFI_POSTPONE_LIMIT = 9

#: Every constraint, in the order the checks of one command run: ACT
#: tRP, tRC, tRRD, tFAW; PRE tRAS, tRTP, tWR; RD/WR tRCD, tCCD, tWTR,
#: then bus or tRTRS; REF tREFI.  A command's violations are reported in
#: this order.
_CONSTRAINTS = "tRP tRC tRRD tFAW tRAS tRTP tWR tRCD tCCD tWTR bus tRTRS tREFI".split()

_VIOLATIONS = obs.counter(
    "sim_timing_violations_total",
    "Timing constraints violated by simulated command streams.",
    labelnames=("constraint", "channel"),
)


@dataclass(frozen=True)
class Command:
    """One issued DRAM command, located in the topology and in time."""

    kind: str
    channel: int
    rank: int
    bank: int
    cycle: int

    def __post_init__(self) -> None:
        if self.kind not in COMMAND_KINDS:
            raise ValueError(
                f"unknown command kind {self.kind!r}; known kinds: {COMMAND_KINDS}"
            )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "channel": self.channel,
            "rank": self.rank,
            "bank": self.bank,
            "cycle": self.cycle,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Command":
        return cls(
            kind=str(payload["kind"]),
            channel=int(payload["channel"]),
            rank=int(payload["rank"]),
            bank=int(payload["bank"]),
            cycle=int(payload["cycle"]),
        )


class CommandLog:
    """An append-only command stream stored as int-coded rows.

    Each row is (kind code, channel, rank, bank, cycle), with the kind
    coded by `KIND_CODES`, so recording a command costs no object.
    Iterating yields `Command` records; `to_json` writes exactly the list
    of `Command.to_json` dicts, so snapshots keep their bytes.
    """

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        self._rows: list[int] = []

    def append(self, kind: int, channel: int, rank: int, bank: int, cycle: int) -> None:
        """Record one command; ``kind`` is a `KIND_CODES` value."""
        self._rows += (kind, channel, rank, bank, cycle)

    def __len__(self) -> int:
        return len(self._rows) // 5

    def __iter__(self) -> Iterator[Command]:
        rows = self._rows
        for at in range(0, len(rows), 5):
            kind, channel, rank, bank, cycle = rows[at : at + 5]
            yield Command(COMMAND_KINDS[kind], channel, rank, bank, cycle)

    def rows(self) -> np.ndarray:
        """The stream as an (n, 5) int64 array (a copy), in append order."""
        rows = self._rows
        return np.fromiter(rows, dtype=np.int64, count=len(rows)).reshape(-1, 5)

    @classmethod
    def from_commands(cls, commands: Iterable[Command]) -> "CommandLog":
        log = cls()
        for command in commands:
            log.append(
                KIND_CODES[command.kind],
                command.channel,
                command.rank,
                command.bank,
                command.cycle,
            )
        return log

    def to_json(self) -> list[dict]:
        return [command.to_json() for command in self]

    @classmethod
    def from_json(cls, payload: list[dict]) -> "CommandLog":
        return cls.from_commands(Command.from_json(item) for item in payload)


@dataclass(frozen=True)
class TimingViolation:
    """One broken constraint: structured, renderable, obs-routable."""

    constraint: str
    command: Command
    earliest_legal: int
    reference: Command | None = None

    @property
    def slack(self) -> int:
        """How many cycles early the command was."""
        return self.earliest_legal - self.command.cycle

    def message(self) -> str:
        where = f"ch{self.command.channel}/rk{self.command.rank}/bk{self.command.bank}"
        text = (
            f"{self.constraint}: {self.command.kind}@{self.command.cycle} "
            f"({where}) is {self.slack} cycle(s) early "
            f"(earliest legal: {self.earliest_legal})"
        )
        if self.reference is not None:
            text += f"; conflicts with {self.reference.kind}@{self.reference.cycle}"
        return text

    def to_json(self) -> dict:
        return {
            "constraint": self.constraint,
            "command": self.command.to_json(),
            "earliest_legal": self.earliest_legal,
            "reference": (
                self.reference.to_json() if self.reference is not None else None
            ),
        }


class TimingViolationError(RuntimeError):
    """Strict mode: a command stream broke a timing constraint."""

    def __init__(self, violations: list[TimingViolation]) -> None:
        self.violations = violations
        first = violations[0]
        extra = f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""
        super().__init__(f"timing violation: {first.message()}{extra}")


def _total(*params: int | None) -> int | None:
    """The sum of timing parameters, or None when any is missing."""
    return None if None in params else sum(params)


def _sort_key(values: np.ndarray) -> np.ndarray:
    """``values`` shifted to start at 0, in the narrowest unsigned dtype
    that holds them (numpy's stable sort is a radix sort on 8- and 16-bit
    keys).  ``values`` must be non-empty."""
    shifted = values - values.min()
    return shifted.astype(np.min_scalar_type(shifted.max()))


class _Grouping:
    """The cycle-ordered stream regrouped by (part of) its location.

    ``order`` lists stream positions group by group, keeping stream order
    inside each group; ``kind`` and ``cycle`` are gathered in that order,
    and ``starts[j]`` is the index where the group of entry ``j`` begins.
    Lookups take and return indices into this grouped order.
    """

    def __init__(
        self,
        order: np.ndarray,
        kind: np.ndarray,
        cycle: np.ndarray,
        keys: tuple[np.ndarray, ...],
    ) -> None:
        boundary = np.zeros(len(order), dtype=bool)
        boundary[0] = True
        for key in keys:
            grouped = key[order]
            boundary[1:] |= grouped[1:] != grouped[:-1]
        self.order = order
        self.kind = kind[order]
        self.cycle = cycle[order]
        self._stream = (kind, cycle)
        self._index = np.arange(len(order), dtype=np.int32)
        self.starts = np.maximum.accumulate(np.where(boundary, self._index, 0))

    def then_by(self, key: np.ndarray, keys: tuple[np.ndarray, ...]) -> "_Grouping":
        """This grouping refined by ``key``, a stream-order column: a
        stable sort on top, so groups stay contiguous and keep stream
        order inside."""
        refine = np.argsort(_sort_key(key[self.order]), kind="stable")
        return _Grouping(self.order[refine], *self._stream, keys)

    def previous(self, mask: np.ndarray) -> np.ndarray:
        """For each entry, the index of the latest earlier entry of its
        group with ``mask`` set, or -1."""
        latest = np.maximum.accumulate(np.where(mask, self._index, -1))
        before = np.empty_like(latest)
        before[0] = -1
        before[1:] = latest[:-1]
        return np.where(before >= self.starts, before, -1)

    def fourth_previous(self, mask: np.ndarray) -> np.ndarray:
        """Like `previous`, but the fourth-latest earlier ``mask`` entry
        (the oldest of a four-deep window)."""
        hits = np.flatnonzero(mask)
        later, earlier = hits[4:], hits[:-4]
        found = np.full(len(mask), -1, dtype=np.int32)
        found[later] = np.where(earlier >= self.starts[later], earlier, -1)
        return found


class _Flags:
    """Violations found so far, one entry per constraint pass: (constraint
    index, stream positions, earliest legal cycles, reference positions)."""

    def __init__(self) -> None:
        self.hits: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def flag(
        self,
        constraint: str,
        group: _Grouping,
        broken: np.ndarray,
        reference: np.ndarray,
        earliest: np.ndarray,
    ) -> None:
        """Record the entries of ``group`` where ``broken`` holds and a
        reference entry exists."""
        flagged = np.flatnonzero(broken & (reference >= 0))
        self.hits.append(
            (
                _CONSTRAINTS.index(constraint),
                group.order[flagged],
                earliest[flagged],
                group.order[reference[flagged]],
            )
        )

    def spacing(
        self,
        constraint: str,
        group: _Grouping,
        applies: np.ndarray,
        reference: np.ndarray,
        minimum: int | None,
    ) -> None:
        """``applies`` entries must come ``minimum`` cycles or more after
        their ``reference`` entry (skipped when ``minimum`` is None)."""
        if minimum is not None:
            earliest = group.cycle[reference] + minimum
            broken = applies & (group.cycle < earliest)
            self.flag(constraint, group, broken, reference, earliest)


class TimingChecker:
    """Assert inter-command constraints over a command stream.

    Args:
        timing: a timing object; constraints are resolved from the
            attributes it has (`MemsysTiming`, `CommandTiming`, or any
            duck with the same field names).
        strict: when True, `check` raises `TimingViolationError` at the
            first violation instead of collecting it.
    """

    def __init__(self, timing, strict: bool = False) -> None:
        self.timing = timing
        self.strict = strict
        self.violations: list[TimingViolation] = []
        self._recorded = 0

    def _param(self, name: str) -> int | None:
        value = getattr(self.timing, name, None)
        return int(value) if value is not None else None

    # ------------------------------------------------------------------
    def check(self, commands: CommandLog | Iterable[Command]) -> list[TimingViolation]:
        """Check a whole stream (any issue order; sorted by cycle here).

        ``commands`` is a `CommandLog` or any iterable of `Command`s.
        Commands are taken in cycle order; commands on the same cycle keep
        their input order.  Returns the violations found in this call
        (also appended to ``self.violations``), ordered by command and,
        within a command, by its constraints in check order.  Strict
        checkers raise on the first one.
        """
        if not isinstance(commands, CommandLog):
            commands = CommandLog.from_commands(commands)
        if not len(commands):
            return []
        rows = commands.rows()
        order = np.argsort(rows[:, 4], kind="stable")
        kind, channel, rank, bank, cycle = (column[order] for column in rows.T)
        # Only the cycle-ordered columns are kept, and one grouping at a
        # time is built, checked and dropped: peak memory stays near a few
        # stream-length arrays.
        del rows, order
        kind = kind.astype(np.int8)

        flags = _Flags()
        by_channel = np.argsort(_sort_key(channel), kind="stable")
        group = _Grouping(by_channel, kind, cycle, (channel,))
        self._check_channels(group, rank, flags)
        group = group.then_by(rank, (channel, rank))
        self._check_ranks(group, flags)
        group = group.then_by(bank, (channel, rank, bank))
        self._check_banks(group, flags)

        hits = flags.hits
        if not hits:  # the timing object defines none of the parameters
            return []
        position = np.concatenate([at for _, at, _, _ in hits])
        rule = np.concatenate([np.full(len(at), code) for code, at, _, _ in hits])
        earliest = np.concatenate([value for _, _, value, _ in hits])
        reference = np.concatenate([before for _, _, _, before in hits])
        ranked = np.lexsort((rule, position))
        if self.strict:
            ranked = ranked[:1]

        def commands_at(at: np.ndarray) -> list[Command]:
            columns = (kind, channel, rank, bank, cycle)
            fields = (column[at].tolist() for column in columns)
            return [Command(COMMAND_KINDS[code], *where) for code, *where in zip(*fields)]

        found = [
            TimingViolation(
                constraint=_CONSTRAINTS[code],
                command=command,
                earliest_legal=legal,
                reference=before,
            )
            for code, command, legal, before in zip(
                rule[ranked].tolist(),
                commands_at(position[ranked]),
                earliest[ranked].tolist(),
                commands_at(reference[ranked]),
            )
        ]
        self.violations.extend(found)
        if self.strict and found:
            raise TimingViolationError(found)
        return found

    def _check_channels(self, g: _Grouping, rank: np.ndarray, flags: _Flags) -> None:
        """tCCD, and the data bus with tRTRS.  A column command holds its
        channel's data bus from cycle + CL (RD) or CWL (WR) for t_burst
        cycles, when the timing object defines that latency."""
        is_rd, is_wr = g.kind == _RD, g.kind == _WR
        is_column = is_rd | is_wr
        flags.spacing("tCCD", g, is_column, g.previous(is_column), self._param("t_ccd"))
        t_cl, t_cwl = self._param("t_cl"), self._param("t_cwl")
        t_burst, t_rtrs = self._param("t_burst"), self._param("t_rtrs")
        if t_burst is None:
            return
        is_data = (is_rd & (t_cl is not None)) | (is_wr & (t_cwl is not None))
        latency = np.where(is_wr, t_cwl or 0, t_cl or 0)
        burst = g.previous(is_data)
        data_rank = rank[g.order]
        switch = (data_rank[burst] != data_rank) & (t_rtrs is not None)
        bus_free = g.cycle[burst] + latency[burst] + t_burst
        legal = bus_free + np.where(switch, t_rtrs or 0, 0) - latency
        early = is_data & (g.cycle < legal)
        flags.flag("bus", g, early & ~switch, burst, legal)
        flags.flag("tRTRS", g, early & switch, burst, legal)

    def _check_ranks(self, g: _Grouping, flags: _Flags) -> None:
        """tRRD, tFAW, tWTR (from a WR's data end) and the tREFI window."""
        is_act = g.kind == _ACT
        flags.spacing("tRRD", g, is_act, g.previous(is_act), self._param("t_rrd"))
        flags.spacing("tFAW", g, is_act, g.fourth_previous(is_act), self._param("t_faw"))
        t_wtr = _total(self._param("t_cwl"), self._param("t_burst"), self._param("t_wtr"))
        if t_wtr is not None:
            flags.spacing("tWTR", g, g.kind == _RD, g.previous(g.kind == _WR), t_wtr)
        t_refi = self._param("t_refi")
        if t_refi is not None:
            is_ref = g.kind == _REF
            ref = g.previous(is_ref)
            limit = g.cycle[ref] + REFI_POSTPONE_LIMIT * t_refi
            flags.flag("tREFI", g, is_ref & (g.cycle > limit), ref, limit)

    def _check_banks(self, g: _Grouping, flags: _Flags) -> None:
        """tRP, tRC, tRAS, tRTP, tWR (from a WR's data end) and tRCD."""
        is_act, is_pre = g.kind == _ACT, g.kind == _PRE
        act = g.previous(is_act)
        flags.spacing("tRP", g, is_act, g.previous(is_pre), self._param("t_rp"))
        flags.spacing("tRC", g, is_act, act, self._param("t_rc"))
        flags.spacing("tRAS", g, is_pre, act, self._param("t_ras"))
        flags.spacing("tRTP", g, is_pre, g.previous(g.kind == _RD), self._param("t_rtp"))
        t_wr = _total(self._param("t_cwl"), self._param("t_burst"), self._param("t_wr"))
        if t_wr is not None:
            flags.spacing("tWR", g, is_pre, g.previous(g.kind == _WR), t_wr)
        is_column = (g.kind == _RD) | (g.kind == _WR)
        flags.spacing("tRCD", g, is_column, act, self._param("t_rcd"))

    # ------------------------------------------------------------------
    def assert_legal(self, commands) -> None:
        """Strict one-shot check: raise on any violation."""
        violations = self.check(commands)
        if violations:
            raise TimingViolationError(violations)

    def record(self) -> None:
        """Publish the violations collected since the last `record` onto
        the obs registry (each violation is published once)."""
        record_violations(self.violations[self._recorded :])
        self._recorded = len(self.violations)


def record_violations(violations: list[TimingViolation]) -> None:
    """Route structured violation records to the obs registry: one
    increment per (constraint, channel), by its violation count."""
    if not obs.is_enabled():
        return
    counts = Counter((v.constraint, v.command.channel) for v in violations)
    for (constraint, channel), count in counts.items():
        _VIOLATIONS.labels(constraint=constraint, channel=str(channel)).inc(count)


def commands_from_log(
    log: list[tuple[str, int, int]], channel: int = 0, rank: int = 0
) -> list[Command]:
    """Adapt a `CommandLevelController` ``command_log`` — (kind, bank,
    cycle) tuples of one single-rank channel — into checker commands."""
    return [
        Command(kind=kind, channel=channel, rank=rank, bank=bank, cycle=cycle)
        for kind, bank, cycle in log
    ]
