"""The columnar `TimingChecker` against the per-command loop it replaced.

The loop checker below is frozen here as a test-only oracle (the way
`ReferenceKernel` is kept for the bank kernels).  The columnar checker
must return the same violation list as the loop — constraint, offending
command, earliest legal cycle, reference command and order — for any
stream, under three timing objects: the memsys timing (read-modeled,
tRTRS/tREFI), the command-level timing (write-aware, tWTR/tWR), and a
partial duck that only knows the data bus and tREFI.  Strict mode must
raise on the same first violation, and repeated checks must accumulate
the same ``violations``.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import DDR4_3200_COMMANDS
from repro.sim.memsys import (
    Command,
    CommandLog,
    MemsysSimulation,
    MemsysTopology,
    TimingChecker,
    TimingViolation,
    TimingViolationError,
)
from repro.sim.memsys.timingcheck import COMMAND_KINDS, REFI_POSTPONE_LIMIT
from repro.sim.refreshpolicy import NoRefresh
from repro.sim.timing import MEMSYS_DDR4_3200
from repro.workloads.trace import WorkloadTrace

#: Data-bus geometry and tREFI only: every per-bank/per-rank spacing
#: constraint is skipped.
BUS_ONLY = SimpleNamespace(t_cl=22, t_cwl=16, t_burst=4, t_ccd=8, t_rtrs=4, t_refi=100)

TIMINGS = {
    "memsys": MEMSYS_DDR4_3200,
    "cmdlevel": DDR4_3200_COMMANDS,
    "bus_only": BUS_ONLY,
}


# ----------------------------------------------------------------------
# The frozen oracle: the per-command loop checker, verbatim.
# ----------------------------------------------------------------------
class _BankTrack:
    __slots__ = ("last_act", "last_pre", "last_rd", "wr_data_end")

    def __init__(self) -> None:
        self.last_act: Command | None = None
        self.last_pre: Command | None = None
        self.last_rd: Command | None = None
        self.wr_data_end: tuple[int, Command] | None = None


class _RankTrack:
    __slots__ = ("acts", "wr_data_end", "last_ref")

    def __init__(self) -> None:
        self.acts: deque[Command] = deque(maxlen=4)
        self.wr_data_end: tuple[int, Command] | None = None
        self.last_ref: Command | None = None


class _ChannelTrack:
    __slots__ = ("last_column", "data_end", "data_rank", "data_ref")

    def __init__(self) -> None:
        self.last_column: Command | None = None
        self.data_end: int | None = None
        self.data_rank: int | None = None
        self.data_ref: Command | None = None


class LoopTimingChecker:
    """The loop checker as it was before the columnar rewrite."""

    def __init__(self, timing, strict: bool = False) -> None:
        self.timing = timing
        self.strict = strict
        self.violations: list[TimingViolation] = []

    def _param(self, name: str) -> int | None:
        value = getattr(self.timing, name, None)
        return int(value) if value is not None else None

    def check(self, commands) -> list[TimingViolation]:
        t_rcd = self._param("t_rcd")
        t_rp = self._param("t_rp")
        t_ras = self._param("t_ras")
        t_rc = self._param("t_rc")
        t_rtp = self._param("t_rtp")
        t_wr = self._param("t_wr")
        t_rrd = self._param("t_rrd")
        t_faw = self._param("t_faw")
        t_ccd = self._param("t_ccd")
        t_wtr = self._param("t_wtr")
        t_cl = self._param("t_cl")
        t_cwl = self._param("t_cwl")
        t_burst = self._param("t_burst")
        t_rtrs = self._param("t_rtrs")
        t_refi = self._param("t_refi")

        banks: dict[tuple[int, int, int], _BankTrack] = {}
        ranks: dict[tuple[int, int], _RankTrack] = {}
        channels: dict[int, _ChannelTrack] = {}
        found: list[TimingViolation] = []

        def flag(
            constraint: str,
            command: Command,
            earliest: int,
            reference: Command | None,
        ) -> None:
            violation = TimingViolation(
                constraint=constraint,
                command=command,
                earliest_legal=earliest,
                reference=reference,
            )
            found.append(violation)
            self.violations.append(violation)
            if self.strict:
                raise TimingViolationError([violation])

        def require(
            constraint: str,
            command: Command,
            reference: Command | None,
            earliest: int,
        ) -> None:
            if command.cycle < earliest:
                flag(constraint, command, earliest, reference)

        for command in sorted(commands, key=lambda c: c.cycle):
            bank = banks.setdefault(
                (command.channel, command.rank, command.bank), _BankTrack()
            )
            rank = ranks.setdefault((command.channel, command.rank), _RankTrack())
            channel = channels.setdefault(command.channel, _ChannelTrack())

            if command.kind == "ACT":
                if t_rp is not None and bank.last_pre is not None:
                    require("tRP", command, bank.last_pre, bank.last_pre.cycle + t_rp)
                if t_rc is not None and bank.last_act is not None:
                    require("tRC", command, bank.last_act, bank.last_act.cycle + t_rc)
                if t_rrd is not None and rank.acts:
                    last = rank.acts[-1]
                    require("tRRD", command, last, last.cycle + t_rrd)
                if t_faw is not None and len(rank.acts) == 4:
                    oldest = rank.acts[0]
                    require("tFAW", command, oldest, oldest.cycle + t_faw)
                bank.last_act = command
                rank.acts.append(command)

            elif command.kind == "PRE":
                if t_ras is not None and bank.last_act is not None:
                    require("tRAS", command, bank.last_act, bank.last_act.cycle + t_ras)
                if t_rtp is not None and bank.last_rd is not None:
                    require("tRTP", command, bank.last_rd, bank.last_rd.cycle + t_rtp)
                if t_wr is not None and bank.wr_data_end is not None:
                    end, reference = bank.wr_data_end
                    require("tWR", command, reference, end + t_wr)
                bank.last_pre = command

            elif command.kind in ("RD", "WR"):
                if t_rcd is not None and bank.last_act is not None:
                    require("tRCD", command, bank.last_act, bank.last_act.cycle + t_rcd)
                if t_ccd is not None and channel.last_column is not None:
                    require(
                        "tCCD",
                        command,
                        channel.last_column,
                        channel.last_column.cycle + t_ccd,
                    )
                if (
                    command.kind == "RD"
                    and t_wtr is not None
                    and rank.wr_data_end is not None
                ):
                    end, reference = rank.wr_data_end
                    require("tWTR", command, reference, end + t_wtr)
                latency = t_cwl if command.kind == "WR" else t_cl
                if latency is not None and t_burst is not None:
                    data_start = command.cycle + latency
                    if channel.data_end is not None:
                        gap = 0
                        constraint = "bus"
                        if (
                            t_rtrs is not None
                            and channel.data_rank is not None
                            and channel.data_rank != command.rank
                        ):
                            gap = t_rtrs
                            constraint = "tRTRS"
                        if data_start < channel.data_end + gap:
                            flag(
                                constraint,
                                command,
                                channel.data_end + gap - latency,
                                channel.data_ref,
                            )
                    channel.data_end = data_start + t_burst
                    channel.data_rank = command.rank
                    channel.data_ref = command
                    if command.kind == "WR":
                        bank.wr_data_end = (data_start + t_burst, command)
                        rank.wr_data_end = (data_start + t_burst, command)
                if command.kind == "RD":
                    bank.last_rd = command
                channel.last_column = command

            elif command.kind == "REF":
                if t_refi is not None and rank.last_ref is not None:
                    limit = rank.last_ref.cycle + REFI_POSTPONE_LIMIT * t_refi
                    if command.cycle > limit:
                        flag("tREFI", command, limit, rank.last_ref)
                rank.last_ref = command

        return found


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _cmd(kind, cycle, bank=0, rank=0, channel=0):
    return Command(kind=kind, channel=channel, rank=rank, bank=bank, cycle=cycle)


def _assert_same(timing, *streams) -> None:
    """Both checkers, fed the same streams one `check` after another, return
    the same lists and accumulate the same ``violations``."""
    checker, oracle = TimingChecker(timing), LoopTimingChecker(timing)
    for stream in streams:
        assert checker.check(stream) == oracle.check(stream)
        assert checker.check(CommandLog.from_commands(stream)) == oracle.check(stream)
    assert checker.violations == oracle.violations


def _assert_same_strict(timing, stream) -> None:
    checker = TimingChecker(timing, strict=True)
    oracle = LoopTimingChecker(timing, strict=True)
    try:
        oracle.check(stream)
    except TimingViolationError as expected:
        with pytest.raises(TimingViolationError) as raised:
            checker.check(stream)
        assert raised.value.violations == expected.violations
        assert str(raised.value) == str(expected)
    else:
        assert checker.check(stream) == []
    assert checker.violations == oracle.violations


def _refi_cycles(timing) -> list[int]:
    t_refi = getattr(timing, "t_refi", None) or 100
    window = REFI_POSTPONE_LIMIT * t_refi
    return [window - 1, window, window + 1, 2 * window]


@st.composite
def timed_streams(draw, max_size: int = 40):
    """(timing name, stream): commands over 2 channels x 2 ranks x 3 banks,
    drawn in any order from a small cycle range (same-cycle ties across
    kinds are common), plus cycles around the tREFI postpone limit."""
    name = draw(st.sampled_from(sorted(TIMINGS)))
    cycles = st.one_of(st.integers(0, 160), st.sampled_from(_refi_cycles(TIMINGS[name])))
    command = st.builds(
        Command,
        kind=st.sampled_from(COMMAND_KINDS),
        channel=st.integers(0, 1),
        rank=st.integers(0, 1),
        bank=st.integers(0, 2),
        cycle=cycles,
    )
    return name, draw(st.lists(command, max_size=max_size))


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(timed_streams())
def test_matches_the_loop_oracle(case):
    name, stream = case
    _assert_same(TIMINGS[name], stream)
    log = CommandLog.from_commands(stream)
    assert len(log) == len(stream)
    assert list(log) == stream
    assert log.to_json() == [command.to_json() for command in stream]
    assert list(CommandLog.from_json(log.to_json())) == stream


@settings(max_examples=40, deadline=None)
@given(timed_streams())
def test_strict_mode_raises_on_the_same_first_violation(case):
    name, stream = case
    _assert_same_strict(TIMINGS[name], stream)


@settings(max_examples=25, deadline=None)
@given(timed_streams(max_size=20), timed_streams(max_size=20))
def test_repeated_checks_accumulate_the_same_violations(first, second):
    _assert_same(TIMINGS[first[0]], first[1], second[1])


# ----------------------------------------------------------------------
# Named edge cases, under every timing object
# ----------------------------------------------------------------------
def _edge_streams(timing) -> dict[str, list[Command]]:
    refi = _refi_cycles(timing)
    return {
        "empty": [],
        "one command": [_cmd("ACT", 5)],
        "unsorted": [_cmd("RD", 30), _cmd("PRE", 0), _cmd("ACT", 10), _cmd("RD", 12)],
        "same-cycle ties across kinds": [
            _cmd("ACT", 0),
            _cmd("RD", 0),
            _cmd("PRE", 0),
            _cmd("WR", 0, bank=1),
            _cmd("REF", 0),
            _cmd("ACT", 0, bank=1),
            _cmd("RD", 0, rank=1),
        ],
        "six ACTs in one rank": [
            _cmd("ACT", 3 * i, bank=i % 3, rank=i // 6) for i in range(7)
        ],
        "cross-rank bursts": [
            _cmd("RD", 0),
            _cmd("RD", 4, rank=1),
            _cmd("WR", 8),
            _cmd("RD", 9, rank=1, bank=2),
            _cmd("RD", 9, channel=1),
        ],
        "WR then RD": [_cmd("WR", 0), _cmd("RD", 10, bank=1), _cmd("RD", 40)],
        "WR then PRE": [_cmd("ACT", 0), _cmd("WR", 22), _cmd("PRE", 50)],
        "REF at 9 tREFI": [_cmd("REF", 0), _cmd("REF", refi[1]), _cmd("REF", refi[3])],
        "REF past 9 tREFI": [_cmd("REF", 0, rank=1), _cmd("REF", refi[2], rank=1)],
    }


EDGE_CASES = [
    (name, case) for name, timing in TIMINGS.items() for case in _edge_streams(timing)
]


@pytest.mark.parametrize("name,case", EDGE_CASES, ids=[f"{n}-{c}" for n, c in EDGE_CASES])
def test_edge_case_matches_the_loop_oracle(name, case):
    timing = TIMINGS[name]
    stream = _edge_streams(timing)[case]
    _assert_same(timing, stream)
    _assert_same_strict(timing, stream)


def test_edge_cases_exercise_every_constraint():
    """The named cases are not vacuous: together they trip every
    constraint the oracle knows."""
    seen = set()
    for name, case in EDGE_CASES:
        timing = TIMINGS[name]
        stream = _edge_streams(timing)[case]
        seen |= {v.constraint for v in LoopTimingChecker(timing).check(stream)}
    assert seen == {
        "tRP",
        "tRC",
        "tRRD",
        "tFAW",
        "tRAS",
        "tRTP",
        "tWR",
        "tRCD",
        "tCCD",
        "tWTR",
        "bus",
        "tRTRS",
        "tREFI",
    }


def test_timing_object_without_parameters_checks_nothing():
    stream = _edge_streams(BUS_ONLY)["same-cycle ties across kinds"]
    _assert_same(SimpleNamespace(), stream)
    assert TimingChecker(SimpleNamespace()).check(stream) == []


# ----------------------------------------------------------------------
# Real memsys streams
# ----------------------------------------------------------------------
def _memsys_run(enforce: bool, seed: int, length: int = 600):
    traces = [
        WorkloadTrace(
            name=f"parity-{seed}-{i}",
            mpki=30.0 + 10.0 * i,
            locality=0.2 + 0.2 * i,
            length=length,
        )
        for i in range(3)
    ]
    simulation = MemsysSimulation(
        traces,
        NoRefresh(),
        topology=MemsysTopology(channels=2, ranks=2),
        timing=MEMSYS_DDR4_3200,
        check_timing=True,
        enforce_timing=enforce,
    )
    return simulation, simulation.run()


@pytest.mark.parametrize("seed", [0, 1])
def test_enforced_memsys_stream_checks_clean_in_both(seed):
    simulation, result = _memsys_run(enforce=True, seed=seed)
    commands = simulation.system.commands
    assert result.violations == []
    assert len(commands) > 1000
    assert TimingChecker(MEMSYS_DDR4_3200).check(commands) == []
    assert LoopTimingChecker(MEMSYS_DDR4_3200).check(commands) == []


@pytest.mark.parametrize("seed", [0, 1])
def test_unenforced_memsys_stream_matches_the_loop_oracle(seed):
    simulation, result = _memsys_run(enforce=False, seed=seed)
    commands = simulation.system.commands
    expected = LoopTimingChecker(MEMSYS_DDR4_3200).check(commands)
    assert len(expected) > 1000
    assert TimingChecker(MEMSYS_DDR4_3200).check(commands) == expected
    assert result.violations == [v.to_json() for v in expected]
