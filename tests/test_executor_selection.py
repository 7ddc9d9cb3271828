"""Executor backend selection precedence.

The engine's pool backend is selectable at three levels — explicit
argument (``Campaign(executor=...)`` / ``--executor``), the
``REPRO_EXECUTOR`` environment variable, and the built-in default
(``threads``) — with exactly that precedence, mirroring the kernel
selection contract (`repro.chip.kernels` / ``--kernel``).
"""

import pytest

from repro.cli import main
from repro.core import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV,
    EXECUTORS,
    Campaign,
    CharacterizationEngine,
    QUICK_SCALE,
    resolve_executor,
)


# ---------------------------------------------------------------------------
# Function level: resolve_executor and engine/campaign construction
# ---------------------------------------------------------------------------

def test_argument_beats_environment(monkeypatch):
    monkeypatch.setenv(EXECUTOR_ENV, "threads")
    assert resolve_executor("serial") == "serial"


def test_environment_beats_default(monkeypatch):
    monkeypatch.setenv(EXECUTOR_ENV, "serial")
    assert resolve_executor(None) == "serial"


def test_default_executor_is_threads(monkeypatch):
    monkeypatch.delenv(EXECUTOR_ENV, raising=False)
    assert resolve_executor(None) == DEFAULT_EXECUTOR == "threads"


def test_unknown_executor_rejected(monkeypatch):
    monkeypatch.delenv(EXECUTOR_ENV, raising=False)
    with pytest.raises(ValueError, match="unknown executor"):
        resolve_executor("fibers")
    monkeypatch.setenv(EXECUTOR_ENV, "fibers")
    with pytest.raises(ValueError, match="unknown executor"):
        resolve_executor(None)


def test_only_threads_and_serial_remain():
    assert EXECUTORS == ("threads", "serial")


def test_processes_executor_rejected_with_valid_choices(monkeypatch):
    """The removed process-pool backend is an unknown name everywhere."""
    monkeypatch.delenv(EXECUTOR_ENV, raising=False)
    expected = r"unknown executor 'processes'; expected one of \['serial', 'threads'\]"
    with pytest.raises(ValueError, match=expected):
        CharacterizationEngine(scale=QUICK_SCALE, executor="processes")
    monkeypatch.setenv(EXECUTOR_ENV, "processes")
    with pytest.raises(ValueError, match=expected):
        resolve_executor(None)
    with pytest.raises(ValueError, match=expected):
        CharacterizationEngine(scale=QUICK_SCALE)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_engine_resolves_explicit_executor(monkeypatch, executor):
    monkeypatch.setenv(EXECUTOR_ENV, "serial" if executor != "serial" else "threads")
    engine = CharacterizationEngine(scale=QUICK_SCALE, executor=executor)
    assert engine.executor == executor


def test_engine_resolves_environment(monkeypatch):
    monkeypatch.setenv(EXECUTOR_ENV, "serial")
    assert CharacterizationEngine(scale=QUICK_SCALE).executor == "serial"


def test_campaign_passes_executor_to_engine(monkeypatch):
    monkeypatch.setenv(EXECUTOR_ENV, "threads")
    campaign = Campaign(scale=QUICK_SCALE, executor="serial")
    assert campaign._delegate_to_engine()
    assert campaign.engine().executor == "serial"


def test_campaign_without_executor_keeps_serial_path(monkeypatch):
    """An unset executor must not push a plain campaign onto the engine."""
    monkeypatch.setenv(EXECUTOR_ENV, "threads")
    assert not Campaign(scale=QUICK_SCALE)._delegate_to_engine()


# ---------------------------------------------------------------------------
# CLI level: --executor > $REPRO_EXECUTOR > default
# ---------------------------------------------------------------------------

@pytest.fixture
def recorded_engines(monkeypatch):
    """Record every CharacterizationEngine the CLI constructs."""
    import repro.core.engine as engine_module

    created = []

    class Recorder(engine_module.CharacterizationEngine):
        def __post_init__(self):
            super().__post_init__()
            created.append(self)

    monkeypatch.setattr(engine_module, "CharacterizationEngine", Recorder)
    return created


def cli_executor(capsys, recorded, *argv) -> str:
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert len(recorded) == 1
    return recorded[0].executor


CHARACTERIZE = ("characterize", "S0", "--subarrays", "2", "--rows", "64",
                "--columns", "128")


def test_cli_executor_flag_beats_environment(capsys, monkeypatch,
                                             recorded_engines):
    monkeypatch.setenv(EXECUTOR_ENV, "threads")
    executor = cli_executor(capsys, recorded_engines, *CHARACTERIZE,
                            "--executor", "serial")
    assert executor == "serial"


def test_cli_environment_beats_default(capsys, monkeypatch,
                                       recorded_engines):
    # --workers 2 routes the campaign onto the engine without pinning a
    # backend, so the environment decides.
    monkeypatch.setenv(EXECUTOR_ENV, "serial")
    executor = cli_executor(capsys, recorded_engines, *CHARACTERIZE, "--workers", "2")
    assert executor == "serial"


def test_cli_default_executor_is_threads(capsys, monkeypatch,
                                         recorded_engines):
    monkeypatch.delenv(EXECUTOR_ENV, raising=False)
    executor = cli_executor(capsys, recorded_engines, *CHARACTERIZE, "--workers", "2")
    assert executor == DEFAULT_EXECUTOR == "threads"


def test_cli_rejects_processes_executor(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*CHARACTERIZE, "--executor", "processes"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'processes'" in err
    assert "'threads'" in err and "'serial'" in err
