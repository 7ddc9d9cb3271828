"""Failed calls fail the run; host-speed scaling, the run budget and the
characterize CPU split."""

import statistics

import pytest

from perfbench import characterize, hostspeed, run
from repro.serve.client import ServeError


def record(attempted, failed, wrong=0):
    return {
        "workload": "characterize-cold",
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "metrics": {"setup_s": {"value": 1.0, "unit": "s"}},
    }


def test_a_run_is_correct_only_when_no_op_failed():
    assert run.result_line([record(10, 0)])["correct"] is True
    refused = run.result_line([record(10, 1)])
    assert refused["correct"] is False
    assert (refused["attempted"], refused["failed"]) == (10, 1)
    assert run.result_line([record(10, 1, wrong=1)])["correct"] is False


class FailingClient:
    def __init__(self, status):
        self.status = status
        self.calls = 0

    def characterize(self, body):
        self.calls += 1
        if self.status is None:
            raise ConnectionResetError("server went away")
        raise ServeError(self.status, "refused")

    def close(self):
        pass


class StoppedServer:
    def peak_rss_bytes(self):
        return 1 << 20

    def stop(self):
        pass


@pytest.mark.parametrize("status", [429, 503, None])
def test_failed_requests_count_as_failed_and_not_as_latencies(monkeypatch, status):
    monkeypatch.setattr(
        characterize,
        "check_in_parallel",
        lambda function, arguments: [{} for _ in arguments],
    )
    workload = characterize.CharacterizeWorkload("characterize-cold", 1, "", "")
    workload.bodies = [{"serial": "S0", "temperature_c": 50.0 + i} for i in range(12)]
    workload.anchors = []
    workload.server = StoppedServer()
    workload.client = FailingClient(status)
    raw = workload.timed(hostspeed.HostSpeed("python"))
    assert workload.client.calls == 12
    assert raw["latencies_s"] == [] and raw["units"] == 0
    assert raw["failed"] == raw["attempted"] == 12
    assert run.result_line([record(raw["attempted"], raw["failed"])])["correct"] is False


def test_host_speed_probes_between_calls_at_most_every_interval(monkeypatch):
    monkeypatch.setattr(hostspeed, "probe_s", lambda kind: 0.002)
    speed = hostspeed.HostSpeed("python")
    assert [speed.between_calls() for _ in range(50)] == [0] * 50
    assert speed.samples_s == {"numpy": [0.002], "python": [0.002]}
    assert list(speed.samples_s)[-1] == "python"
    assert hostspeed.HostSpeed("numpy").samples_s == {"numpy": []}


@pytest.mark.parametrize("kind", sorted(hostspeed.KERNELS))
def test_speed_scale_is_one_at_the_reference_speed(kind):
    reference = hostspeed.PROBE_REFERENCE_S[kind]
    assert hostspeed.speed_scale(kind, [reference] * 3) == pytest.approx(1.0)
    # A host twice as slow as the reference halves its times.
    slow = [2 * reference, 2 * reference, 9 * reference]
    assert hostspeed.speed_scale(kind, slow) == pytest.approx(0.5)
    assert statistics.median(slow) == 2 * reference


def test_local_scales_follow_the_probes_around_each_call():
    fast = hostspeed.PROBE_REFERENCE_S["python"]
    slow = 2 * fast
    samples = [fast, slow, fast, fast, slow, slow, slow]
    scales = hostspeed.local_scales("python", samples, [0, 0, 3, 6])
    assert scales == pytest.approx([1, 1, 0.5, 0.5])


def test_call_scales_per_call_per_run_or_none():
    fast = hostspeed.PROBE_REFERENCE_S["numpy"]
    samples = [fast, fast, fast, 2 * fast, 2 * fast, 2 * fast, 2 * fast]
    probes = [0, 6]
    scales = hostspeed.call_scales
    assert scales("numpy", samples, probes, "local") == pytest.approx([1, 0.5])
    assert scales("numpy", samples, probes, "run") == pytest.approx([0.5, 0.5])
    assert scales("numpy", samples, probes, "host") == [1.0, 1.0]
    with pytest.raises(ValueError):
        scales("numpy", samples, probes, "each")


@pytest.mark.parametrize("kind", sorted(hostspeed.KERNELS))
def test_probe_takes_a_few_milliseconds(kind):
    assert 0.0 < hostspeed.probe_s(kind) < 0.2


def test_run_budget_grows_with_seconds():
    assert run.run_budget_s(16) < 180
    assert run.run_budget_s(60) > 2 * 60 * 2


def test_cpu_split_gives_the_client_one_cpu_and_the_server_the_rest(monkeypatch):
    monkeypatch.setattr(characterize.os, "sched_getaffinity", lambda pid: {5, 2, 7})
    assert characterize.cpu_split() == ({2}, {5, 7})
    monkeypatch.setattr(characterize.os, "sched_getaffinity", lambda pid: {3})
    assert characterize.cpu_split() is None


def test_client_cpus_restores_the_affinity(monkeypatch):
    affinity = {0, 1}
    monkeypatch.setattr(characterize.os, "sched_getaffinity", lambda pid: set(affinity))
    monkeypatch.setattr(
        characterize.os, "sched_setaffinity", lambda pid, cpus: affinity.__init__(cpus)
    )
    with characterize.client_cpus(({0}, {1})):
        assert affinity == {0}
    assert affinity == {0, 1}
    with characterize.client_cpus(None):
        assert affinity == {0, 1}
