"""``characterize-cold`` and ``characterize-cached``: ``POST /v1/characterize``.

The program runs as its own process (``python -m repro serve``), so its
interpreter lock is not shared with the load generator.  One client sends
one request at a time over one keep-alive connection (a closed loop, as
the CLI and the fleet front door do): the next request goes out as soon
as the reply to the previous one is read.

Checks: every served payload must equal the payload built from a direct
`CharacterizationEngine.characterize_module` call for the same inputs, and
that engine must reproduce the anchor payloads pinned in ``reference.json``,
so the analytic model cannot drift unnoticed.

Traced runs replay each request in-process as the chain of public calls
the served path makes, one span per layer; the HTTP latency the replay
does not account for is ``serve.overhead_ms``.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

from perfbench import inputs
from perfbench.chain import summarize_subarray
from perfbench.ledger import (
    NullRecorder,
    alternating,
    check_in_parallel,
    close_match,
    layer_ledger,
    load_reference,
    read_peak_rss_bytes,
)
from repro.chip.catalog import get_module
from repro.chip.timing import DDR4, HBM2
from repro.core.cache import OutcomeCache
from repro.core.config import SEARCH_INTERVAL
from repro.core.engine import CharacterizationEngine, plan_units, record_from_summary
from repro.serve import ServeClient
from repro.serve.client import ServeError
from repro.serve.protocol import CharacterizeRequest, record_to_json
from repro.serve.transport import json_response

_BANNER = re.compile(r"listening on http://[^:\s]+:(\d+)")
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0


def cpu_split() -> tuple[set[int], set[int]] | None:
    """(client CPUs, server CPUs): the first CPU this process may run on
    for the load generator, the rest for the server; None on one CPU.

    Kept apart, the load generator's own work (probes, JSON decoding)
    never shares a vCPU with the server; in four paired cached runs the
    pinned ``call_tail_ms`` was lower in three (see the README).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


@contextlib.contextmanager
def client_cpus(split):
    """Run the block on the client's CPUs, then restore the affinity (the
    reference checks after the timed phase use every CPU)."""
    if split is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, split[0])
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, logging to a file,
    on the server's CPUs of `cpu_split` (its threads and children too)."""

    def __init__(self, src_dir: str, workdir: str, cpus: set[int] | None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        self.log_path = os.path.join(workdir, "serve.log")
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0"],
            cwd=workdir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8", errors="replace") as handle:
                match = _BANNER.search(handle.read())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def peak_rss_bytes(self) -> int:
        return read_peak_rss_bytes(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _key(body: dict) -> tuple:
    return body["serial"], body["temperature_c"]


def _normalized(payload: dict) -> dict:
    """A payload as it reads after a JSON round trip."""
    return json.loads(json.dumps(payload))


def reference_payload(body: dict) -> dict:
    """The expected response, from a direct engine call on the same inputs."""
    request = CharacterizeRequest.from_json(body)
    with CharacterizationEngine(scale=request.scale) as engine:
        records = engine.characterize_module(
            request.serial, request.config, request.intervals
        )
    return _normalized(
        {
            "serial": request.serial,
            "intervals": list(request.intervals),
            "temperature_c": request.temperature_c,
            "records": [record_to_json(record) for record in records],
        }
    )


def replay(raw: bytes, cache: OutcomeCache, recorder) -> tuple[bytes, int]:
    """One request through the served path's public calls, in-process.

    Returns the response body and the number of cells evaluated.
    """
    span = recorder.span
    with span("serve.protocol.parse"):
        request = CharacterizeRequest.from_json(json.loads(raw))
    scale, config, intervals = request.scale, request.config, request.intervals
    with span("core.engine.plan"):
        engine = CharacterizationEngine(scale=scale, cache=cache)
        units = plan_units((request.serial,), config, scale)
        keys = [engine.unit_key(unit) for unit in units]
    horizon = max((engine.horizon, SEARCH_INTERVAL, *intervals))
    cells = 0
    summaries = []
    for unit, key in zip(units, keys):
        with span("core.cache.lookup"):
            summary, _tier = cache.lookup(key, min_horizon=horizon)
        if summary is None:
            spec = get_module(unit.serial)
            rows = unit.geometry.subarray_rows(unit.subarray)
            summary = summarize_subarray(
                recorder,
                unit.population_key,
                spec.profile,
                rows,
                unit.geometry.columns,
                unit.config,
                HBM2 if spec.interface == "HBM2" else DDR4,
                unit.aggressor_local_row(),
                horizon,
            )
            with span("core.cache.put"):
                cache.put(key, summary)
            cells += rows * unit.geometry.columns
        summaries.append(summary)
    with span("core.engine.record"):
        records = [
            record_from_summary(unit, summary, intervals)
            for unit, summary in zip(units, summaries)
        ]
    with span("serve.protocol.encode"):
        body = json_response(
            200,
            {
                "serial": request.serial,
                "intervals": list(intervals),
                "temperature_c": request.temperature_c,
                "records": [record_to_json(record) for record in records],
            },
        ).body
    return body, cells


class CharacterizeWorkload:
    """Shared driver of the cold and the cached characterize workloads."""

    def __init__(self, name: str, seed: int, workdir: str, src_dir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.src_dir = src_dir
        self.cached = name == "characterize-cached"
        # Set-up (server start, the cached warm-up) and cold requests
        # spend their time in numpy physics.  The probe runs in the client
        # and the work in the server, each on its own vCPU (`cpu_split`),
        # so the probes track the host's speed over the run, not at each
        # call.  Cached requests spend theirs in the scheduler's 5 ms batch
        # window and in transport, which do not follow CPU speed: they stay
        # in host seconds.
        self.probe = "numpy"
        self.call_speed = "host" if self.cached else "run"
        self.cpus = None
        self.server: ServerProcess | None = None
        self.client: ServeClient | None = None

    # -- inputs --------------------------------------------------------
    def _bodies(self, count: int) -> list[dict]:
        if not self.cached:
            return inputs.characterize_cold(self.seed, count)
        hot = inputs.characterize_hot_set(self.seed)
        return [hot[i] for i in inputs.characterize_hot_order(self.seed, count)]

    # -- lifecycle -----------------------------------------------------
    def setup(self, ops: int) -> None:
        self.bodies = self._bodies(ops)
        self.hot = inputs.characterize_hot_set(self.seed) if self.cached else []
        self.anchors = load_reference("characterize_anchors")
        self.cpus = cpu_split()
        self.server = ServerProcess(
            self.src_dir, self.workdir, None if self.cpus is None else self.cpus[1]
        )
        self.client = ServeClient(port=self.server.port, timeout=60.0)
        for body in self.hot:
            self.client.characterize(body)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()

    def _call(self, body: dict) -> tuple[dict | None, float, bool]:
        """One timed request: (payload or None, seconds, refused)."""
        start = time.perf_counter()
        try:
            payload = self.client.characterize(body)
        except ServeError as exc:
            return None, time.perf_counter() - start, exc.status == 429 or exc.status >= 500
        except (OSError, http.client.HTTPException):
            return None, time.perf_counter() - start, False
        return payload, time.perf_counter() - start, False

    # -- untraced run --------------------------------------------------
    def timed(self, speed) -> dict:
        bodies = self.bodies
        latencies, probes, payloads = [], [], []
        with client_cpus(self.cpus):
            for body in bodies:
                probe = speed.between_calls()
                payload, elapsed, _refused = self._call(body)
                # A failed call has no output: it counts in `failed` (which
                # fails the run), never in the latency figures.
                if payload is not None:
                    latencies.append(elapsed)
                    probes.append(probe)
                payloads.append(payload)
        peak_rss = self.server.peak_rss_bytes()
        self.close()
        # Check every response against a direct engine computation, and
        # the engine itself against the pinned anchor payloads.
        unique = {_key(body): body for body in bodies}
        anchors = [anchor["request"] for anchor in self.anchors]
        computed = check_in_parallel(
            reference_payload, [(body,) for body in [*unique.values(), *anchors]]
        )
        references = dict(zip(unique, computed))
        failed = sum(payload is None for payload in payloads)
        wrong = sum(
            payload is not None and payload != references[_key(body)]
            for body, payload in zip(bodies, payloads)
        )
        wrong += sum(
            not close_match(payload, anchor["payload"])
            for payload, anchor in zip(computed[len(unique):], self.anchors)
        )
        failed += wrong
        return {
            "latencies_s": latencies,
            "call_probes": probes,
            "units": len(latencies),
            "attempted": len(payloads) + len(self.anchors),
            "failed": failed,
            "wrong": wrong,
            "peak_rss_bytes": peak_rss,
        }

    # -- traced run ----------------------------------------------------
    def _healthz_stats(self) -> dict:
        return self.client.healthz()["stats"]

    def traced(self, recorder) -> dict:
        bodies = self.bodies
        ops = len(bodies)
        untraced_cache, traced_cache = OutcomeCache(), OutcomeCache()
        for body in self.hot:
            raw = json.dumps(body).encode()
            replay(raw, untraced_cache, NullRecorder())
            replay(raw, traced_cache, NullRecorder())
        before = self._healthz_stats()
        lookups0, hits0 = traced_cache.lookups, traced_cache.hits
        served, untraced, traced = [], [], []
        cells = refused = failed = wrong = 0
        with client_cpus(self.cpus):
            for op, body in enumerate(bodies):
                raw = json.dumps(body).encode()
                payload, elapsed, was_refused = self._call(body)
                served.append(elapsed)

                def plain():
                    start = time.perf_counter()
                    out, _ = replay(raw, untraced_cache, NullRecorder())
                    untraced.append(time.perf_counter() - start)
                    return out

                def spanned():
                    with recorder.operation(op) as root:
                        out = replay(raw, traced_cache, recorder)
                    traced.append(root.end - root.start)
                    return out

                plain_out, (traced_out, op_cells) = alternating(op, plain, spanned)
                cells += op_cells
                refused += was_refused
                if payload is None:
                    failed += 1
                elif not payload == json.loads(plain_out) == json.loads(traced_out):
                    failed += 1
                    wrong += 1
        after = self._healthz_stats()
        lookups = traced_cache.lookups - lookups0
        requests = after["requests"] - before["requests"]
        jobs = after["jobs"] - before["jobs"]
        values = layer_ledger(recorder.spans, served_s=served)
        values.update(
            {
                "serve.scheduler.coalesce_ratio": (
                    (after["coalesced"] - before["coalesced"]) / requests
                ),
                "serve.scheduler.batch_size": (
                    (after["batched_requests"] - before["batched_requests"]) / jobs
                ),
                "serve.refused": refused,
                "core.cache.hit_ratio": (traced_cache.hits - hits0) / lookups,
                "chip.cells.cells": cells / ops,
            }
        )
        return {
            "values": values,
            "traced_s": traced,
            "untraced_s": untraced,
            "attempted": ops,
            "failed": failed,
            "wrong": wrong,
        }
