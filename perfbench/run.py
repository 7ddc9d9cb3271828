"""The repository benchmark: served characterize, fleet-risk and memsys.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload characterize-cold --seed 1 \\
        --seconds 16 --trace 0

``--workload`` is one of ``characterize-cold``, ``characterize-cached``,
``fleet-risk``, ``memsys`` or ``all``.  ``BENCHMARK.json`` lists all but
``characterize-cached``, which is report-only (`REPORT_ONLY`).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs the traced replay
and reports the per-layer ledger.  Every run checks the program's outputs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric by name with its unit.  The full record of a run, stamped with the
host, versions, commit, seed and sample statistics, is written to
``.perfbench_out/`` in the checkout.  The exit code is 0 when every op
succeeded with a correct output, 1 when one failed (a wrong output, a
refused request or no answer) and 2 when the run could not complete.
End-to-end times are reported at a reference host speed; see
`perfbench/hostspeed.py`.

See ``perfbench/README.md`` for the workloads and the metric catalogue.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import hostspeed, ledger  # noqa: E402

WORKLOADS = ("characterize-cold", "characterize-cached", "fleet-risk", "memsys")
#: Runnable, but not in BENCHMARK.json: its figures follow how fast the
#: shared host wakes an idle vCPU more than the program (see the README's
#: "Report-only: characterize-cached"), so no bound of 0.25 holds on them.
REPORT_ONLY = ("characterize-cached",)
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Set-up-only workers spawned before and after the measuring worker;
#: ``setup_s`` is the median of all their set-ups and its own.  Set-ups on
#: both sides of the timed phase span the same stretch of host time as the
#: probes that scale them (see perfbench/hostspeed.py).
SETUPS_BEFORE = 2
SETUPS_AFTER = 2
#: Wall-clock budget of one workload run, set-ups and checks included:
#: an allowance for the set-ups and checks plus a multiple of ``--seconds``
#: that covers the longest measured window (memsys measures twice
#: ``--seconds``; see ``worker.OPS_PER_S``).
BUDGET_SETUP_S = 60.0
BUDGET_PER_SECOND = 6.0


def run_budget_s(seconds: float) -> float:
    return BUDGET_SETUP_S + BUDGET_PER_SECOND * seconds


class BenchError(RuntimeError):
    """The run could not complete (the program or the host failed)."""


def _kill_group(process: subprocess.Popen) -> None:
    if process.poll() is None:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    process.wait()


def _spawn(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process
    and the seconds from spawn to ready (one set-up sample)."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, WORKER, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        timeout = max(0.0, deadline - time.monotonic())
        ready, _, _ = select.select([process.stdout], [], [], timeout)
        line = process.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line.strip() != b"ready":
            raise BenchError("worker did not finish set-up")
    except BaseException:
        _kill_group(process)
        raise
    return process, setup_s


def _finish(process: subprocess.Popen, deadline: float) -> None:
    try:
        process.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the run budget") from None
    finally:
        _kill_group(process)
        process.stdout.close()
    if process.returncode != 0:
        raise BenchError(f"worker exited with code {process.returncode}")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up `SETUPS_BEFORE` times, run, set up `SETUPS_AFTER` times
    (traced: run only); return the raw result with the set-up samples."""
    deadline = time.monotonic() + run_budget_s(seconds)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    out = os.path.join(workdir, "result.json")
    spans = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.jsonl")
    before, after = (0, 0) if trace else (SETUPS_BEFORE, SETUPS_AFTER)
    roles = [True] * before + [False] + [True] * after
    setups = []
    try:
        for repeat, setup_only in enumerate(roles):
            repeat_dir = os.path.join(workdir, f"setup-{repeat}")
            os.mkdir(repeat_dir)
            args = [
                "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--workdir", repeat_dir, "--out", out,
                "--spans", spans,
            ]
            if setup_only:
                args.append("--setup-only")
            process, setup_s = _spawn(args, deadline)
            setups.append(setup_s)
            _finish(process, deadline)
        with open(out, encoding="utf-8") as handle:
            raw = json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw["setup_samples_s"] = setups
    return raw


def _commit() -> str | None:
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def _src_digest() -> str:
    """Digest of the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(folder, filename)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def host_stamp() -> dict:
    cpus = os.cpu_count()
    return {
        "cpu_count": cpus,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus,
        "label": f"shared {cpus}-vCPU host",
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run: metrics, counts and the stamped record."""
    raw = run_workload(name, seed, seconds, trace)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        values = raw["values"]
        catalogue = ledger.PER_LAYER
        record["traced_ops"] = raw["attempted"]
    else:
        if not raw["latencies_s"]:
            raise BenchError("no call succeeded")
        # Times at the reference host speed (see perfbench/hostspeed.py):
        # each call as its workload's call_speed says, set-up by the run's.
        kind, probes = raw["probe_kind"], raw["probe_samples_s"]
        scales = hostspeed.call_scales(
            kind, probes[kind], raw["call_probes"], raw["call_speed"]
        )
        run_scale = hostspeed.speed_scale(
            hostspeed.SETUP_PROBE, probes[hostspeed.SETUP_PROBE]
        )
        calls = ledger.summarize_calls(
            [host_s * scale for host_s, scale in zip(raw["latencies_s"], scales)],
            raw["units"],
        )
        setups = raw["setup_samples_s"]
        values = {
            "setup_s": statistics.median(setups) * run_scale,
            "work_per_s": calls["work_per_s"],
            "call_p50_ms": calls["call_p50_ms"],
            "call_tail_ms": calls["call_tail_ms"],
            "peak_rss_mb": raw["peak_rss_bytes"] / 2**20,
        }
        host_calls = ledger.summarize_calls(raw["latencies_s"], raw["units"])
        host_values = {
            "setup_s": statistics.median(setups),
            "work_per_s": host_calls["work_per_s"],
            "call_p50_ms": host_calls["call_p50_ms"],
            "call_tail_ms": host_calls["call_tail_ms"],
        }
        catalogue = ledger.END_TO_END
        q1, median, q3 = ledger.quartiles(setups)
        record.update(
            {
                "host_values": host_values,
                "probe_kind": raw["probe_kind"],
                "call_speed": raw["call_speed"],
                "run_scale": run_scale,
                "speed_scale": statistics.median(scales),
                "probe_samples_s": raw["probe_samples_s"],
                "call_probes": raw["call_probes"],
                "latencies_s": raw["latencies_s"],
                "calls": calls["calls"],
                "call_quartiles_ms": calls["call_quartiles_ms"],
                "call_tail_percentile": calls["call_tail_percentile"],
                "call_tail_window": calls["call_tail_window"],
                "call_tail_beyond": ledger.TAIL_BEYOND,
                "setup_samples_s": setups,
                "setup_quartiles_s": [q1, median, q3],
                "failed_ratio": raw["failed"] / raw["attempted"],
            }
        )
    record["host"] = dict(host_stamp(), numpy=raw["numpy"])
    record["attempted"] = raw["attempted"]
    record["failed"] = raw["failed"]
    record["wrong"] = raw["wrong"]
    record["metrics"] = ledger.metric_block(values, catalogue)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    return record


def describe(record: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    host = record["host"]
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} "
        f"trace={record['trace']} on a {host['label']} (nproc {host['nproc']}, "
        f"python {host['python']}, numpy {host['numpy']}, "
        f"commit {host['commit'] or 'n/a'}, src {host['src_sha256'][:12]})"
    ]
    notes = {}
    if not record["trace"]:
        q1, q2, q3 = record["call_quartiles_ms"]
        notes = {
            "setup_s": f"median of {len(record['setup_samples_s'])} set-ups",
            "call_p50_ms": f"quartiles {q1:.3f} / {q2:.3f} / {q3:.3f} ms, "
                           f"{record['calls']} calls",
            "call_tail_ms": f"p{record['call_tail_percentile']:.1f}, "
                            f"{record['call_tail_beyond']} beyond, median over windows "
                            f"of {record['call_tail_window']}+ of {record['calls']} calls",
        }
        for name, value in record["host_values"].items():
            notes[name] = f"{notes[name]}; " if name in notes else ""
            notes[name] += f"{value:.6g} at host speed"
        lines.append(
            f"  times at the reference host speed: run scale {record['run_scale']:.4f}, "
            f"median call scale {record['speed_scale']:.4f} ({record['call_speed']}), "
            f"from {len(record['probe_samples_s'][record['probe_kind']])} rounds of "
            f"{' and '.join(record['probe_samples_s'])} probes"
        )
    for name, metric in record["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}{note}")
    lines.append(
        f"  {'failed_ratio':34s} {record['failed'] / record['attempted']:14.6g} ratio"
        f"  ({record['failed']} of {record['attempted']} ops; {record['wrong']} wrong)"
    )
    return lines


def result_line(records: list[dict]) -> dict:
    """The last line of stdout.  A run is correct only when no op failed:
    a wrong output, a refused request and a request that got no answer
    all count in ``failed``."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{record['workload']}.{name}": metric
            for record in records
            for name, metric in record["metrics"].items()
        }
    return {
        "correct": all(record["failed"] == 0 for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through `finally`, so started workers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [measure(name, args.seed, args.seconds, args.trace) for name in names]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print("\n".join(describe(record)))
    result = result_line(records)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
