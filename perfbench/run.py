"""The repository's benchmark: two workloads over the spec → engine → cache → service stack.

Run from the repository root::

    python3 perfbench/run.py --workload cold-graph --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``cold-graph``, ``large-k`` (or ``all``).  Each
run launches the program fresh from ``src/`` (``python -m repro.service``
for cold-graph, a plain interpreter calling ``simulate_ensemble`` for
large-k), drives it from
this one process over one keep-alive connection (a second one only for
the concurrent duplicate pairs of cold-graph), checks every
output, and prints a human-readable report, one ``record`` JSON line
(host stamp, sample counts, results digest) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds a second, traced launch and
reports the per-layer metrics (see ``layers.py``).  Work files go to
``.bench_build/perfbench/``; the ledger of results digests and records
there persists across runs.  See ``README.md`` for the metric
definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import itertools
import json
import os
import platform
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import layers
import loadgen
import workloads
from largek import fingerprint
from tracer import SPANS_ENV

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
LEDGER = os.path.join(WORK, "ledger.jsonl")
#: Names and units of the reported metrics come from here.
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: The replies of a service workload's measured phase are cut into this
#: many blocks of consecutive replies; rate and latency metrics are medians
#: over the blocks.  (large-k: one block per cycle.)
BLOCKS = 12
LAUNCH_TIMEOUT = 120.0
#: The benchmark and every process it starts run on this one CPU.  A
#: closed loop over one connection keeps one process busy at a time, so
#: nothing waits for a core; on one CPU a reply wakes its reader with a
#: plain context switch instead of waking an idle vCPU, which on a shared
#: VM stalled some runs' requests for milliseconds.
CPUS = os.sched_getaffinity(0)
PINNED_CPU = max(CPUS)

#: Service workloads: worker-pool width, spec generator, sources a reply
#: may carry in the measured phases, the warm-up stream, the measured
#: stream, traced requests per ``--seconds``, the timed indices that join
#: the results digest, and how many digest specs are re-run in-process.
COLD_SOURCES = {"run", "coalesced", "cache"}
SERVICE = {
    "cold-graph": dict(
        workers=1,
        spec=workloads.graph_spec,
        sources=COLD_SOURCES,
        warmup=lambda seed: itertools.islice(workloads.cold_stream(workloads.WARMUP_BASE), 6),
        stream=lambda seed, base: workloads.cold_stream(base),
        traced_per_second=4,
        digest_timed=16,
        reference=3,
    ),
}
WORKLOAD_NAMES = [*SERVICE, "large-k"]


def child_env(spans: str | None = None) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_FAULT_PLAN", None)
    env.pop(SPANS_ENV, None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if spans is not None:
        env[SPANS_ENV] = spans
    return env


def _parent_map() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def descendants(pid: int) -> list[int]:
    children, out, stack = _parent_map(), [], [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            out.append(child)
            stack.append(child)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def peak_rss_mb(pids) -> float:
    """Summed ``VmHWM`` of ``pids`` in MiB."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total / 1024.0


def stop_process(proc: subprocess.Popen, sig=signal.SIGINT) -> None:
    """Signal ``proc``, wait for it and every process it started to end."""
    family = descendants(proc.pid)
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    deadline = time.monotonic() + 10
    while any(_alive(pid) for pid in family) and time.monotonic() < deadline:
        time.sleep(0.02)
    for pid in family:
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    while any(_alive(pid) for pid in family) and time.monotonic() < deadline + 10:
        time.sleep(0.02)


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line of ``proc``'s stdout, without Python-side read-ahead."""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout
    data = b""
    while not data.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise TimeoutError(f"no output from {proc.args[1:3]} within {timeout:.0f} s")
        chunk = os.read(fd, 1)
        if not chunk:
            raise RuntimeError(f"{proc.args[1:3]} exited with code {proc.wait()}")
        data += chunk
    return data.decode()


class Service:
    """One fresh ``repro.service`` process on a free port with its own cache."""

    def __init__(self, run_dir: str, launch: str, workers: int, spans: str | None = None):
        self.cache_dir = os.path.join(run_dir, f"cache-{launch}")
        if spans is None:
            command = [sys.executable, "-m", "repro.service"]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_service.py")]
        command += ["--host", "127.0.0.1", "--port", "0", "--workers", str(workers)]
        command += ["--cache-dir", self.cache_dir]
        self.log = open(os.path.join(run_dir, f"service-{launch}.log"), "wb")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, env=child_env(spans), cwd=ROOT
        )
        match = re.search(r"http://([\d.]+):(\d+)", read_line(self.proc, LAUNCH_TIMEOUT))
        if match is None:
            raise RuntimeError("service did not report its address")
        self.host, self.port = match.group(1), int(match.group(2))

    def request(self, method: str, path: str, body: bytes = b"", tag: str = "") -> loadgen.Sample:
        return asyncio.run(loadgen.one_request(self.host, self.port, method, path, body, tag))

    def drive(self, items, seconds: float | None = None):
        """One closed-loop phase: ``(samples, start, wall)``."""
        return asyncio.run(
            loadgen.closed_loop(self.host, self.port, items, seconds=seconds)
        )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb([self.proc.pid, *descendants(self.proc.pid)])

    def stop(self) -> None:
        try:
            stop_process(self.proc)
        finally:
            self.proc.stdout.close()
            self.log.close()


class Checker:
    """Checks every reply and remembers each spec's key and result."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        self.key_of: dict[int, str] = {}
        self.result_of: dict[str, str] = {}
        self.failed = 0
        self.attempted = 0

    def observe(self, samples, sources, runs: Counter) -> list[dict]:
        """Check ``samples``; returns their decoded payloads (None if failed)."""
        payloads = []
        for sample in samples:
            self.attempted += 1
            payload = None
            if sample.status != 200:
                self.failed += 1
                self.problems.append(f"{sample.tag}: status {sample.status}")
            else:
                payload = json.loads(sample.body)
                self._check(sample.tag, payload, sources, runs)
            payloads.append(payload)
        return payloads

    def _check(self, tag, payload, sources, runs) -> None:
        index = int(tag.split("-", 1)[1].rstrip("+"))
        key, source = payload["key"], payload["source"]
        if source not in sources:
            self.problems.append(f"{tag}: source {source!r}, expected one of {sorted(sources)}")
        if self.key_of.setdefault(index, key) != key:
            self.problems.append(f"{tag}: spec {index} answered under two keys")
        result = json.dumps(
            [payload["winners"], payload["rounds"], payload["converged"],
             (payload["trace"] or {}).get("digest")]
        )
        if self.result_of.setdefault(key, result) != result:
            self.problems.append(f"{tag}: key {key[:12]} answered with two different results")
        if source == "run":
            runs[key] += 1


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def block_metrics(blocks: list[list[tuple[float, int]]], widths: list[float]) -> dict:
    """Rates and the median latency computed per block, then the median over blocks.

    ``blocks[i]`` holds ``(latency seconds, replica rounds)`` of each
    reply in block ``i``, which took ``widths[i]`` seconds of wall time.
    The median over blocks keeps a burst of host noise, or one unusually
    slow request, in one block from moving the run's figure.  ``p90_ms``
    and ``p99_ms`` are taken over all replies; they are reported but not
    bounded (see README.md).
    """
    per: dict[str, list[float]] = {"throughput_rps": [], "replica_rounds_per_s": [], "p50_ms": []}
    for group, width in zip(blocks, widths):
        per["throughput_rps"].append(len(group) / width)
        per["replica_rounds_per_s"].append(sum(rounds for _, rounds in group) / width)
        per["p50_ms"].append(statistics.median(seconds for seconds, _ in group) * 1e3)
    latencies = [seconds for group in blocks for seconds, _ in group]
    return {
        **{name: statistics.median(values) for name, values in per.items()},
        "p90_ms": quantile(latencies, 0.90) * 1e3,
        "p99_ms": quantile(latencies, 0.99) * 1e3,
    }


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and contents of the ``.py`` files under ``root``."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def calibration_ms() -> float:
    """Median of five runs of a fixed numpy kernel (sort + multinomial draws)."""
    import numpy as np

    data = np.random.default_rng(20140623).random(1 << 20)
    pvals = np.full(1024, 1.0 / 1024)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(data)
        np.random.default_rng(7).multinomial(10**6, pvals, size=16)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def host_stamp() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        git_sha = done.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": len(CPUS),
        "pinned_cpu": PINNED_CPU,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha,
        "src_sha256": tree_digest(SRC),
        "bench_sha256": tree_digest(HERE),
        "calibration_ms": calibration_ms(),
    }


def results_digest(fingerprints: dict[int, object]) -> str:
    lines = "\n".join(f"{index} {json.dumps(fingerprints[index])}" for index in sorted(fingerprints))
    return hashlib.sha256(lines.encode()).hexdigest()


def ledger_check(record: dict, problems: list[str]) -> None:
    """Same program, same benchmark code, workload, seed and digest set
    must give the same digest."""
    same = ("workload", "seed", "digest_items")
    if os.path.exists(LEDGER):
        with open(LEDGER, encoding="utf-8") as handle:
            for line in handle:
                old = json.loads(line)
                if (
                    old.get("correct")
                    and all(
                        old["host"].get(tree) == record["host"][tree]
                        for tree in ("src_sha256", "bench_sha256")
                    )
                    and all(old.get(field) == record[field] for field in same)
                    and old["results_digest"] != record["results_digest"]
                ):
                    problems.append(
                        "results digest differs from an earlier run of the same code and seed"
                    )
                    return


def reference_check(specs: dict[int, dict], fingerprints: dict[int, object], count, seed, problems):
    """Re-run a seeded sample of specs in-process; the wire must match."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.scenario import ScenarioSpec, simulate_ensemble

    chosen = random.Random(f"{seed}:reference").sample(sorted(fingerprints), min(count, len(fingerprints)))
    for index in chosen:
        local = fingerprint(simulate_ensemble(ScenarioSpec.from_dict(specs[index])))
        if local != fingerprints[index]:
            problems.append(f"spec {index}: wire result differs from in-process simulate_ensemble")


def probe_setup() -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe_setup.py")],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _cpu_share(work) -> tuple[object, float]:
    cpu, wall = time.process_time(), time.perf_counter()
    out = work()
    return out, (time.process_time() - cpu) / (time.perf_counter() - wall)


def complete_layers(per_layer: dict, *, cpu_share: float, untraced: float, traced: float) -> dict:
    """Add the per-layer values that do not come from spans."""
    probe = probe_setup()
    per_layer["setup.import_s"] = probe["import_s"]
    per_layer["setup.modules_loaded"] = probe["modules_loaded"]
    per_layer["setup.scipy_stats_loaded"] = probe["scipy_stats_loaded"]
    per_layer["loadgen.cpu_share"] = cpu_share
    # Whole-phase rates on both sides: the traced phase is not cut into blocks.
    per_layer["trace.overhead_share"] = (traced - untraced) / untraced
    return per_layer


def dir_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:
                pass
    return total


# -- service workloads --------------------------------------------------------


def service_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    cfg = SERVICE[name]
    problems: list[str] = []
    checker = Checker(problems)
    specs: dict[int, dict] = {}

    def items(phase: str, stream):
        for index, copies in stream:
            specs[index] = cfg["spec"](seed, index)
            yield f"{phase}-{index}", json.dumps(specs[index], sort_keys=True).encode(), copies

    def launch(label: str, number: int, spans: str | None = None):
        """A fresh service that has answered its one set-up request."""
        service = Service(run_dir, label, cfg["workers"], spans)
        runs: Counter = Counter()
        setup_spec = workloads.setup_spec(seed, number)
        specs[workloads.SETUP_BASE + number] = setup_spec
        sample = service.request(
            "POST", "/v1/simulate", json.dumps(setup_spec).encode(), f"s-{workloads.SETUP_BASE + number}"
        )
        setup_s = time.perf_counter() - service.launched
        checker.observe([sample], {"run"}, runs)
        return service, runs, setup_s

    def warm_up(service, runs) -> None:
        """Untimed: a first batch of the workload's own unique specs."""
        warm = service.drive(items("w", cfg["warmup"](seed)))[0]
        checker.observe(warm, cfg["sources"], runs)

    def finish(service, runs) -> dict:
        stats = json.loads(service.request("GET", "/v1/stats", tag="stats").body)
        if stats["runs"] != sum(runs.values()) or any(count != 1 for count in runs.values()):
            problems.append(
                f"runs per key is not 1: {stats['runs']} runs for {len(runs)} keys"
            )
        return stats

    record: dict = {"workload": name, "seed": seed, "trace": int(trace)}
    setups = []
    launches = 1 if trace else SETUP_LAUNCHES
    for number in range(launches):
        service, runs, setup_s = launch(str(number), number)
        setups.append(setup_s)
        try:
            if number < launches - 1:
                finish(service, runs)
                continue
            warm_up(service, runs)
            (timed, start, wall), cpu_share = _cpu_share(
                lambda: service.drive(
                    items("m", cfg["stream"](seed, workloads.TIMED_BASE)), seconds
                )
            )
            payloads = checker.observe(timed, cfg["sources"], runs)
            stats = finish(service, runs)
            rss = service.peak_rss_mb()
        finally:
            service.stop()

    ok = [(s, p) for s, p in zip(timed, payloads) if p is not None]
    # Replies complete in order on the one connection (a duplicate pair
    # together), so a block of consecutive replies spans the wall time from
    # the previous block's last reply to its own.
    size = max(1, len(ok) // BLOCKS)
    blocks, widths, begin = [], [], start
    for first in range(0, len(ok) - size + 1, size):
        chunk = ok[first:first + size]
        blocks.append([(sample.seconds, sum(payload["rounds"])) for sample, payload in chunk])
        widths.append(chunk[-1][0].end - begin)
        begin = chunk[-1][0].end
    metrics = {
        **block_metrics(blocks, widths),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    record["samples"] = {
        "timed_requests": len(timed),
        "per_block": size,
        "blocks": len(blocks),
        "coalesced": sum(1 for _, p in ok if p["source"] == "coalesced"),
        "setup_launches": setups,
        "worker_retries": stats["worker_retries"],
    }
    record["error_rate"] = (len(timed) - len(ok)) / len(timed) if timed else 0.0

    # Results digest: the warm-up specs plus a fixed prefix of the timed ones.
    digest_ids = {i for i, _ in cfg["warmup"](seed)}
    digest_ids |= set(range(workloads.TIMED_BASE, workloads.TIMED_BASE + cfg["digest_timed"]))
    fingerprints = {
        i: json.loads(checker.result_of[checker.key_of[i]])
        for i in sorted(digest_ids)
        if i in checker.key_of
    }
    record["digest_items"] = len(fingerprints)
    record["results_digest"] = results_digest(fingerprints)

    if trace:
        spans_dir = os.path.join(run_dir, "spans")
        os.makedirs(spans_dir)
        service, runs, _ = launch("traced", launches, spans_dir)
        try:
            warm_up(service, runs)
            count = max(1, int(cfg["traced_per_second"] * seconds))
            stream = itertools.islice(cfg["stream"](seed, workloads.TRACED_BASE), count)
            traced, _, traced_wall = service.drive(items("t", stream))
            traced_payloads = checker.observe(traced, cfg["sources"], runs)
            traced_stats = finish(service, runs)
        finally:
            service.stop()
        done = [p for p in traced_payloads if p is not None]
        per_layer = layers.layer_metrics(
            layers.read_spans(spans_dir),
            requests=len(traced),
            unique_keys=len({p["key"] for p in done}),
            coalesced=sum(1 for p in done if p["source"] == "coalesced"),
        )
        puts = traced_stats["cache"]["stores"] if traced_stats["cache"] else 0
        per_layer["cache.bytes_per_put"] = dir_bytes(service.cache_dir) / puts if puts else 0.0
        per_layer["executor.retries"] = traced_stats["worker_retries"]
        metrics = complete_layers(
            per_layer,
            cpu_share=cpu_share,
            untraced=len(ok) / wall,
            traced=len(done) / traced_wall,
        )
        record["samples"]["traced_requests"] = len(traced)

    reference_check(specs, fingerprints, cfg["reference"], seed, problems)
    return {
        "record": record,
        "metrics": metrics,
        "problems": problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
    }


# -- large-k ------------------------------------------------------------------


def largek_launch(run_dir: str, seed: int, seconds: float, mode: str, spans: str | None = None):
    """One fresh large-k interpreter: ``(setup seconds, done record or None)``."""
    log = open(os.path.join(run_dir, f"largek-{mode}.log"), "ab")
    command = [sys.executable, os.path.join(HERE, "largek.py"), "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--mode", mode]
    launched = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=log, env=child_env(spans), cwd=ROOT
    )
    try:
        json.loads(read_line(proc, LAUNCH_TIMEOUT))
        setup_s = time.perf_counter() - launched
        rest, _ = proc.communicate(timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"large-k {mode} run exited with code {proc.returncode}")
        return setup_s, json.loads(rest.splitlines()[-1]) if mode != "setup" else None
    finally:
        stop_process(proc, signal.SIGTERM)
        proc.stdout.close()
        log.close()


def replica_rounds(done: dict) -> float:
    """Replica rounds per second over a large-k launch's whole measured phase."""
    return sum(sum(call["fingerprint"][1]) for call in done["calls"]) / done["wall"]


def large_k_workload(seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    problems: list[str] = []
    launches = 1 if trace else SETUP_LAUNCHES
    setups = []
    for number in range(launches):
        mode = "timed" if number == launches - 1 else "setup"
        (setup_s, done), cpu_share = _cpu_share(
            lambda: largek_launch(run_dir, seed, seconds, mode)
        )
        setups.append(setup_s)

    def check(done) -> None:
        if not done["recheck"]:
            problems.append("a re-run of a timed call gave different bits")
        for call in done["calls"]:
            winners, _rounds, converged, _trace = call["fingerprint"]
            if not all(converged) or any(w != call["plurality_color"] for w in winners):
                problems.append(f"call {call['index']}: a replica did not reach the plurality color")

    check(done)
    calls = done["calls"]
    blocks: list[list[tuple[float, int]]] = [[] for _ in done["cycles"]]
    for call in calls:
        blocks[call["cycle"]].append((call["seconds"], sum(call["fingerprint"][1])))
    metrics = {
        **block_metrics(blocks, done["cycles"]),
        "peak_rss_mb": done["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    first_cycle = sorted(calls, key=lambda c: c["index"])[: len(workloads.LARGE_K)]
    fingerprints = {c["index"]: c["fingerprint"] for c in first_cycle}
    record = {
        "workload": "large-k",
        "seed": seed,
        "trace": int(trace),
        "samples": {
            "timed_calls": len(calls),
            "cycles": len(done["cycles"]),
            "setup_launches": setups,
        },
        "error_rate": 0.0,
        "digest_items": len(fingerprints),
        "results_digest": results_digest(fingerprints),
    }

    if trace:
        spans_dir = os.path.join(run_dir, "spans")
        os.makedirs(spans_dir)
        _, traced = largek_launch(run_dir, seed, seconds, "traced", spans_dir)
        check(traced)
        per_layer = layers.layer_metrics(
            layers.read_spans(spans_dir),
            requests=len(traced["calls"]),
            unique_keys=len(traced["calls"]),
            coalesced=0,
        )
        per_layer["cache.bytes_per_put"] = 0.0
        per_layer["executor.retries"] = 0
        metrics = complete_layers(
            per_layer,
            cpu_share=cpu_share,
            untraced=replica_rounds(done),
            traced=replica_rounds(traced),
        )
        record["samples"]["traced_calls"] = len(traced["calls"])

    attempted = len(calls) + (len(traced["calls"]) if trace else 0)
    return {
        "record": record,
        "metrics": metrics,
        "problems": problems,
        "attempted": attempted,
        "failed": 0,
    }


# -- driver -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = os.path.join(WORK, f"run-{os.getpid()}-{name}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if name == "large-k":
            out = large_k_workload(seed, seconds, trace, run_dir)
        else:
            out = service_workload(name, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = out["record"]
    record["host"] = host_stamp()
    if not out["problems"]:
        ledger_check(record, out["problems"])
    record["correct"] = not out["problems"]
    record["problems"] = out["problems"][:20]
    record["metrics"] = out["metrics"]
    with open(LEDGER, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return out


def report(name: str, out: dict, trace: bool) -> dict:
    """Print the human-readable lines and the record; returns the metrics."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        table = json.load(handle)["per_layer" if trace else "end_to_end"]
    correct = not out["problems"]
    print(f"# {name}: {'correct' if correct else 'OUTPUT CHECK FAILED'}")
    for problem in out["problems"][:20]:
        print(f"#   problem: {problem}")
    metrics = {}
    if correct:
        for entry in table:
            metric, unit = entry["name"], entry["unit"]
            value = out["metrics"][metric]
            metrics[metric] = {"value": value, "unit": unit}
            print(f"#   {metric} = {value:.6g} {unit}")
        if not trace:
            for metric in ("p90_ms", "p99_ms"):
                print(f"#   {metric} = {out['metrics'][metric]:.6g} ms (reported, not bounded)")
            print(f"#   error_rate = {out['record']['error_rate']:.6g} ratio")
    print(json.dumps({"record": out["record"]}, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "service", "__main__.py")):
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    os.sched_setaffinity(0, {PINNED_CPU})
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, trace)
        results[name] = (out, report(name, out, trace))
    correct = all(not out["problems"] for out, _ in results.values())
    if args.workload == "all":
        metrics = {f"{n}.{m}": v for n, (_, ms) in results.items() for m, v in ms.items()}
    else:
        metrics = results[args.workload][1]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(out["attempted"] for out, _ in results.values()),
                "failed": sum(out["failed"] for out, _ in results.values()),
                "metrics": metrics if correct else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
