"""Batch executor and the one worker tier behind every cache miss.

:func:`run_batch` is the serving hot path for scenario traffic.  It takes a
request-ordered list of :class:`~repro.scenario.ScenarioSpec`, collapses
duplicate requests onto one execution via their content-addressed
:func:`~repro.serve.cache.cache_key`, serves whatever the
:class:`~repro.serve.cache.ResultCache` already holds, and shards the
remaining misses over a :class:`WorkerTier`.

:class:`WorkerTier` is the only owner of worker processes in the serving
stack: ``run_batch`` drives one per call, and
:class:`~repro.service.app.ScenarioService` keeps one for its lifetime.
It runs shards of ``(key, spec_json)`` tasks on a spawn-context process
pool (spawn for BLAS-thread safety; stateless workers, small arrays back)
or, at width 0, on in-process threads, and owns the stall clock, the
respawn and the bounded retry loop.

Determinism: every spec carries its own seed, so a result is a pure
function of the spec — identical whichever worker (or the parent) runs it,
and bit-identical to a direct :func:`~repro.scenario.simulate_ensemble`
call.  That is what makes the dedup and the cache sound — **and** what
makes retrying a lost shard safe.

Failure semantics (tested in ``tests/test_serve.py`` and
``tests/test_service.py``):

* a spec that *raises* inside a worker becomes a per-item ``{"type",
  "message"}`` error envelope; it never retries and never poisons its
  shard siblings;
* a shard whose task is *lost* — its worker died (``BrokenProcessPool``),
  stalled past ``worker_timeout``, raised an injected fault, or had the
  task cancelled by another shard's respawn — retries with exponential
  backoff and deterministic jitter, up to ``max_attempts`` attempts, with
  per-key retry counts as provenance.  Such a cancellation is never the
  caller's own cancellation;
* the first shard to see a pool die or stall replaces it; the replacement
  runs with :mod:`repro.faults` disarmed, so a fault schedule is one
  incident rather than one per replacement worker;
* the stall clock starts once the pool is warm and a worker is free: a
  fresh pool first runs one :func:`_warm` task per worker (spawn,
  imports, registries), and at most ``workers`` tasks are submitted at
  once, so neither start-up nor queueing behind healthy siblings counts
  against ``worker_timeout``.  Threads have no stall clock, since a
  thread cannot be replaced; in-process tasks take one thread hop each,
  so a cancellation lands between simulations;
* ``executor.worker-crash`` and ``executor.worker-stall`` in
  :mod:`repro.faults` inject both failure modes deterministically.

Specs with ``seed=None`` are rejected up front.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import random
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from .. import faults
from ..core.process import EnsembleResult
from ..scenario import ScenarioSpec, simulate_ensemble
from .cache import ResultCache, cache_key
from .envelope import error_envelope

# asyncio is imported only where a tier runs: ``import repro`` (the
# engines alone) and every spawned worker stay without it (~2 MB RSS).

__all__ = ["BatchReport", "WorkerPoolError", "WorkerTier", "run_batch"]

#: Per-request provenance labels in :attr:`BatchReport.sources`.
FROM_CACHE = "cache"
FROM_RUN = "run"
FROM_DEDUP = "dedup"
FROM_ERROR = "error"

#: Total attempts per shard before the tier gives up (crash / stall
#: recovery).  8 puts exhaustion under an injected crash probability of
#: 0.2 at ~2.6e-6 per shard, so the chaos smoke's zero-5xx check is sound.
DEFAULT_MAX_ATTEMPTS = 8
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 2.0


class WorkerPoolError(RuntimeError):
    """Every attempt at executing a shard's tasks failed (crash/stall)."""


@dataclass
class BatchReport:
    """Outcome of one :func:`run_batch` call, in request order."""

    results: list[EnsembleResult | None]
    keys: list[str]
    #: Per-request provenance: ``"cache"`` (served from the cache), ``"run"``
    #: (freshly executed), ``"dedup"`` (duplicate of an earlier request in
    #: the same batch), or ``"error"`` (the item failed inside a worker;
    #: see :attr:`errors`).
    sources: list[str] = field(repr=False)
    #: Per-request ``{"type", "message"}`` envelope where the item failed
    #: in a worker, None elsewhere — aligned with :attr:`results`, which
    #: holds None at the same positions.
    errors: list[dict | None] = field(default_factory=list, repr=False)
    #: Per-key retry counts for tasks whose shard was lost to a worker
    #: crash or stall and re-executed (provenance for the chaos suite).
    retries: dict[str, int] = field(default_factory=dict, repr=False)
    hits: int = 0
    misses: int = 0
    deduped: int = 0
    failed: int = 0
    wall_seconds: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.results)

    def summary(self) -> dict[str, object]:
        """JSON-able batch-level counters (what ``repro batch`` prints)."""
        return {
            "requests": self.requests,
            "unique": self.requests - self.deduped,
            "hits": self.hits,
            "misses": self.misses,
            "deduped": self.deduped,
            "failed": self.failed,
            "retries": int(sum(self.retries.values())),
            "wall_seconds": self.wall_seconds,
        }


def _run_shard(shard: list[tuple[str, str]]) -> list[tuple[str, object]]:
    """Worker: execute one shard of ``(key, spec_json)`` tasks.

    Module-level (picklable) and stateless; the spec JSON is the entire
    task description, per the coarse-communication discipline.  Each pair
    in the return value carries either the :class:`EnsembleResult` or a
    per-item ``{"type", "message"}`` error envelope — a deterministic
    item failure must not poison its shard siblings.  Injected faults
    (:mod:`repro.faults`) deliberately bypass the per-item catch: they
    model *infrastructure* failures, which are retryable, unlike a spec
    that fails the same way on every attempt.
    """
    out: list[tuple[str, object]] = []
    for key, spec_json in shard:
        rule = faults.fire("executor.worker-crash")
        if rule is not None:
            if rule.params.get("hard"):
                # Simulated hard death: the pool sees a vanished worker
                # (BrokenProcessPool), exactly like an OOM kill.
                os._exit(3)
            raise faults.InjectedWorkerCrash(
                f"injected worker crash before task {key[:12]}"
            )
        rule = faults.fire("executor.worker-stall")
        if rule is not None:
            time.sleep(float(rule.params.get("seconds", 30.0)))
        try:
            spec = ScenarioSpec.from_json(spec_json)
            out.append((key, simulate_ensemble(spec)))
        except faults.InjectedFault:
            raise
        except Exception as exc:  # noqa: BLE001 — becomes the item's envelope
            out.append((key, error_envelope(exc)))
    return out


def run_batch(
    specs: Sequence[ScenarioSpec],
    *,
    cache: ResultCache | None = None,
    processes: int | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    worker_timeout: float | None = None,
) -> BatchReport:
    """Execute ``specs``, merging cache hits and fresh runs in request order.

    Parameters
    ----------
    specs:
        The request batch; every spec must have a concrete ``seed`` (results
        would otherwise be irreproducible, breaking dedup and caching).
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely and
        fresh results are stored back.  Without a cache the batch still
        dedups identical requests within itself.
    processes:
        Pool width for the misses.  ``None`` uses one worker per CPU;
        ``1`` (or a batch with at most one miss) runs in-process with no
        pool — the dependency-free fallback path.
    max_attempts:
        Total attempts per shard before the batch raises
        :class:`WorkerPoolError` — only *lost* tasks (worker crashes and
        stalls) retry (results are pure functions of the spec, so a retry
        is bit-identical); deterministic item failures never do.
    worker_timeout:
        Seconds one shard may run on a warm pool before it counts as
        stalled and retries on a fresh pool.  ``None`` (default) waits
        indefinitely.

    Duplicate requests share one ``EnsembleResult`` object; treat results
    as read-only (the cache already hands out defensive copies).  Misses
    run on a :class:`WorkerTier` driven by :func:`asyncio.run` — on a
    helper thread when the caller already runs an event loop, which this
    call then blocks until the batch is done.  In-process misses run on a
    thread, so Ctrl-C stops the batch once the simulation in progress ends.
    """
    specs = list(specs)
    for position, spec in enumerate(specs):
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(f"specs[{position}] is not a ScenarioSpec: {spec!r}")
        if spec.seed is None:
            raise ValueError(
                f"specs[{position}] has seed=None; batch execution needs concrete "
                "seeds so results are reproducible and cacheable"
            )
    start = time.perf_counter()
    keys = [
        cache.key_for(spec) if cache is not None else cache_key(spec) for spec in specs
    ]

    # Dedup: the first occurrence of each key owns the execution slot.
    owner_of: dict[str, int] = {}
    sources: list[str] = []
    for position, key in enumerate(keys):
        if key in owner_of:
            sources.append(FROM_DEDUP)
        else:
            owner_of[key] = position
            sources.append(None)  # filled below with "cache", "run" or "error"

    results: dict[str, EnsembleResult] = {}
    failures: dict[str, dict] = {}
    to_run: list[tuple[str, str]] = []
    for key, position in owner_of.items():
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            results[key] = cached
            sources[position] = FROM_CACHE
        else:
            to_run.append((key, specs[position].to_json(indent=None)))
            sources[position] = FROM_RUN
    hits = len(owner_of) - len(to_run)

    retries: dict[str, int] = {}
    if to_run:
        import asyncio

        tier = WorkerTier(
            _pool_width(processes, len(to_run)),
            max_attempts=max_attempts,
            worker_timeout=worker_timeout,
        )
        work = tier.run_all(to_run, retries)
        try:
            try:
                asyncio.get_running_loop()
            except RuntimeError:
                fresh = asyncio.run(work)
            else:  # called from async code: asyncio.run needs a thread of its own
                with ThreadPoolExecutor(1) as helper:
                    fresh = helper.submit(asyncio.run, work).result()
        finally:
            tier.close()
        for key, payload in fresh:
            if isinstance(payload, dict):  # per-item worker error envelope
                failures[key] = payload
                sources[owner_of[key]] = FROM_ERROR
            else:
                results[key] = payload
                if cache is not None:
                    cache.put(key, payload)

    ordered = [results.get(key) for key in keys]
    errors = [failures.get(key) for key in keys]
    return BatchReport(
        results=ordered,
        keys=keys,
        sources=sources,
        errors=errors,
        retries=retries,
        hits=hits,
        misses=len(to_run),
        deduped=len(specs) - len(owner_of),
        failed=sum(1 for envelope in errors if envelope is not None),
        wall_seconds=time.perf_counter() - start,
    )


def _warm() -> None:
    """Pool warm-up task: pay a fresh worker's one-time start-up cost.

    Module-level (picklable).  Unpickling it imports this module; filling
    the workload and topology registries pays the imports (numpy,
    networkx; never :mod:`repro.experiments` or scipy) that a worker's
    first ``resolve()`` would otherwise pay inside a task, on the stall
    clock.  A task's ``resolve()`` is the only place a spec's topology
    graph is built; the server only validates.
    """
    from ..scenario import _ensure_registered

    _ensure_registered()


def backoff_delay(attempt: int, jitter: random.Random) -> float:
    """Exponential backoff with jitter: uniformly 50–150% of the nominal step.

    The jitter source is an explicit ``random.Random`` so callers that
    need reproducible schedules (the chaos tests) can seed it.
    """
    nominal = min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * (2 ** attempt))
    return nominal * (0.5 + jitter.random())


def _pool_width(processes: int | None, tasks: int) -> int:
    """``run_batch``'s tier width: 0 (in-process) unless two workers have work."""
    width = processes if processes is not None else (os.cpu_count() or 1)
    width = max(1, min(width, tasks))
    return 0 if width == 1 else width


class _PoolReplaced(Exception):
    """An attempt's pool was replaced by a respawn before its task finished."""


class WorkerTier:
    """:func:`_run_shard` on ``workers`` spawned processes (0: in-process threads).

    ``max_attempts`` bounds the attempts per shard; ``worker_timeout`` is
    the stall clock (seconds one attempt may run on a warm pool, ``None``
    waits forever).  All methods run on one event loop; the pool is spawned by
    :meth:`start` or the first :meth:`run` and shut down by :meth:`close`.
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        worker_timeout: float | None = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {max_attempts}")
        if worker_timeout is not None and worker_timeout <= 0:
            raise ValueError(f"worker_timeout must be > 0, got {worker_timeout}")
        self.workers = int(workers)
        self.max_attempts = int(max_attempts)
        self.worker_timeout = None if worker_timeout is None else float(worker_timeout)
        #: Task re-executions so far: one per key per retried attempt.
        self.retried = 0
        self._pool: ProcessPoolExecutor | None = None
        self._warm: asyncio.Future | None = None
        #: One slot per worker; an attempt holds one while its task runs.
        self._slots: asyncio.Semaphore | None = None
        self._closed = False

    def start(self) -> None:
        """(Re)open the tier and spawn the pool now, so it warms up before work."""
        self._closed = False
        if self.workers and self._pool is None:
            import asyncio

            self._slots = asyncio.Semaphore(self.workers)
            self._spawn(initializer=None)

    def close(self) -> None:
        """Shut the pool down; runs raise :class:`WorkerPoolError` until :meth:`start`."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _spawn(self, initializer) -> None:
        import asyncio

        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=mp.get_context("spawn"),  # fork-safety with BLAS threads
            initializer=initializer,
        )
        loop = asyncio.get_running_loop()
        self._warm = asyncio.gather(
            *(loop.run_in_executor(self._pool, _warm) for _ in range(self.workers))
        )
        # A failed warm-up surfaces through the runs awaiting it; retrieve
        # it here too, so a pool that no run awaited does not log it.
        self._warm.add_done_callback(lambda warm: warm.cancelled() or warm.exception())

    def _respawn(self, pool: ProcessPoolExecutor) -> None:
        """Replace ``pool`` after it died or stalled, unless a sibling already did.

        The replacement runs with :mod:`repro.faults` disarmed: an armed
        plan describes one incident, not one per replacement worker.
        """
        if pool is None or pool is not self._pool or self._closed:
            return
        pool.shutdown(wait=False, cancel_futures=True)
        self._spawn(initializer=faults.disarm)

    async def run(
        self, shard: list[tuple[str, str]], retries: dict[str, int] | None = None
    ) -> list[tuple[str, object]]:
        """Execute one shard of ``(key, spec_json)`` tasks; returns ``_run_shard``'s pairs.

        Each retry of a lost attempt adds one per key to ``retries`` (when
        given) and to :attr:`retried`; :class:`WorkerPoolError` once
        ``max_attempts`` attempts are lost.
        """
        import asyncio

        # Deterministic jitter keyed on the content address: replayable
        # schedules, uncorrelated across concurrent shards.
        jitter = random.Random(shard[0][0])
        last: BaseException | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                self.retried += len(shard)
                if retries is not None:
                    for key, _ in shard:
                        retries[key] = retries.get(key, 0) + 1
                await asyncio.sleep(backoff_delay(attempt - 1, jitter))
            if self._closed:
                raise WorkerPoolError("the worker tier is closed")
            self.start()
            pool = None
            try:
                if not self.workers:
                    return [
                        pair
                        for task in shard
                        for pair in await asyncio.to_thread(_run_shard, [task])
                    ]
                async with self._slots:
                    if self._closed:
                        raise WorkerPoolError("the worker tier is closed")
                    pool, warm = self._pool, self._warm
                    await asyncio.shield(warm)
                    if pool is not self._pool:
                        raise _PoolReplaced("the pool was replaced during its warm-up")
                    # The stall clock starts here, on a warm pool with a free
                    # worker: spawn, imports and queueing never count as a stall.
                    return await asyncio.wait_for(
                        asyncio.get_running_loop().run_in_executor(pool, _run_shard, shard),
                        self.worker_timeout,
                    )
            except asyncio.CancelledError:
                if asyncio.current_task().cancelling():
                    raise  # the caller's own cancellation: deadline or teardown
                last = _PoolReplaced("a respawn cancelled the task")
            except faults.InjectedFault as exc:
                last = exc  # a soft crash: the worker survived it
            except (BrokenProcessPool, TimeoutError, _PoolReplaced) as exc:
                last = exc
                self._respawn(pool)
        raise WorkerPoolError(
            f"worker execution of {len(shard)} task(s) failed after "
            f"{self.max_attempts} attempts"
        ) from last

    async def run_all(
        self, tasks: list[tuple[str, str]], retries: dict[str, int] | None = None
    ) -> list[tuple[str, object]]:
        """Shard ``tasks`` over the workers and run the shards concurrently."""
        import asyncio

        width = max(1, self.workers)
        done = await asyncio.gather(
            *(self.run(tasks[offset::width], retries) for offset in range(width))
        )
        return [pair for pairs in done for pair in pairs]
