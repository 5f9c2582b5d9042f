"""The scenario service: asyncio HTTP front over the serve substrate.

:class:`ScenarioService` owns one listening socket, one
:class:`~repro.serve.cache.ResultCache`, an optional process-pool worker
tier, the in-flight coalescing table and the consistent-hash
:class:`~repro.service.sharding.ShardMap`.  Request handling is a
straight pipeline::

    parse JSON  →  strict ScenarioSpec validation (error envelope on
    failure)  →  content-addressed cache_key  →  shard lookup  →
    in-flight coalescing  →  cache probe  →  miss dispatched to the
    worker tier  →  store  →  JSON payload

Two concurrent requests for the same key run the simulation **once**:
the first becomes the owner of an in-flight future, later arrivals await
it (``source: "coalesced"``, counted in ``/v1/stats``).  A miss runs on
the service's :class:`~repro.serve.executor.WorkerTier` — the same tier,
task function and retry loop as ``run_batch``: a spawn-context process
pool of stateless workers for ``workers >= 1``, in-process threads for
``workers=0`` (the dependency-light mode used by tests and the smoke
harness).  Blocking cache I/O runs via :func:`asyncio.to_thread`, which
is what the :class:`ResultCache` locking makes safe.

Resilience (all deterministic under :mod:`repro.faults`, exercised by
the chaos smoke in CI):

* **deadlines** — ``deadline_seconds`` (or a per-request ``x-deadline-ms``
  header) bounds the work endpoints; exceeding it answers a 504
  ``DeadlineExceeded`` envelope, and a cancelled *owner* rejects its
  coalesced followers with the typed :class:`OwnerCancelled` (also 504)
  instead of stranding them;
* **worker recovery** — a crashed (``BrokenProcessPool``) or stalled
  (``worker_timeout``) worker loses one attempt, not the request: the
  tier respawns the pool and retries the task with exponential backoff +
  jitter, up to ``worker_attempts`` attempts (results are pure functions
  of the spec, so retries are bit-identical).  Other requests' tasks
  that the respawn cancels retry too; they are never cancelled
  themselves.  The stall clock starts once the pool is warm, so a fresh
  worker's start-up never counts as a stall;
* **backpressure** — ``max_in_flight`` caps concurrent work; excess
  requests are shed with 429 + ``Retry-After`` (counted in ``/v1/stats``
  under ``shed``) rather than queued without bound;
* **graceful drain** — :meth:`ScenarioService.drain` (SIGTERM in
  ``python -m repro.service``) stops accepting, answers new work 503,
  finishes in-flight requests within a grace budget, then closes.

See the package docstring (:mod:`repro.service`) for the wire schema.
"""

from __future__ import annotations

import asyncio
import contextlib
import re
import threading
import time
from bisect import bisect_left
from collections import OrderedDict

import numpy as np

from .. import __version__, faults
from ..core.process import ENGINE_SCHEMA_VERSION, EnsembleResult
from ..scenario import ScenarioSpec
from ..serve.cache import ResultCache, cache_key
from ..serve.envelope import EnvelopeError, error_envelope, prepare_spec
from ..serve.executor import (
    DEFAULT_MAX_ATTEMPTS,
    FROM_CACHE,
    FROM_DEDUP,
    FROM_RUN,
    WorkerTier,
)
from .http import HttpError, Request, encode_response, read_request
from .sharding import ShardMap

__all__ = ["LatencyHistogram", "OwnerCancelled", "ScenarioService", "result_payload"]

#: Provenance label for a request that awaited another request's run.
FROM_COALESCED = "coalesced"
#: Provenance label for a request whose item failed validation.
FROM_ERROR = "error"

#: Request body cap: a batch of a few thousand specs fits comfortably.
DEFAULT_MAX_BODY = 8 << 20

#: Upper bound on memoised validations (canonical spec JSON strings);
#: far above any realistic working set, small enough to bound memory.
VALIDATION_MEMO_ENTRIES = 4096

#: Work endpoints: the routes that execute simulations, and therefore the
#: ones deadlines bound and backpressure sheds.  Health, stats and cached
#: result lookups always answer.
_WORK_LABELS = frozenset({"POST /v1/simulate", "POST /v1/batch"})

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class OwnerCancelled(Exception):
    """The owning request of a coalesced key was cancelled mid-run.

    Set on the in-flight future (instead of the raw ``CancelledError``,
    which would tear through the followers' own ``wait_for`` guards) so
    every coalesced follower fails typed — the dispatcher maps this to a
    504, same as the owner's own deadline.
    """


def _finite(value: float) -> float | None:
    """NaN/inf → None: the wire format is strict JSON (``allow_nan=False``)."""
    value = float(value)
    return value if np.isfinite(value) else None


def result_payload(key: str, source: str, result: EnsembleResult) -> dict[str, object]:
    """JSON-able result envelope shared by simulate/batch/result endpoints.

    Carries enough to check end-to-end bit-identity from the client side:
    the full per-replica ``winners``/``rounds``/``converged`` vectors plus
    the :meth:`TraceSet.digest` (which covers dtypes, shapes and raw
    bytes of every recorded column).
    """
    trace = result.trace
    return {
        "key": key,
        "source": source,
        "replicas": result.replicas,
        "plurality_color": int(result.plurality_color),
        "plurality_win_rate": _finite(result.plurality_win_rate),
        "convergence_rate": _finite(result.convergence_rate),
        "winners": [int(w) for w in result.winners],
        "rounds": [int(r) for r in result.rounds],
        "converged": [bool(c) for c in result.converged],
        "rounds_summary": {
            name: _finite(value) for name, value in result.rounds_summary().items()
        },
        "stop_reasons": result.stop_reasons(),
        "trace": None
        if trace is None
        else {
            "metrics": list(trace.metrics),
            "every": trace.every,
            "rounds_recorded": trace.n_rounds,
            "replicas": trace.replicas,
            "digest": trace.digest(),
        },
    }


class LatencyHistogram:
    """Fixed log-spaced latency histogram with quantile readout.

    Buckets grow by √2 from 0.1 ms to ~100 s, so any latency is within
    ~20% of its bucket bound — plenty for p50/p95/p99 reporting without
    storing per-request samples.  Only touched from the event loop, so it
    needs no locking.
    """

    def __init__(self):
        bounds = [1e-4]
        while bounds[-1] < 100.0:
            bounds.append(bounds[-1] * 2 ** 0.5)
        self._bounds = bounds  # upper edge of each bucket, seconds
        self._counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        self._counts[bisect_left(self._bounds, seconds)] += 1
        self.count += 1
        self.total += seconds

    def quantile(self, q: float) -> float | None:
        """Upper bucket edge holding the q-quantile (seconds); None when empty."""
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0
        for index, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= target and bucket:
                return self._bounds[min(index, len(self._bounds) - 1)]
        return self._bounds[-1]

    def to_dict(self) -> dict[str, object]:
        def _ms(seconds: float | None) -> float | None:
            return None if seconds is None else round(seconds * 1e3, 3)

        return {
            "count": self.count,
            "mean_ms": _ms(self.total / self.count) if self.count else None,
            "p50_ms": _ms(self.quantile(0.50)),
            "p95_ms": _ms(self.quantile(0.95)),
            "p99_ms": _ms(self.quantile(0.99)),
        }


class ScenarioService:
    """One service instance: routes, stats, coalescing, worker tier.

    Parameters
    ----------
    cache:
        :class:`ResultCache` to probe and fill; ``None`` serves without
        caching (every request runs, ``/v1/result`` always 404s).
    workers:
        Process-pool width for cache misses.  ``0`` (default) executes
        misses on in-process threads — no pool start-up cost, the right
        mode for tests and smoke runs; ``>= 1`` spawns a pool of stateless
        workers on :meth:`start` and warms it up in the background.
    shards:
        Node names for the consistent-hash ring (default: just
        ``shard_self``).  ``shard_self`` must be listed; requests whose
        key another node owns are still served locally (single-host
        deployment) but carry the owner in the response ``shard`` field,
        and the mismatch is counted in ``/v1/stats``.
    deadline_seconds:
        Default per-request deadline for the work endpoints (``None`` —
        the default — means unbounded).  A client ``x-deadline-ms``
        header overrides it per request.  Exceeding the deadline answers
        504 and cancels the underlying run.
    max_in_flight:
        Concurrent-work cap; ``0`` (default) is unbounded.  Work requests
        arriving at the cap are shed with 429 + ``Retry-After`` instead
        of queueing without bound.
    worker_attempts:
        Total attempts per run before a crashed/stalled worker tier gives
        up with a 500 (each retry backs off with jitter).
    worker_timeout:
        Seconds one attempt may run on a warm pool before it counts as
        stalled and retries on a fresh pool (``None``: wait forever —
        rely on the request deadline instead).
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        *,
        workers: int = 0,
        shards: list[str] | None = None,
        shard_self: str = "local",
        max_body: int = DEFAULT_MAX_BODY,
        deadline_seconds: float | None = None,
        max_in_flight: int = 0,
        worker_attempts: int = DEFAULT_MAX_ATTEMPTS,
        worker_timeout: float | None = None,
    ):
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(f"deadline_seconds must be > 0, got {deadline_seconds}")
        if max_in_flight < 0:
            raise ValueError(f"max_in_flight must be >= 0, got {max_in_flight}")
        self._tier = WorkerTier(
            workers, max_attempts=worker_attempts, worker_timeout=worker_timeout
        )
        self.cache = cache
        self.workers = int(workers)
        self.shard_self = shard_self
        self.shard_map = ShardMap(shards if shards else [shard_self])
        if shard_self not in self.shard_map.nodes:
            raise ValueError(
                f"shard_self {shard_self!r} is not in shards {list(self.shard_map.nodes)!r}"
            )
        self.max_body = int(max_body)
        self.deadline_seconds = None if deadline_seconds is None else float(deadline_seconds)
        self.max_in_flight = int(max_in_flight)
        self._server: asyncio.AbstractServer | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._draining = False
        # Validation memo: canonical spec JSON → already passed validate().
        # Registry validation can materialise a topology graph (hundreds of
        # ms), so the warm path must not re-pay it per request.  Accessed
        # from handler worker threads; guarded by its own lock.
        self._validated: OrderedDict[str, None] = OrderedDict()
        self._validated_lock = threading.Lock()
        self._histograms: dict[str, LatencyHistogram] = {}
        self._errors: dict[str, int] = {}
        self.in_flight = 0
        self.runs = 0
        self.coalesced = 0
        self.remote_shard_requests = 0
        self.shed = 0
        self.deadline_hits = 0
        self.dropped_connections = 0
        self._started_at = time.monotonic()

    @property
    def worker_retries(self) -> int:
        """Task re-executions after lost worker attempts (``/v1/stats``)."""
        return self._tier.retried

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._tier.start()
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        self._started_at = time.monotonic()
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._tier.close()

    async def drain(self, grace: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, then close.

        New work requests on surviving keep-alive connections answer 503
        (``Draining``) while existing in-flight work completes; after
        ``grace`` seconds any stragglers are abandoned to :meth:`close`.
        Returns True when in-flight work hit zero within the budget —
        what SIGTERM handling in ``python -m repro.service`` reports.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        budget = time.monotonic() + float(grace)
        while self.in_flight > 0 and time.monotonic() < budget:
            await asyncio.sleep(0.02)
        drained = self.in_flight == 0
        await self.close()
        return drained

    # -- connection / dispatch ----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader, max_body=self.max_body)
                except HttpError as exc:
                    writer.write(
                        encode_response(
                            exc.status, {"error": error_envelope(exc)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.headers.get("connection", "").lower() != "close"
                status, payload, extra_headers = await self._dispatch(request)
                if faults.fire("service.connection-drop") is not None:
                    # Injected network failure: hang up without writing the
                    # response, so clients exercise their reconnect path.
                    self.dropped_connections += 1
                    break
                if self._draining:
                    keep_alive = False  # shed keep-alives so drain converges
                writer.write(
                    encode_response(
                        status, payload, keep_alive=keep_alive, headers=extra_headers
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        finally:
            writer.close()
            # CancelledError: event-loop teardown cancels handlers mid-close;
            # the socket is going away either way, so finish quietly.
            with contextlib.suppress(
                ConnectionResetError, BrokenPipeError, asyncio.CancelledError
            ):
                await writer.wait_closed()

    async def _dispatch(self, request: Request) -> tuple[int, dict, dict | None]:
        label, method, handler, argument = self._route(request)
        histogram = self._histograms.setdefault(label, LatencyHistogram())
        is_work = label in _WORK_LABELS
        if is_work and self._draining:
            self._errors[label] = self._errors.get(label, 0) + 1
            envelope = {
                "type": "Draining",
                "message": "service is draining; no new work accepted",
            }
            return 503, {"error": envelope}, None
        if is_work and self.max_in_flight and self.in_flight >= self.max_in_flight:
            # Shed rather than queue: the client's Retry-After backoff is
            # the queue, and it is bounded on *their* side.
            self.shed += 1
            self._errors[label] = self._errors.get(label, 0) + 1
            envelope = {
                "type": "Overloaded",
                "message": (
                    f"{self.in_flight} requests in flight (cap {self.max_in_flight}); "
                    "retry after backoff"
                ),
            }
            return 429, {"error": envelope}, {"Retry-After": "1"}
        rule = faults.fire("service.slow-response")
        if rule is not None:
            await asyncio.sleep(float(rule.params.get("seconds", 1.0)))
        self.in_flight += 1
        start = time.perf_counter()
        deadline = None
        try:
            if handler is None:
                raise HttpError(404, f"no route for {request.path!r}")
            if request.method != method:
                raise HttpError(405, f"{request.path} only accepts {method}")
            deadline = self._deadline_for(request) if is_work else None
            if deadline is not None:
                status, payload = await asyncio.wait_for(
                    handler(request, argument), deadline
                )
            else:
                status, payload = await handler(request, argument)
        except HttpError as exc:
            status, payload = exc.status, {"error": error_envelope(exc)}
        except TimeoutError:  # asyncio.wait_for: the deadline fired
            self.deadline_hits += 1
            budget = f"its {deadline * 1e3:.0f} ms deadline" if deadline else "a deadline"
            status, payload = 504, {
                "error": {"type": "DeadlineExceeded", "message": f"request exceeded {budget}"}
            }
        except OwnerCancelled as exc:
            # Coalesced follower whose owner was cancelled: same verdict
            # (and same status) as if this request had timed out itself.
            self.deadline_hits += 1
            status, payload = 504, {"error": error_envelope(exc)}
        except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the loop
            status, payload = 500, {"error": error_envelope(exc)}
        finally:
            self.in_flight -= 1
            histogram.observe(time.perf_counter() - start)
        if status >= 400:
            self._errors[label] = self._errors.get(label, 0) + 1
        return status, payload, None

    def _deadline_for(self, request: Request) -> float | None:
        """Effective deadline (seconds): ``x-deadline-ms`` header else config."""
        raw = request.headers.get("x-deadline-ms")
        if raw is None:
            return self.deadline_seconds
        try:
            ms = float(raw)
        except ValueError:
            raise HttpError(400, f"x-deadline-ms is not a number: {raw!r}") from None
        if ms <= 0:
            raise HttpError(400, f"x-deadline-ms must be > 0, got {raw}")
        return ms / 1e3

    def _route(self, request: Request):
        """Resolve one request to ``(stats label, method, handler, argument)``."""
        path = request.path.rstrip("/") or "/"
        if path == "/v1/health":
            return "GET /v1/health", "GET", self._handle_health, None
        if path == "/v1/stats":
            return "GET /v1/stats", "GET", self._handle_stats, None
        if path == "/v1/simulate":
            return "POST /v1/simulate", "POST", self._handle_simulate, None
        if path == "/v1/batch":
            return "POST /v1/batch", "POST", self._handle_batch, None
        if path.startswith("/v1/result/"):
            key = path[len("/v1/result/"):]
            return "GET /v1/result", "GET", self._handle_result, key
        return request.method + " " + path, request.method, None, None

    # -- execution core ------------------------------------------------------

    async def _obtain(self, spec: ScenarioSpec) -> tuple[str, str, EnsembleResult]:
        """Serve one validated spec: coalesce → cache → run; returns provenance."""
        key = self.cache.key_for(spec) if self.cache is not None else cache_key(spec)
        if self.shard_map.owner_of(key) != self.shard_self:
            self.remote_shard_requests += 1
        pending = self._inflight.get(key)
        if pending is not None:
            self.coalesced += 1
            return key, FROM_COALESCED, await pending
        # Register the future BEFORE the first await: between the in-flight
        # probe above and this line the coroutine never yields, so exactly
        # one request per key can become the owner — later duplicates land
        # on the branch above even while the owner is still probing the
        # cache in a thread.
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            if self.cache is not None:
                cached = await asyncio.to_thread(self.cache.get, key)
                if cached is not None:
                    future.set_result(cached)
                    return key, FROM_CACHE, cached
            result = await self._execute(key, spec)
            if self.cache is not None:
                await asyncio.to_thread(self.cache.put, key, result)
            self.runs += 1
            future.set_result(result)
            return key, FROM_RUN, result
        except BaseException as exc:
            # BaseException: a cancelled owner must not strand followers
            # on a forever-pending future.
            if not future.done():
                if isinstance(exc, asyncio.CancelledError):
                    # Deadline (or teardown) cancelled the owner: fail the
                    # followers typed — a raw CancelledError would tear
                    # through their own wait_for guards unrecognisably.
                    future.set_exception(
                        OwnerCancelled(
                            f"owning request for {key[:12]}… was cancelled before completing"
                        )
                    )
                else:
                    future.set_exception(exc)
                # Coalesced awaiters consume the exception; without any,
                # tell asyncio it is handled (it re-raises below regardless).
                future.exception()
            raise
        finally:
            del self._inflight[key]

    async def _execute(self, key: str, spec: ScenarioSpec) -> EnsembleResult:
        """Run one miss on the worker tier as a one-task shard.

        The tier absorbs worker crashes and stalls (see
        :class:`~repro.serve.executor.WorkerTier`).  A *deterministic*
        spec failure (the worker returned an error envelope) never
        retries; it is re-raised typed so the envelope reaches the wire
        unchanged.
        """
        [(_key, payload)] = await self._tier.run([(key, spec.to_json(indent=None))])
        if isinstance(payload, dict):  # per-item error envelope from the worker
            raise EnvelopeError(payload)
        return payload

    # -- handlers ------------------------------------------------------------

    async def _handle_health(self, request: Request, _argument) -> tuple[int, dict]:
        return 200, {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "schema_version": ENGINE_SCHEMA_VERSION,
            "workers": self.workers,
            "cache": self.cache is not None,
            "shard_self": self.shard_self,
            "draining": self._draining,
        }

    async def _handle_stats(self, request: Request, _argument) -> tuple[int, dict]:
        cache_stats = None
        if self.cache is not None:
            cache_stats = await asyncio.to_thread(self.cache.stats)
        requests = {}
        total_hits = total = 0
        for label, histogram in sorted(self._histograms.items()):
            requests[label] = {
                **histogram.to_dict(),
                "errors": self._errors.get(label, 0),
            }
        if cache_stats is not None:
            total_hits = cache_stats["hits"]
            total = cache_stats["hits"] + cache_stats["misses"]
        return 200, {
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "in_flight": self.in_flight,
            "runs": self.runs,
            "coalesced": self.coalesced,
            "remote_shard_requests": self.remote_shard_requests,
            "shed": self.shed,
            "deadline_hits": self.deadline_hits,
            "worker_retries": self.worker_retries,
            "dropped_connections": self.dropped_connections,
            "draining": self._draining,
            "limits": {
                "max_in_flight": self.max_in_flight or None,
                "deadline_ms": None
                if self.deadline_seconds is None
                else round(self.deadline_seconds * 1e3, 3),
                "worker_attempts": self._tier.max_attempts,
                "worker_timeout_s": self._tier.worker_timeout,
            },
            "faults": faults.describe(),
            "cache": cache_stats,
            "cache_hit_rate": round(total_hits / total, 4) if total else None,
            "requests": requests,
            "shards": self.shard_map.describe(),
        }

    def _prepare(self, entry) -> tuple[ScenarioSpec | None, dict | None]:
        """:func:`prepare_spec` with the validation memo applied.

        Runs on a worker thread (``asyncio.to_thread``) so a cold
        validation never stalls the event loop; a spec whose canonical
        JSON already validated skips straight through.
        """
        spec, error = prepare_spec(entry, validate=False)
        if error is not None:
            return None, error
        token = spec.to_json(indent=None)
        with self._validated_lock:
            known = token in self._validated
            if known:
                self._validated.move_to_end(token)
        if not known:
            try:
                spec.validate()
            except Exception as exc:  # noqa: BLE001 — becomes the item envelope
                return None, error_envelope(exc)
            with self._validated_lock:
                self._validated[token] = None
                while len(self._validated) > VALIDATION_MEMO_ENTRIES:
                    self._validated.popitem(last=False)
        return spec, None

    async def _handle_simulate(self, request: Request, _argument) -> tuple[int, dict]:
        spec, error = await asyncio.to_thread(self._prepare, request.json())
        if error is not None:
            return 400, {"error": error}
        key, source, result = await self._obtain(spec)
        payload = result_payload(key, source, result)
        payload["shard"] = self.shard_map.owner_of(key)
        payload["spec"] = spec.to_dict()
        return 200, payload

    async def _handle_batch(self, request: Request, _argument) -> tuple[int, dict]:
        body = request.json()
        if isinstance(body, dict) and "scenarios" in body:
            body = body["scenarios"]
        if not isinstance(body, list) or not body:
            raise HttpError(
                400, 'batch body must be a non-empty JSON array (or {"scenarios": [...]})'
            )
        start = time.perf_counter()
        prepared = await asyncio.to_thread(
            lambda: [self._prepare(entry) for entry in body]
        )

        # Dedup valid items by key; the first occurrence owns the execution
        # slot (run_batch's discipline), later duplicates report "dedup".
        keys: list[str | None] = []
        owner_of: dict[str, int] = {}
        for position, (spec, error) in enumerate(prepared):
            if spec is None:
                keys.append(None)
                continue
            key = self.cache.key_for(spec) if self.cache is not None else cache_key(spec)
            keys.append(key)
            owner_of.setdefault(key, position)

        owners = list(owner_of.items())
        obtained = await asyncio.gather(
            *(self._obtain(prepared[position][0]) for _key, position in owners),
            return_exceptions=True,
        )
        outcome: dict[str, object] = {
            key: result for (key, _), result in zip(owners, obtained)
        }

        items: list[dict] = []
        counters = {FROM_CACHE: 0, FROM_RUN: 0, FROM_DEDUP: 0, FROM_COALESCED: 0}
        errors = 0
        for position, ((spec, error), key) in enumerate(zip(prepared, keys)):
            if error is not None:
                errors += 1
                items.append({"key": None, "source": FROM_ERROR, "error": error})
                continue
            value = outcome[key]
            if isinstance(value, BaseException):
                errors += 1
                items.append(
                    {"key": key, "source": FROM_ERROR, "error": error_envelope(value)}
                )
                continue
            _key, source, result = value
            if owner_of[key] != position:
                source = FROM_DEDUP
            counters[source] += 1
            item = result_payload(key, source, result)
            item["error"] = None
            items.append(item)
        return 200, {
            "requests": len(items),
            "unique": len(owner_of),
            "hits": counters[FROM_CACHE],
            "misses": counters[FROM_RUN],
            "deduped": counters[FROM_DEDUP],
            "coalesced": counters[FROM_COALESCED],
            "errors": errors,
            "wall_seconds": round(time.perf_counter() - start, 6),
            "items": items,
        }

    async def _handle_result(self, request: Request, key: str) -> tuple[int, dict]:
        if not _KEY_RE.match(key):
            raise HttpError(400, f"result key must be a sha256 hex digest, got {key!r}")
        if self.cache is None:
            raise HttpError(404, "service is running without a result cache")
        cached = await asyncio.to_thread(self.cache.get, key)
        if cached is None:
            raise HttpError(404, f"no cached result under key {key}")
        return 200, result_payload(key, FROM_CACHE, cached)
