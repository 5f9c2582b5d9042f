"""Span recorder installed around the program's layer boundaries.

The benchmark measures the program from outside: nothing under ``src/``
knows about it.  For a traced run, :func:`install_service`,
:func:`install_worker` and :func:`install_engine` replace public
functions with timing wrappers, patched under the name each caller looks
up at call time (``repro.service.app.encode_response``, not
``repro.service.http.encode_response``; ``repro.core.dynamics.
multinomial_step_batch``, not the samplers module's own name).

A span is ``(name, request_id, span_id, parent_id, start, end, extra)``
with ``time.monotonic()`` stamps; CLOCK_MONOTONIC is shared by every
process on the host, so a server-side span and a worker-side span can be
subtracted.  The request ID comes from the load generator's
``x-bench-id`` header, read by the dispatch wrapper into a context
variable that ``asyncio.to_thread`` copies into its thread.  Worker-side
spans carry ``key:<content key>`` instead and are joined to a request
through the server's ``executor.execute`` span for that key.

Spans stay in memory; :func:`flush` appends them to
``<$PERFBENCH_SPANS>/spans-<pid>.jsonl``.  Workers flush after every
task, the server once when it exits.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time

SPANS_ENV = "PERFBENCH_SPANS"

_request = contextvars.ContextVar("perfbench_request", default=None)
_parent = contextvars.ContextVar("perfbench_parent", default=None)
_active = contextvars.ContextVar("perfbench_active", default=frozenset())
_spans: list[tuple] = []
_ids = itertools.count(1)
_flush_lock = threading.Lock()


def _span_id() -> int:
    return os.getpid() * 1_000_000_000 + next(_ids)


def wrap(fn, name, *, group=None, extra=None):
    """Timing wrapper for a plain function or method.

    ``group`` suppresses nested spans of the same group (a subclass
    ``step_many`` calling its base, ``canonical_json`` calling
    ``to_dict``), so only the outermost call is recorded.  ``extra`` maps
    ``(args, kwargs, result)`` to a JSON-able annotation.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        active = _active.get()
        if group is not None and group in active:
            return fn(*args, **kwargs)
        sid = _span_id()
        parent = _parent.get()
        tokens = [_parent.set(sid)]
        if group is not None:
            tokens.append(_active.set(active | {group}))
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            for token in reversed(tokens):
                token.var.reset(token)
        note = extra(args, kwargs, result) if extra is not None else None
        _spans.append((name, _request.get(), sid, parent, start, end, note))
        return result

    return wrapper


def wrap_async(fn, name, *, extra=None, request_from=None):
    """Timing wrapper for a coroutine function.

    ``request_from(args)`` returns the request ID to set for this call
    and everything it awaits.  It is deliberately left set afterwards: the
    connection loop encodes the response after ``_dispatch`` returns, in
    the same task, and that span belongs to the same request.
    """

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if request_from is not None:
            _request.set(request_from(args))
        sid = _span_id()
        parent = _parent.get()
        token = _parent.set(sid)
        start = time.monotonic()
        try:
            result = await fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            _parent.reset(token)
        note = extra(args, kwargs, result) if extra is not None else None
        _spans.append((name, _request.get(), sid, parent, start, end, note))
        return result

    return wrapper


def set_request(request_id) -> None:
    """Attribute the spans that follow (in this context) to ``request_id``."""
    _request.set(request_id)


def mark(name, note=None) -> None:
    """A zero-length span: counts an event under the current request."""
    now = time.monotonic()
    _spans.append((name, _request.get(), _span_id(), _parent.get(), now, now, note))


def flush() -> None:
    """Append the buffered spans to this process's span file."""
    directory = os.environ.get(SPANS_ENV)
    if not directory:
        return
    with _flush_lock:
        batch = list(_spans)
        del _spans[: len(batch)]
        if not batch:
            return
        path = os.path.join(directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in batch:
                handle.write(json.dumps(span) + "\n")


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _wrap_methods(base, method, name, group, extra=None):
    for cls in set(_subclasses(base)):
        if method in cls.__dict__:
            setattr(cls, method, wrap(cls.__dict__[method], name, group=group, extra=extra))


def _shape(args, _kwargs, _result):
    counts = args[1]
    return [int(counts.shape[0]), int(counts.shape[1])]


def _pvals_shape(args, _kwargs, _result):
    pvals = args[1]
    return [int(pvals.shape[0]), int(pvals.shape[1])]


def _rounds(_args, _kwargs, result):
    rounds = result.rounds
    return {"max": int(rounds.max()) if rounds.size else 0, "sum": int(rounds.sum())}


def install_engine() -> None:
    """Spans around the spec, topology, engine, sampler and trace layers."""
    import repro.core.dynamics as dynamics_module
    import repro.graphs.ensemble as graph_ensemble
    import repro.scenario as scenario
    from repro.core.dynamics import Dynamics
    from repro.core.metrics import TraceRecorder, TraceSet
    from repro.core.registry import TOPOLOGIES
    from repro.core.stopping import StoppingRule

    spec = scenario.ScenarioSpec
    spec.resolve = wrap(spec.resolve, "scenario.resolve", group="resolve")
    for method in ("to_dict", "to_json", "canonical_json"):
        setattr(spec, method, wrap(getattr(spec, method), "scenario.serialise", group="serialise"))
    TOPOLOGIES.build = wrap(TOPOLOGIES.build, "topology.build", group="topology")
    scenario.run_ensemble = wrap(scenario.run_ensemble, "engine.run", group="run", extra=_rounds)
    graph_ensemble.run_graph_ensemble = wrap(
        graph_ensemble.run_graph_ensemble, "engine.run", group="run", extra=_rounds
    )
    _wrap_methods(Dynamics, "step_many", "engine.step", "step", extra=_shape)
    _wrap_methods(StoppingRule, "met_many", "engine.stop", "stop")
    dynamics_module.multinomial_step_batch = wrap(
        dynamics_module.multinomial_step_batch,
        "samplers.multinomial",
        group="multinomial",
        extra=_pvals_shape,
    )
    TraceRecorder.observe = wrap(TraceRecorder.observe, "engine.record", group="record")
    TraceSet.digest = wrap(TraceSet.digest, "metrics.digest", group="digest")


def _first_task_flag():
    state = {"first": True}

    def note(args, _kwargs, _result):
        first, state["first"] = state["first"], False
        return {"key": args[0][0][0], "first": first}

    return note


def _traced_run_shard(run_shard):
    """``_run_shard`` under a ``key:`` request ID, flushed per task."""
    timed = wrap(run_shard, "executor.run_shard", extra=_first_task_flag())

    @functools.wraps(run_shard)
    def wrapper(shard):
        token = _request.set("key:" + shard[0][0])
        try:
            return timed(shard)
        finally:
            _request.reset(token)
            flush()

    return wrapper


def install_worker() -> None:
    """Worker-process wrappers: the engine layers plus ``_run_shard``.

    Runs at the top of the re-imported main module in a spawn child, so
    the pool's pickled reference ``repro.serve.executor._run_shard``
    resolves to the wrapper when the first task is unpickled.
    """
    import repro.serve.executor as executor

    install_engine()
    executor._run_shard = _traced_run_shard(executor._run_shard)


def _header_request(args):
    request = args[1]
    return request.headers.get("x-bench-id")


def _body_bytes(_args, _kwargs, result):
    return len(result) - (result.index(b"\r\n\r\n") + 4)


def _cache_hit(_args, _kwargs, result):
    return result is not None


def _execute_key(args, _kwargs, _result):
    return {"key": args[1]}


def install_service(workers: int) -> None:
    """Server-process wrappers: HTTP, app, cache and (in-process) engine.

    With ``workers == 0`` misses run ``_run_shard`` on threads of the
    server, so it is wrapped here; with a pool it runs in the workers
    (see :func:`install_worker`) and must stay the original object in the
    server, which pickles it by reference.
    """
    import asyncio

    import repro.service.app as app
    from repro.serve.cache import ResultCache

    install_engine()
    service = app.ScenarioService
    service._dispatch = wrap_async(
        service._dispatch, "app.dispatch", request_from=_header_request
    )
    service._prepare = wrap(service._prepare, "app.prepare")
    service._execute = wrap_async(service._execute, "executor.execute", extra=_execute_key)
    app.result_payload = wrap(app.result_payload, "app.payload")
    app.encode_response = wrap(app.encode_response, "http.encode", extra=_body_bytes)
    ResultCache.get = wrap(ResultCache.get, "cache.get", extra=_cache_hit)
    ResultCache.put = wrap(ResultCache.put, "cache.put")
    ResultCache.key_for = wrap(ResultCache.key_for, "scenario.key", group="key")
    if workers == 0:
        app._run_shard = _traced_run_shard(app._run_shard)

    to_thread = asyncio.to_thread

    async def counted_to_thread(func, /, *args, **kwargs):
        mark("app.hop")
        return await to_thread(func, *args, **kwargs)

    asyncio.to_thread = counted_to_thread
