"""Per-layer metrics from the spans of one traced launch.

Only spans of the traced phase count (request IDs ``t-<index>``, and the
worker-side ``key:<key>`` spans of the keys those requests ran), except
where a metric says otherwise.  Times are means per call unless the name
says "per run"; the ``engine.*_ms``/``samplers.multinomial_ms`` times are
totals per engine run, so that ``engine.run_ms`` = ``engine.step_ms`` +
``samplers.multinomial_ms`` + ``engine.record_ms`` + ``engine.stop_ms`` +
``engine.loop_self_ms``.  A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

def read_spans(directory: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(directory)):
        if not name.startswith("spans-"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            for line in handle:
                name_, request, sid, parent, start, end, note = json.loads(line)
                spans.append(
                    {
                        "name": name_,
                        "request": request,
                        "id": sid,
                        "parent": parent,
                        "start": start,
                        "end": end,
                        "dur": end - start,
                        "note": note,
                    }
                )
    return spans


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[dict], *, requests: int, unique_keys: int, coalesced: int) -> dict:
    """Per-layer values from one launch's spans (see module docstring).

    ``requests``, ``unique_keys`` and ``coalesced`` are the client's
    counts for the traced phase.  Metrics that need more than spans
    (setup, load generator, overhead, retries, bytes on disk) are filled
    in by the caller.
    """
    traced_keys = {
        s["note"]["key"]: s
        for s in spans
        if s["name"] == "executor.execute" and (s["request"] or "").startswith("t-")
    }

    def traced(span) -> bool:
        request = span["request"] or ""
        return request.startswith("t-") or (
            request.startswith("key:") and request[4:] in traced_keys
        )

    phase = [s for s in spans if traced(s)]
    by_name = defaultdict(list)
    for span in phase:
        by_name[span["name"]].append(span)
    children = defaultdict(float)
    for span in phase:
        if span["parent"] is not None:
            children[span["parent"]] += span["dur"]

    def mean_dur(name, scale):
        return _mean(s["dur"] for s in by_name[name]) * scale

    def total(name):
        return sum(s["dur"] for s in by_name[name])

    executes = len(by_name["executor.execute"])
    runs = by_name["engine.run"]
    # A miss is one trip through the worker tier; large-k calls the
    # engine directly, so there every engine run is one.
    misses = executes or len(runs)
    per_run = 1e3 / len(runs) if runs else 0.0
    steps = by_name["engine.step"]
    samplers = by_name["samplers.multinomial"]
    cells = sum(s["note"][0] * s["note"][1] for s in samplers)
    gets = by_name["cache.get"]
    shard_by_key = {s["request"][4:]: s for s in by_name["executor.run_shard"]}
    waits, returns = [], []
    for key, execute in traced_keys.items():
        shard = shard_by_key.get(key)
        if shard is not None:
            waits.append(shard["start"] - execute["start"])
            returns.append(execute["end"] - shard["end"])
    first_tasks = [
        s["dur"] for s in spans if s["name"] == "executor.run_shard" and s["note"]["first"]
    ]

    return {
        "http.encode_us": mean_dur("http.encode", 1e6),
        "http.body_bytes": _mean(s["note"] for s in by_name["http.encode"]),
        "app.dispatch_us": mean_dur("app.dispatch", 1e6),
        "app.dispatch_self_us": _mean(
            s["dur"] - children[s["id"]] for s in by_name["app.dispatch"]
        )
        * 1e6,
        "app.thread_hops": len(by_name["app.hop"]) / requests if requests else 0.0,
        "app.prepare_us": mean_dur("app.prepare", 1e6),
        "app.payload_us": mean_dur("app.payload", 1e6),
        "app.runs_per_key": executes / unique_keys if unique_keys else 0.0,
        "app.coalesced_share": coalesced / requests if requests else 0.0,
        "scenario.resolve_ms": mean_dur("scenario.resolve", 1e3),
        "scenario.resolves_per_miss": len(by_name["scenario.resolve"]) / misses if misses else 0.0,
        "scenario.key_us": mean_dur("scenario.key", 1e6),
        "scenario.serialisations_per_request": (
            len(by_name["scenario.serialise"]) / requests if requests else 0.0
        ),
        "topology.build_ms": mean_dur("topology.build", 1e3),
        "topology.builds_per_miss": len(by_name["topology.build"]) / misses if misses else 0.0,
        "cache.get_us": mean_dur("cache.get", 1e6),
        "cache.put_ms": mean_dur("cache.put", 1e3),
        "cache.hit_ratio": sum(1 for s in gets if s["note"]) / len(gets) if gets else 0.0,
        "executor.run_shard_ms": mean_dur("executor.run_shard", 1e3),
        "executor.queue_wait_ms": _mean(waits) * 1e3,
        "executor.return_ms": _mean(returns) * 1e3,
        "executor.first_task_ms": _mean(first_tasks) * 1e3,
        "engine.run_ms": mean_dur("engine.run", 1e3),
        "engine.step_ms": sum(s["dur"] - children[s["id"]] for s in steps) * per_run,
        "engine.record_ms": total("engine.record") * per_run,
        "engine.stop_ms": total("engine.stop") * per_run,
        "engine.loop_self_ms": sum(s["dur"] - children[s["id"]] for s in runs) * per_run,
        "engine.rounds": sum(s["note"]["max"] for s in runs),
        "engine.replica_rounds": sum(s["note"]["sum"] for s in runs),
        "engine.mean_width": _mean(s["note"][1] for s in steps),
        "samplers.multinomial_ms": total("samplers.multinomial") * per_run,
        "samplers.cells": cells,
        "samplers.ns_per_cell": total("samplers.multinomial") * 1e9 / cells if cells else 0.0,
        "metrics.digest_us": mean_dur("metrics.digest", 1e6),
    }
