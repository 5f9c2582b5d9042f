"""Tests for the network-facing service: HTTP framing, coalescing, sharding,
the load harness, and end-to-end bit-identity against the library."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro import ResultCache, ScenarioSpec, cache_key, simulate_ensemble
from repro.core.registry import TOPOLOGIES
from repro.service import (
    BackgroundServer,
    ScenarioService,
    ServiceClient,
    ServiceError,
    ShardMap,
)
from repro.service.app import LatencyHistogram
from repro.service.http import HttpError, encode_response
from repro.service.load import (
    SMOKE_ENTRIES,
    corpus_json,
    generate_corpus,
    run_load,
)


def spec_dict(**overrides) -> dict:
    fields = dict(
        dynamics="3-majority",
        initial="paper-biased",
        n=4_000,
        k=4,
        replicas=6,
        seed=0,
        stopping={"rule": "plurality-fraction", "fraction": 0.9},
        record={"metrics": ["bias"], "every": 1},
    )
    fields.update(overrides)
    return fields


@pytest.fixture(scope="module")
def server():
    service = ScenarioService(cache=ResultCache(None), workers=0)
    with BackgroundServer(service) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServiceClient("127.0.0.1", server.port) as c:
        yield c


class TestShardMap:
    def test_deterministic_and_total(self):
        ring = ShardMap(["a", "b", "c"])
        keys = [f"{i:064x}" for i in range(200)]
        owners = [ring.owner_of(k) for k in keys]
        assert owners == [ShardMap(["c", "a", "b"]).owner_of(k) for k in keys]
        assert set(owners) <= {"a", "b", "c"}

    def test_reasonable_balance(self):
        ring = ShardMap(["a", "b", "c", "d"])
        keys = [f"{i:064x}" for i in range(4_000)]
        counts = {}
        for key in keys:
            owner = ring.owner_of(key)
            counts[owner] = counts.get(owner, 0) + 1
        for node, count in counts.items():
            assert 0.5 * 1_000 < count < 2.0 * 1_000, (node, counts)

    def test_adding_a_node_moves_few_keys(self):
        keys = [f"{i:064x}" for i in range(2_000)]
        before = ShardMap(["a", "b", "c"])
        after = ShardMap(["a", "b", "c", "d"])
        moved = sum(
            1
            for k in keys
            if before.owner_of(k) != after.owner_of(k)
        )
        # Consistent hashing: ~1/4 of keys move to the new node, not ~3/4.
        assert moved < len(keys) * 0.45
        for k in keys:
            if before.owner_of(k) != after.owner_of(k):
                assert after.owner_of(k) == "d"

    def test_assignments_partition_keys(self):
        ring = ShardMap(["x", "y"])
        keys = [f"{i:064x}" for i in range(100)]
        counts = ring.assignments(keys)
        assert set(counts) == {"x", "y"}
        assert sum(counts.values()) == len(keys)

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            ShardMap([])


class TestLatencyHistogram:
    def test_quantiles_bracket_observations(self):
        hist = LatencyHistogram()
        for ms in (1, 2, 3, 50, 200):
            hist.observe(ms / 1000.0)
        stats = hist.to_dict()
        assert stats["count"] == 5
        assert 0 < stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
        assert stats["p99_ms"] >= 100  # the 200 ms sample dominates the tail

    def test_empty_histogram(self):
        stats = LatencyHistogram().to_dict()
        assert stats["count"] == 0
        assert stats["p50_ms"] is None


class TestHttpLayer:
    def test_encode_response_is_strict_json(self):
        raw = encode_response(200, {"x": 1.5})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200" in head
        assert b"content-length" in head.lower()
        assert json.loads(body) == {"x": 1.5}

    def test_encode_response_rejects_nan(self):
        with pytest.raises(ValueError):
            encode_response(200, {"x": float("nan")})

    def test_http_error_carries_status(self):
        exc = HttpError(413, "too big")
        assert exc.status == 413
        assert "too big" in str(exc)


class TestEndpoints:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["workers"] == 0
        assert payload["cache"] is True

    def test_simulate_cold_then_warm_bit_identical(self, client):
        spec = spec_dict(seed=11)
        cold = client.simulate(spec)
        warm = client.simulate(spec)
        assert cold["source"] == "run"
        assert warm["source"] == "cache"
        for field in ("key", "winners", "rounds", "converged", "plurality_color"):
            assert cold[field] == warm[field]
        assert cold["trace"]["digest"] == warm["trace"]["digest"]

    def test_simulate_agrees_with_direct_library_call(self, client):
        raw = spec_dict(seed=12)
        served = client.simulate(raw)
        direct = simulate_ensemble(ScenarioSpec.from_dict(raw))
        assert served["key"] == cache_key(ScenarioSpec.from_dict(raw))
        assert served["winners"] == [int(w) for w in direct.winners]
        assert served["rounds"] == [int(r) for r in direct.rounds]
        assert served["converged"] == [bool(c) for c in direct.converged]
        assert served["plurality_color"] == direct.plurality_color
        assert served["trace"]["digest"] == direct.trace.digest()
        assert served["spec"] == ScenarioSpec.from_dict(raw).to_dict()

    def test_result_lookup_roundtrip(self, client):
        spec = spec_dict(seed=13)
        posted = client.simulate(spec)
        fetched = client.result(posted["key"])
        assert fetched["source"] == "cache"
        assert fetched["trace"]["digest"] == posted["trace"]["digest"]
        assert fetched["winners"] == posted["winners"]

    def test_result_unknown_key_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.result("0" * 64)
        assert err.value.status == 404

    def test_result_malformed_key_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.result("not-a-key")
        assert err.value.status == 400

    def test_unknown_route_is_404(self, client):
        status, payload = client.request_json("GET", "/v1/nope")
        assert status == 404
        assert payload["error"]["type"] == "HttpError"

    def test_wrong_method_is_405(self, client):
        status, payload = client.request_json("GET", "/v1/simulate")
        assert status == 405
        assert "POST" in payload["error"]["message"]

    def test_malformed_json_body_is_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/simulate",
                body=b"{nope",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["type"] == "HttpError"

    def test_invalid_spec_is_400_with_envelope(self, client):
        with pytest.raises(ServiceError) as err:
            client.simulate(spec_dict(n=-1))
        assert err.value.status == 400
        assert err.value.body["error"]["type"] == "ValueError"

    def test_unseeded_spec_is_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.simulate(spec_dict(seed=None))
        assert err.value.status == 400
        assert "seed" in err.value.body["error"]["message"]

    def test_unknown_spec_key_is_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.simulate(spec_dict(bogus_field=1))
        assert err.value.status == 400

    def test_stats_shape(self, client):
        client.simulate(spec_dict(seed=14))
        stats = client.stats()
        assert stats["runs"] >= 1
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
        assert "POST /v1/simulate" in stats["requests"]
        per = stats["requests"]["POST /v1/simulate"]
        assert per["count"] >= 1
        assert per["p95_ms"] is not None
        assert stats["shards"]["nodes"] == ["local"]

    def test_batch_mixed_valid_invalid_and_dedup(self, client):
        good = spec_dict(seed=15)
        bad = spec_dict(seed=15, n="nope")
        report = client.batch([good, bad, good])
        assert report["requests"] == 3
        assert report["errors"] == 1
        assert report["unique"] == 1
        sources = [item["source"] for item in report["items"]]
        assert sources[0] in ("run", "cache")
        assert sources[1] == "error"
        assert sources[2] == "dedup"
        assert report["items"][1]["error"]["type"] == "ValueError"
        assert report["items"][0]["trace"]["digest"] == report["items"][2]["trace"]["digest"]

    def test_batch_scenarios_wrapper_accepted(self, client):
        report = client.batch({"scenarios": [spec_dict(seed=16)]})
        assert report["requests"] == 1
        assert report["items"][0]["error"] is None


class TestCoalescing:
    def test_concurrent_duplicates_run_once(self):
        service = ScenarioService(cache=ResultCache(None), workers=0)
        real_execute = service._execute

        async def slow_execute(key, spec):
            await asyncio.sleep(0.3)  # hold the in-flight window open
            return await real_execute(key, spec)

        service._execute = slow_execute
        spec = spec_dict(seed=17)
        fan_out = 4
        payloads: list[dict] = []
        errors: list[BaseException] = []

        def one_request():
            try:
                with ServiceClient("127.0.0.1", srv.port, timeout=120.0) as c:
                    payloads.append(c.simulate(spec))
            except BaseException as exc:  # noqa: BLE001 — surfaced via the assert
                errors.append(exc)

        with BackgroundServer(service) as srv:
            threads = [threading.Thread(target=one_request) for _ in range(fan_out)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            with ServiceClient("127.0.0.1", srv.port) as c:
                stats = c.stats()
        assert not errors, errors
        assert stats["runs"] == 1
        assert stats["coalesced"] == fan_out - 1
        sources = sorted(p["source"] for p in payloads)
        assert sources.count("coalesced") == fan_out - 1
        digests = {p["trace"]["digest"] for p in payloads}
        assert len(digests) == 1  # every follower saw the owner's bits

    def test_coalesced_failure_propagates_to_followers(self):
        service = ScenarioService(cache=ResultCache(None), workers=0)

        async def exploding_execute(key, spec):
            await asyncio.sleep(0.2)
            raise RuntimeError("engine exploded")

        service._execute = exploding_execute
        spec = spec_dict(seed=18)
        statuses: list[int] = []

        def one_request():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                try:
                    c.simulate(spec)
                    statuses.append(200)
                except ServiceError as exc:
                    statuses.append(exc.status)

        with BackgroundServer(service) as srv:
            threads = [threading.Thread(target=one_request) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert statuses == [500, 500, 500]


class TestProcessPoolWorkers:
    def test_workers_pool_matches_inline(self, tmp_path):
        spec = spec_dict(seed=19, n=2_000, replicas=4)
        inline = ScenarioService(cache=ResultCache(None), workers=0)
        pooled = ScenarioService(cache=ResultCache(None), workers=1)
        with BackgroundServer(inline) as a, BackgroundServer(pooled) as b:
            with ServiceClient("127.0.0.1", a.port) as ca, ServiceClient(
                "127.0.0.1", b.port
            ) as cb:
                left = ca.simulate(spec)
                right = cb.simulate(spec)
        assert left["key"] == right["key"]
        assert left["winners"] == right["winners"]
        assert left["trace"]["digest"] == right["trace"]["digest"]


class TestShardRouting:
    def test_remote_owner_still_served_but_counted(self):
        spec = spec_dict(seed=20)
        key = cache_key(ScenarioSpec.from_dict(spec))
        ring = ShardMap(["local", "other"])
        owner = ring.owner_of(key)
        service = ScenarioService(
            cache=ResultCache(None),
            workers=0,
            shards=["local", "other"],
            shard_self="local",
        )
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                payload = c.simulate(spec)
                stats = c.stats()
        assert payload["shard"] == owner
        expected_remote = 1 if owner != "local" else 0
        assert stats["remote_shard_requests"] == expected_remote


class TestCorpus:
    def test_generation_is_deterministic(self):
        a = corpus_json(seed=0, unique=12, duplicates=3)
        b = corpus_json(seed=0, unique=12, duplicates=3)
        assert a == b
        assert corpus_json(seed=1, unique=12, duplicates=3) != a

    def test_entries_are_valid_specs(self):
        entries = generate_corpus(seed=0, unique=8, duplicates=2)
        assert len(entries) == 10
        for entry in entries:
            spec = ScenarioSpec.from_dict(entry)
            assert spec.seed is not None
            spec.validate()

    def test_committed_corpus_matches_generator(self):
        committed = (
            __import__("pathlib").Path(__file__).resolve().parents[1]
            / "benchmarks"
            / "load"
            / "corpus.json"
        )
        assert committed.exists(), "benchmarks/load/corpus.json is committed"
        assert committed.read_text() == corpus_json()


class TestLoadDriver:
    def test_run_load_smoke_replays_identically(self, server):
        specs = generate_corpus(seed=0, unique=4, duplicates=2)[:SMOKE_ENTRIES]
        report = asyncio.run(
            run_load("127.0.0.1", server.port, specs, concurrency=2)
        )
        assert report["health"]["status"] == "ok"
        assert report["replay_identical"] is True
        phases = report["phases"]
        assert phases["cold"]["requests"] == len(specs)
        assert phases["warm"]["requests"] == len(specs)
        assert phases["warm"]["sources"].get("cache", 0) + phases["warm"][
            "sources"
        ].get("coalesced", 0) == len(specs)
        assert phases["lookup"]["requests"] == report["unique_keys"]
        for phase in phases.values():
            latency = phase["latency_ms"]
            assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]


class TestValidationMemo:
    def test_validate_runs_once_per_unique_spec(self, monkeypatch):
        # Validation builds the initial configuration (it grows with n and
        # k); the warm path must not re-pay it for a spec already seen
        # (app._prepare).
        calls: list[int] = []
        real_validate = ScenarioSpec.validate

        def counting_validate(self):
            calls.append(self.seed)
            return real_validate(self)

        monkeypatch.setattr(ScenarioSpec, "validate", counting_validate)
        service = ScenarioService(cache=ResultCache(None), workers=0)
        entry = spec_dict(seed=30)
        for _ in range(3):
            spec, error = service._prepare(entry)
            assert error is None and spec is not None
        assert calls == [30]
        other = spec_dict(seed=31)
        service._prepare(other)
        assert calls == [30, 31]

    def test_invalid_specs_are_not_memoised(self):
        service = ScenarioService(cache=ResultCache(None), workers=0)
        bad = spec_dict(dynamics="no-such-dynamics")
        for _ in range(2):
            spec, error = service._prepare(bad)
            assert spec is None
            assert error["type"] in ("KeyError", "ValueError")
        assert len(service._validated) == 0


class TestTopologyBuiltOnce:
    """A graph miss builds its topology once, in the run: validation never does."""

    @staticmethod
    def _count_builds(monkeypatch) -> list[str]:
        builds: list[str] = []
        real_build = TOPOLOGIES.build

        def counting_build(name, *args, **params):
            builds.append(name)
            return real_build(name, *args, **params)

        monkeypatch.setattr(TOPOLOGIES, "build", counting_build)
        return builds

    @staticmethod
    def _graph_spec(seed: int) -> dict:
        return spec_dict(
            n=1_000, k=3, topology="random-regular", topology_params={"d": 8, "seed": seed}
        )

    def test_cold_miss_builds_once(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv, ServiceClient("127.0.0.1", srv.port) as c:
            payload = c.simulate(self._graph_spec(1))
        assert payload["source"] == "run"
        assert builds == ["random-regular"]

    def test_coalesced_duplicate_pair_builds_once(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        service = ScenarioService(cache=ResultCache(None), workers=0)
        real_execute = service._execute

        async def slow_execute(key, spec):
            await asyncio.sleep(0.3)  # hold the in-flight window open
            return await real_execute(key, spec)

        service._execute = slow_execute
        sources: list[str] = []

        def one_request():
            with ServiceClient("127.0.0.1", srv.port, timeout=120.0) as c:
                sources.append(c.simulate(self._graph_spec(2))["source"])

        with BackgroundServer(service) as srv:
            threads = [threading.Thread(target=one_request) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert sorted(sources) == ["coalesced", "run"]
        assert builds == ["random-regular"]


class TestServiceResilience:
    """Deadlines, backpressure, drain, worker recovery — under injected faults."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        from repro import faults

        faults.disarm()
        yield
        faults.disarm()

    def test_injected_owner_crash_rejects_all_followers_same_envelope(self):
        # Every attempt crashes → bounded retries exhaust → the owner AND
        # every coalesced follower get the same 500 envelope, and the
        # in-flight table is left clean.
        from repro import faults

        service = ScenarioService(cache=ResultCache(None), workers=0, worker_attempts=2)
        real_execute = service._execute

        async def slow_then_real(key, spec):
            await asyncio.sleep(0.3)  # hold the coalescing window open
            return await real_execute(key, spec)

        service._execute = slow_then_real
        faults.arm({"rules": [{"point": "executor.worker-crash", "probability": 1.0}]})
        spec = spec_dict(seed=41)
        outcomes: list[tuple[int, dict]] = []

        def one_request():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                try:
                    c.simulate(spec)
                    outcomes.append((200, {}))
                except ServiceError as exc:
                    outcomes.append((exc.status, exc.body.get("error", {})))

        with BackgroundServer(service) as srv:
            threads = [threading.Thread(target=one_request) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        statuses = sorted(status for status, _ in outcomes)
        assert statuses == [500, 500, 500]
        envelopes = {json.dumps(envelope, sort_keys=True) for _, envelope in outcomes}
        assert len(envelopes) == 1  # followers see the owner's exact envelope
        assert outcomes[0][1]["type"] == "WorkerPoolError"
        assert service._inflight == {}

    def test_worker_crash_recovers_transparently(self):
        # A sub-certain crash probability: retries absorb every crash and
        # the client never sees a failure.
        from repro import faults

        faults.arm(
            {"seed": 11, "rules": [{"point": "executor.worker-crash", "probability": 0.5}]}
        )
        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                payloads = [c.simulate(spec_dict(seed=s)) for s in range(6)]
        assert all(p["source"] == "run" for p in payloads)
        assert service.worker_retries > 0  # the plan did fire

    def test_config_deadline_yields_504(self):
        service = ScenarioService(
            cache=ResultCache(None), workers=0, deadline_seconds=0.15
        )

        async def stuck_execute(key, spec):
            await asyncio.sleep(30)

        service._execute = stuck_execute
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                with pytest.raises(ServiceError) as err:
                    c.simulate(spec_dict(seed=42))
        assert err.value.status == 504
        assert err.value.body["error"]["type"] == "DeadlineExceeded"
        assert service.deadline_hits == 1
        assert service._inflight == {}

    def test_header_deadline_overrides_config(self):
        import http.client

        service = ScenarioService(cache=ResultCache(None), workers=0)

        async def stuck_execute(key, spec):
            await asyncio.sleep(30)

        service._execute = stuck_execute
        with BackgroundServer(service) as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=60.0)
            try:
                conn.request(
                    "POST",
                    "/v1/simulate",
                    body=json.dumps(spec_dict(seed=43)),
                    headers={
                        "Content-Type": "application/json",
                        "x-deadline-ms": "100",
                    },
                )
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
        assert response.status == 504
        assert body["error"]["type"] == "DeadlineExceeded"

    def test_invalid_deadline_header_is_400(self):
        import http.client

        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30.0)
            try:
                conn.request(
                    "POST",
                    "/v1/simulate",
                    body=json.dumps(spec_dict(seed=44)),
                    headers={"Content-Type": "application/json", "x-deadline-ms": "nope"},
                )
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
        assert response.status == 400

    def test_owner_deadline_rejects_followers_with_504(self):
        # The owner carries a short x-deadline-ms; the followers have no
        # deadline of their own.  When the owner's budget expires, the
        # shared future is cancelled and the followers must see a typed
        # OwnerCancelled 504 — not hang on work nobody is running.
        import http.client

        service = ScenarioService(cache=ResultCache(None), workers=0)
        started = threading.Event()

        async def stuck_execute(key, spec):
            started.set()
            await asyncio.sleep(30)

        service._execute = stuck_execute
        spec = spec_dict(seed=45)
        owner_result: list[tuple[int, str]] = []
        follower_results: list[tuple[int, str]] = []

        def owner():
            conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=60.0)
            try:
                conn.request(
                    "POST",
                    "/v1/simulate",
                    body=json.dumps(spec),
                    headers={
                        "Content-Type": "application/json",
                        "x-deadline-ms": "300",
                    },
                )
                response = conn.getresponse()
                body = json.loads(response.read())
                owner_result.append((response.status, body["error"]["type"]))
            finally:
                conn.close()

        def follower():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                try:
                    c.simulate(spec)
                    follower_results.append((200, ""))
                except ServiceError as exc:
                    follower_results.append(
                        (exc.status, exc.body["error"]["type"])
                    )

        with BackgroundServer(service) as srv:
            owner_thread = threading.Thread(target=owner)
            owner_thread.start()
            started.wait(timeout=10)  # the owner holds the in-flight entry
            followers = [threading.Thread(target=follower) for _ in range(2)]
            for t in followers:
                t.start()
            owner_thread.join(timeout=60)
            for t in followers:
                t.join(timeout=60)
        assert owner_result == [(504, "DeadlineExceeded")]
        assert follower_results == [(504, "OwnerCancelled")] * 2
        assert service._inflight == {}

    def test_backpressure_sheds_with_429_and_retry_after(self):
        service = ScenarioService(cache=ResultCache(None), workers=0, max_in_flight=1)
        release = asyncio.Event()
        real_execute = service._execute

        occupied = threading.Event()

        async def gated_execute(key, spec):
            occupied.set()  # the slot is genuinely taken once we get here
            await release.wait()
            return await real_execute(key, spec)

        service._execute = gated_execute
        shed_status: list[int] = []
        retry_after: list[float | None] = []

        def occupant():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                c.simulate(spec_dict(seed=46))

        with BackgroundServer(service) as srv:
            thread = threading.Thread(target=occupant)
            thread.start()
            occupied.wait(timeout=10)
            deadline = time.perf_counter() + 10
            with ServiceClient("127.0.0.1", srv.port, timeout=30.0) as c:
                while time.perf_counter() < deadline:
                    try:
                        c.simulate(spec_dict(seed=47))
                    except ServiceError as exc:
                        shed_status.append(exc.status)
                        retry_after.append(c.last_retry_after)
                        break
                    time.sleep(0.01)
            srv._loop.call_soon_threadsafe(release.set)
            thread.join(timeout=60)
        assert shed_status == [429]
        assert retry_after == [1.0]
        assert service.shed >= 1

    def test_drain_rejects_new_work_finishes_in_flight(self):
        service = ScenarioService(cache=ResultCache(None), workers=0)
        started = threading.Event()
        real_execute = service._execute

        async def slow_execute(key, spec):
            started.set()
            await asyncio.sleep(0.5)
            return await real_execute(key, spec)

        service._execute = slow_execute
        results: list[dict] = []

        def in_flight_request():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                results.append(c.simulate(spec_dict(seed=48)))

        with BackgroundServer(service) as srv:
            port = srv.port
            thread = threading.Thread(target=in_flight_request)
            thread.start()
            started.wait(timeout=10)
            # Pre-open a keep-alive connection BEFORE the listener closes:
            # it survives into the drain and must get 503 for new work.
            survivor = ServiceClient("127.0.0.1", port, timeout=30.0)
            survivor.health()
            future = asyncio.run_coroutine_threadsafe(service.drain(10.0), srv._loop)
            time.sleep(0.05)  # drain has closed the listener by now
            try:
                survivor.simulate(spec_dict(seed=49))
                draining_status = 200
            except ServiceError as exc:
                draining_status = exc.status
                draining_type = exc.body["error"]["type"]
            finally:
                survivor.close()
            drained = future.result(timeout=30)
            thread.join(timeout=60)
        assert draining_status == 503
        assert draining_type == "Draining"
        assert drained is True
        assert results and results[0]["source"] == "run"  # in-flight work finished

    def test_slow_response_fault_delays_but_succeeds(self):
        from repro import faults

        faults.arm(
            {
                "rules": [
                    {
                        "point": "service.slow-response",
                        "nth": 1,
                        "times": 1,
                        "params": {"seconds": 0.3},
                    }
                ]
            }
        )
        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                start = time.perf_counter()
                payload = c.simulate(spec_dict(seed=50))
                elapsed = time.perf_counter() - start
        assert payload["source"] == "run"
        assert elapsed >= 0.3

    def test_stats_surface_resilience_counters(self, client):
        stats = client.stats()
        for field in (
            "shed",
            "deadline_hits",
            "worker_retries",
            "dropped_connections",
            "draining",
            "limits",
            "faults",
        ):
            assert field in stats
        assert stats["faults"] is None  # no plan armed on the shared server


def _post_once(port: int, body: dict) -> tuple[int, dict]:
    """One POST on its own connection, never resent (unlike ServiceClient)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request(
            "POST",
            "/v1/simulate",
            json.dumps(body),
            {"Content-Type": "application/json", "Connection": "close"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestWorkerPoolResilience:
    """Recovery on a real spawned pool (``workers=1``), not in-process threads."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        from repro import faults

        faults.disarm()
        yield
        faults.disarm()

    @pytest.mark.slow
    def test_stall_clock_starts_after_worker_start_up(self):
        # A fresh worker spends seconds on spawn and imports before its
        # first task; none of that may count against worker_timeout.
        service = ScenarioService(cache=ResultCache(None), workers=1, worker_timeout=1.0)
        with BackgroundServer(service) as srv:
            status, payload = _post_once(srv.port, spec_dict(seed=61))
        assert status == 200, payload
        assert payload["source"] == "run"
        assert service.worker_retries == 0

    @pytest.mark.slow
    def test_queued_misses_never_count_as_stalled(self, monkeypatch):
        # Five concurrent misses on one worker, each held 0.6 s by the
        # stall point: the last finishes ~3 s after submission, well past
        # worker_timeout, yet each ran for well under it.  Only running
        # time counts, so no task is mistaken for a stalled one.
        from repro import faults

        plan = {
            "rules": [
                {
                    "point": "executor.worker-stall",
                    "probability": 1.0,
                    "params": {"seconds": 0.6},
                }
            ]
        }
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(plan))
        service = ScenarioService(cache=ResultCache(None), workers=1, worker_timeout=2.0)
        statuses: list[object] = []

        def one_request(seed: int) -> None:
            try:
                statuses.append(_post_once(srv.port, spec_dict(seed=seed))[0])
            except Exception as exc:  # noqa: BLE001 — surfaced via the assert
                statuses.append(exc)

        with BackgroundServer(service) as srv:
            assert _post_once(srv.port, spec_dict(seed=80))[0] == 200  # warm pool
            threads = [
                threading.Thread(target=one_request, args=(seed,))
                for seed in range(81, 86)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert statuses == [200] * 5
        assert service.worker_retries == 0

    @pytest.mark.slow
    def test_respawn_never_cancels_sibling_requests(self, monkeypatch):
        # The worker's second task stalls and the pool is respawned while
        # four sibling requests wait for it.  Each of them must still get
        # its reply: a respawn may cost a sibling an attempt, never its
        # request (a cancelled task would leave the connection unanswered).
        from repro import faults

        plan = {
            "rules": [
                {"point": "executor.worker-stall", "nth": 2, "params": {"seconds": 6.0}}
            ]
        }
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(plan))
        service = ScenarioService(cache=ResultCache(None), workers=1, worker_timeout=2.0)
        outcomes: list[object] = []

        def one_request(seed: int) -> None:
            try:
                outcomes.append(_post_once(srv.port, spec_dict(seed=seed))[0])
            except Exception as exc:  # noqa: BLE001 — surfaced via the assert
                outcomes.append(exc)

        with BackgroundServer(service) as srv:
            assert _post_once(srv.port, spec_dict(seed=70))[0] == 200  # first task
            threads = [
                threading.Thread(target=one_request, args=(seed,))
                for seed in range(71, 76)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert outcomes == [200] * 5
        assert service.worker_retries >= 1  # the stall did fire
        assert service._inflight == {}


class TestClientResilience:
    """Reconnect-and-resend, typed unavailability, retry policy."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        from repro import faults

        faults.disarm()
        yield
        faults.disarm()

    def test_sync_client_resends_over_dropped_connection(self):
        from repro import faults
        from repro.service.client import ServiceUnavailable

        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                c.health()  # establish the keep-alive connection
                faults.arm(
                    {
                        "rules": [
                            {"point": "service.connection-drop", "nth": 1, "times": 1}
                        ]
                    }
                )
                payload = c.simulate(spec_dict(seed=51))  # dropped once, resent
        assert payload["source"] in ("run", "cache")
        assert service.dropped_connections == 1

    def test_async_connection_resends_over_dropped_connection(self):
        from repro import faults
        from repro.service.client import AsyncConnection

        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            port = srv.port

            async def scenario():
                conn = await AsyncConnection.open("127.0.0.1", port)
                try:
                    status, _ = await conn.request_json("GET", "/v1/health")
                    assert status == 200
                    faults.arm(
                        {
                            "rules": [
                                {
                                    "point": "service.connection-drop",
                                    "nth": 1,
                                    "times": 1,
                                }
                            ]
                        }
                    )
                    status, body = await conn.request_json(
                        "POST", "/v1/simulate", spec_dict(seed=52)
                    )
                    return status, body, conn.reconnects
                finally:
                    await conn.close()

            status, body, reconnects = asyncio.run(scenario())
        assert status == 200
        # The drop happens after dispatch, so the first attempt may have
        # already populated the cache — the resend is idempotent either way.
        assert body["source"] in ("run", "cache")
        assert reconnects == 1

    def test_unreachable_raises_typed_service_unavailable(self):
        import socket

        from repro.service.client import ServiceUnavailable

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        with ServiceClient("127.0.0.1", dead_port, timeout=2.0) as c:
            with pytest.raises(ServiceUnavailable):
                c.health()

    def test_retry_policy_recovers_from_shed(self):
        from repro.service.client import RetryPolicy

        service = ScenarioService(cache=ResultCache(None), workers=0, max_in_flight=1)
        release = asyncio.Event()
        occupied = threading.Event()
        real_execute = service._execute

        async def gated_execute(key, spec):
            occupied.set()
            await release.wait()
            return await real_execute(key, spec)

        service._execute = gated_execute

        def occupant():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                c.simulate(spec_dict(seed=53))

        with BackgroundServer(service) as srv:
            thread = threading.Thread(target=occupant)
            thread.start()
            occupied.wait(timeout=10)

            def releaser():
                time.sleep(0.4)
                srv._loop.call_soon_threadsafe(release.set)

            release_thread = threading.Thread(target=releaser)
            release_thread.start()
            retry_client = ServiceClient(
                "127.0.0.1",
                srv.port,
                timeout=60.0,
                retry=RetryPolicy(attempts=30, backoff_base=0.05, backoff_cap=0.2),
            )
            try:
                payload = retry_client.simulate(spec_dict(seed=54))
            finally:
                retry_client.close()
            release_thread.join(timeout=10)
            thread.join(timeout=60)
        assert payload["source"] == "run"
        assert retry_client.retried >= 1
        assert service.shed >= 1

    def test_retry_policy_validates(self):
        from repro.service.client import RetryPolicy

        with pytest.raises(ValueError, match="attempts must be >= 1"):
            RetryPolicy(attempts=0)
        policy = RetryPolicy(attempts=3, backoff_cap=0.5)
        assert policy.delay(0, retry_after=7.0) == 0.5  # capped
        assert 0 < policy.delay(5) <= 0.5 * 1.5
