"""Cluster router: parity, sticky routing, aggregation, failover."""

import http.client
import json
import re
import time
import urllib.parse

import pytest

from repro.models.jsas import CONFIG_1, PAPER_PARAMETERS
from repro.service import (
    AvailabilityService,
    ClusterConfig,
    ClusterServer,
    ServiceClient,
    ServiceConfig,
    cluster as cluster_module,
    idempotency_key,
    wire as wire_module,
)
from repro.service.errors import BadRequest, Overloaded, ServiceClientError


N_SHARDS = 2


@pytest.fixture(scope="module")
def router():
    config = ClusterConfig(
        port=0,
        n_shards=N_SHARDS,
        shard=ServiceConfig(port=0, workers=1, cache_size=64),
        health_interval_seconds=0.1,
    )
    with ClusterServer(config) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(router):
    with ServiceClient(router.url, timeout=60.0) as client:
        yield client


def wait_for_full_ring(router, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = router.cluster.cluster_status()
        if len(status["ring"]) == N_SHARDS and all(
            shard["alive"] for shard in status["shards"].values()
        ):
            return status
        time.sleep(0.1)
    raise AssertionError(f"ring never recovered: {status}")


class TestParity:
    def test_cluster_response_bit_identical_to_direct_solve(self, client):
        """Acceptance oracle: a routed response is byte-for-byte the
        library's fig7 Config 1 answer."""
        response = client.solve(n_instances=2, n_pairs=2)
        direct = CONFIG_1.solve(PAPER_PARAMETERS)
        assert response["availability"] == direct.availability
        assert (
            response["yearly_downtime_minutes"]
            == direct.yearly_downtime_minutes
        )
        assert response["mtbf_hours"] == direct.mtbf_hours
        assert (
            response["state_probabilities"]
            == direct.system.state_probabilities
        )
        assert response["bound_parameters"] == direct.bound_parameters


class TestRouting:
    def test_repeat_request_is_a_shard_local_cache_hit(self, client):
        """Consistent hashing sends the identical request back to the
        same shard, so the second call hits that shard's cache."""
        parameters = {"Tstart_long_as": 1.31}
        first = client.solve(parameters=parameters)
        second = client.solve(parameters=parameters)
        assert second["serving"]["cache"] == "hit"
        assert second["fingerprint"] == first["fingerprint"]

    def test_distinct_keys_spread_across_shards(self, router):
        documents = [
            {
                "path": "/v1/solve",
                "body": {"parameters": {"Tstart_long_as": 0.5 + 0.01 * i}},
            }
            for i in range(200)
        ]
        owners = {
            router.cluster.route(
                idempotency_key(doc["path"], doc["body"])
            )
            for doc in documents
        }
        assert len(owners) == N_SHARDS

    def test_router_key_matches_client_header(self, router, client):
        """The router hashes the client's Idempotency-Key verbatim, so
        client-side and router-side routing agree."""
        document = {"n_instances": 2, "n_pairs": 2}
        key = idempotency_key("/v1/solve", document)
        assert router.cluster.routing_key(
            "/v1/solve", document, key
        ) == key
        assert router.cluster.routing_key(
            "/v1/solve", document, None
        ) == key


class TestAggregation:
    def test_healthz_aggregates_every_shard(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert health["n_shards"] == N_SHARDS
        assert health["shards_healthy"] == N_SHARDS
        assert set(health["shards"]) == {
            f"shard-{i}" for i in range(N_SHARDS)
        }
        for shard_health in health["shards"].values():
            assert shard_health["status"] == "ok"
            assert "cache_entries" in shard_health

    def test_metrics_carry_per_shard_labels(self, client):
        client.solve(parameters={"Tstart_long_as": 1.41})
        text = client.metrics()
        for i in range(N_SHARDS):
            assert f'shard="shard-{i}"' in text
        assert 'shard="router"' in text
        assert "cluster_requests_total" in text
        assert "service_requests_total" in text

    def test_cluster_status_reports_ring_and_lifecycle(self, client):
        status = client.cluster_status()
        assert status["n_shards"] == N_SHARDS
        assert sorted(status["ring"]) == [
            f"shard-{i}" for i in range(N_SHARDS)
        ]
        for shard in status["shards"].values():
            assert shard["alive"] is True
            assert shard["pid"] is not None
            assert shard["generation"] >= 1


class TestHttpEdges:
    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("/v1/nope", {})
        assert excinfo.value.status == 404

    def test_get_unknown_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("/nope")
        assert excinfo.value.status == 404

    def test_chaos_disabled_by_default(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.chaos_status()
        assert excinfo.value.status == 404

    def test_kill_unknown_shard_rejected(self, router):
        with pytest.raises(BadRequest, match="unknown shard"):
            router.cluster.kill_shard("shard-99")


class TestPassThrough:
    def test_keyed_solve_runs_no_json_in_the_router(
        self, client, monkeypatch
    ):
        """A request carrying its Idempotency-Key is routed on the header
        and relayed as bytes: the router never parses or re-encodes it."""

        class NoJson:
            def __getattr__(self, name):
                raise AssertionError(f"router called json.{name}")

        monkeypatch.setattr(cluster_module, "json", NoJson())
        monkeypatch.setattr(wire_module, "json", NoJson())
        response = client.solve(
            n_instances=2, n_pairs=2, parameters={"Tstart_long_as": 1.77}
        )
        values = PAPER_PARAMETERS.to_dict()
        values["Tstart_long_as"] = 1.77
        assert response["availability"] == CONFIG_1.solve(
            values
        ).availability
        assert client.last_attempts == 1


# Router error paths --------------------------------------------------------
#
# The same bytes go to a one-shard router and straight to that shard;
# the router must answer exactly as the lone shard does.

MAX_BODY = 4096
#: ``n_pairs`` value the test shard sheds with 429 + ``Retry-After: 7``.
SHED_PAIRS = 99
KEYED = {"Idempotency-Key": "0" * 64}


def _shedding(handle_solve):
    def shed_marked(self, document):
        if isinstance(document, dict) and document.get("n_pairs") == SHED_PAIRS:
            raise Overloaded("queue full", retry_after_seconds=7.0)
        return handle_solve(self, document)

    return shed_marked


@pytest.fixture(scope="module")
def routed_and_lone():
    """``(router_url, shard_url)`` for a one-shard cluster.

    The shard is forked while its solve handler is patched to shed
    marked requests, so a real shard 429 is reproducible.
    """
    config = ClusterConfig(
        port=0,
        n_shards=1,
        shard=ServiceConfig(
            port=0, workers=1, cache_size=64, max_body_bytes=MAX_BODY
        ),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            AvailabilityService,
            "_handle_solve",
            _shedding(AvailabilityService._handle_solve),
        )
        srv = ClusterServer(config)
    with srv:
        port = srv.cluster.cluster_status()["shards"]["shard-0"]["port"]
        yield srv.url, f"http://127.0.0.1:{port}"


def exchange(url, path, body, headers):
    """POST raw ``body``; returns ``(status, relayed headers, body)``."""
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=60)
    try:
        conn.request(
            "POST",
            path,
            body=body,
            headers={"Content-Type": "application/json", **headers},
        )
        reply = conn.getresponse()
        relayed = {
            name: reply.headers.get(name)
            for name in ("Content-Type", "Retry-After")
        }
        return reply.status, relayed, reply.read()
    finally:
        conn.close()


def without_duration(body):
    assert b'"duration_ms": ' in body
    return re.sub(rb'"duration_ms": [^,}]+', b'"duration_ms": 0', body)


ERROR_CASES = {
    "invalid-json-keyed": ("/v1/solve", b"{not json", KEYED, 400),
    "invalid-json-unkeyed": ("/v1/solve", b"{not json", {}, 400),
    "non-object-keyed": ("/v1/solve", b"[1, 2]", KEYED, 400),
    "non-object-unkeyed": ("/v1/solve", b"[1, 2]", {}, 400),
    "oversized": ("/v1/solve", b" " * (MAX_BODY + 1), KEYED, 413),
    "unknown-path-keyed": ("/v1/nope", b"{}", KEYED, 404),
    "unknown-path-unkeyed": ("/v1/nope", b"{}", {}, 404),
    "shard-shed": (
        "/v1/solve",
        json.dumps({"n_pairs": SHED_PAIRS}).encode(),
        KEYED,
        429,
    ),
}


class TestRouterMatchesLoneShard:
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_error_answer_matches(self, routed_and_lone, case):
        path, body, headers, expected = ERROR_CASES[case]
        routed_url, shard_url = routed_and_lone
        routed = exchange(routed_url, path, body, headers)
        direct = exchange(shard_url, path, body, headers)
        assert routed[0] == direct[0] == expected
        assert routed[1] == direct[1]
        assert routed[2] == direct[2]
        assert "error" in json.loads(routed[2])
        if expected == 429:
            assert routed[1]["Retry-After"] == "7"

    @pytest.mark.parametrize(
        "path, document",
        [
            ("/v1/solve", {"parameters": {"Tstart_long_as": 1.23}}),
            # ~75 KB: one message larger than a loopback segment.
            ("/v1/sweep", {"points": 1000}),
        ],
    )
    def test_keyed_answer_identical_apart_from_duration(
        self, routed_and_lone, path, document
    ):
        routed_url, shard_url = routed_and_lone
        body = json.dumps(document).encode()
        headers = {"Idempotency-Key": idempotency_key(path, document)}
        # Warm the shard's cache so both answers below are hits.
        assert exchange(shard_url, path, body, headers)[0] == 200
        routed = exchange(routed_url, path, body, headers)
        direct = exchange(shard_url, path, body, headers)
        assert routed[0] == direct[0] == 200
        assert routed[1] == direct[1]
        assert without_duration(routed[2]) == without_duration(direct[2])
        assert json.loads(routed[2])["serving"]["cache"] == "hit"


class TestFailover:
    def test_owner_death_fails_over_and_readmits(self, router, client):
        """Kill the owning shard mid-traffic: the request must still
        return the bit-correct answer (routed to the ring successor)
        and the victim must be respawned and re-admitted."""
        wait_for_full_ring(router)
        parameters = {"Tstart_long_as": 2.17}
        document = {
            "n_instances": 2,
            "n_pairs": 2,
            "method": "auto",
            "abstraction": "mttf",
            "parameters": parameters,
        }
        owner = router.cluster.route(
            idempotency_key("/v1/solve", document)
        )
        before = router.cluster.cluster_status()["shards"][owner]
        router.cluster.kill_shard(owner)
        response = client.solve(parameters=parameters)
        values = PAPER_PARAMETERS.to_dict()
        values.update(parameters)
        assert response["availability"] == CONFIG_1.solve(
            values
        ).availability
        status = wait_for_full_ring(router)
        after = status["shards"][owner]
        assert after["respawns"] == before["respawns"] + 1
        assert after["generation"] == before["generation"] + 1
        assert after["pid"] != before["pid"]

    def test_survivor_keeps_serving_during_failover(self, router, client):
        """While one shard is down, keys owned by the survivor still
        answer normally."""
        wait_for_full_ring(router)
        # Find two parameter points owned by different shards.
        by_owner = {}
        for i in range(200):
            parameters = {"Tstart_long_as": 3.0 + 0.01 * i}
            document = {
                "n_instances": 2,
                "n_pairs": 2,
                "method": "auto",
                "abstraction": "mttf",
                "parameters": parameters,
            }
            owner = router.cluster.route(
                idempotency_key("/v1/solve", document)
            )
            by_owner.setdefault(owner, parameters)
            if len(by_owner) == N_SHARDS:
                break
        assert len(by_owner) == N_SHARDS
        victim, survivor = "shard-0", "shard-1"
        router.cluster.kill_shard(victim)
        response = client.solve(parameters=by_owner[survivor])
        assert isinstance(response["availability"], float)
        wait_for_full_ring(router)
