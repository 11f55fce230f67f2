"""Tests for repro.serve: protocol codecs, admission control, the HTTP server.

The server tests run a real :class:`ServerThread` over a real
:class:`Runtime` and talk HTTP through urllib — the same path a client
takes — asserting the serving invariants: responses bit-identical to the
batch path, same-structure concurrency amortised into few symbolic
lowerings, admission control and error mapping.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import logging
import math
import re
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.runtime import Runtime, RuntimeConfig
from repro.serve import (
    AdmissionConfig,
    BadRequest,
    MicroBatcher,
    Overloaded,
    ServeConfig,
    ServerThread,
    csr_from_wire,
    csr_to_wire,
)
from repro.serve.server import (
    MAX_BODY_BYTES,
    MAX_ITERATIONS,
    MAX_TENANT_NAME,
    MAX_TRACKED_TENANTS,
)
from repro.spgemm.base import MultiplyContext
from repro.spgemm.rowproduct import RowProductSpGEMM

from .conftest import random_csr


def identical(x, y):
    return (
        x.shape == y.shape
        and x.indptr.tobytes() == y.indptr.tobytes()
        and x.indices.tobytes() == y.indices.tobytes()
        and x.data.tobytes() == y.data.tobytes()
    )


class TestProtocol:
    def test_wire_roundtrip_is_bit_identical(self, rng):
        m = random_csr(rng, 17, 23, 0.2)
        # Through actual JSON text, as on the wire.
        wire = json.loads(json.dumps(csr_to_wire(m)))
        back = csr_from_wire(wire)
        assert identical(m, back)

    def test_missing_keys_rejected(self):
        with pytest.raises(BadRequest, match="missing"):
            csr_from_wire({"shape": [1, 1], "indptr": [0, 0], "indices": []})

    def test_non_object_rejected(self):
        with pytest.raises(BadRequest, match="must be a JSON object"):
            csr_from_wire([1, 2, 3])

    def test_bad_shape_rejected(self):
        with pytest.raises(BadRequest, match="shape"):
            csr_from_wire(
                {"shape": [1], "indptr": [0, 0], "indices": [], "data": []}
            )

    def test_invalid_structure_rejected(self):
        with pytest.raises(BadRequest, match="not a valid CSR"):
            csr_from_wire(
                {"shape": [2, 2], "indptr": [0, 5, 1], "indices": [0], "data": [1.0]}
            )

    def test_non_numeric_arrays_rejected(self):
        with pytest.raises(BadRequest):
            csr_from_wire(
                {"shape": [1, 1], "indptr": [0, 1], "indices": ["x"], "data": [1.0]}
            )

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_data_rejected(self, bad):
        wire = json.loads(
            '{"shape": [1, 2], "indptr": [0, 2], "indices": [0, 1], '
            f'"data": [1.0, {bad}]}}'
        )
        with pytest.raises(BadRequest, match="finite"):
            csr_from_wire(wire)


class TestMicroBatcher:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_overload_rejected(self):
        batcher = MicroBatcher(AdmissionConfig(max_inflight=1, max_queue=0))
        release = threading.Event()

        async def scenario():
            first = asyncio.create_task(batcher.submit(lambda: release.wait(5)))
            await asyncio.sleep(0.1)  # first is admitted and running
            with pytest.raises(Overloaded):
                await batcher.submit(lambda: None)
            assert batcher.stats.rejected == 1
            release.set()
            assert (await first) is True

        try:
            self._run(scenario())
        finally:
            batcher.close()

    def test_request_timeout(self):
        batcher = MicroBatcher(AdmissionConfig(max_inflight=1, request_timeout=0.1))
        release = threading.Event()

        async def scenario():
            with pytest.raises(TimeoutError):
                await batcher.submit(lambda: release.wait(5))
            assert batcher.stats.timeouts == 1
            release.set()

        try:
            self._run(scenario())
        finally:
            batcher.close()

    @pytest.mark.parametrize("max_queue", [0, 1])
    def test_timed_out_request_holds_its_slot_until_its_work_finishes(self, max_queue):
        """A 504 does not free the depth slot of work still running or
        queued: the next request past the bound is shed, and the slot frees
        only when the executor finishes that work."""
        batcher = MicroBatcher(
            AdmissionConfig(max_inflight=1, max_queue=max_queue, request_timeout=0.05)
        )
        release = threading.Event()

        async def scenario():
            for queued in range(max_queue + 1):
                with pytest.raises(TimeoutError):
                    await batcher.submit(lambda: release.wait(5))
                assert batcher.queue_depth == queued
            with pytest.raises(Overloaded) as shed:
                await batcher.submit(lambda: None)
            assert shed.value.reason == "queue"
            assert not release.is_set() and batcher.queue_depth == max_queue
            release.set()
            deadline = time.monotonic() + 5
            while batcher.stats.completed < max_queue + 1 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            assert batcher.queue_depth == 0
            assert (await batcher.submit(lambda: 42)) == 42
            assert batcher.stats.timeouts == max_queue + 1
            assert batcher.stats.shed_queue == 1

        try:
            self._run(scenario())
        finally:
            release.set()
            batcher.close()

    def test_worker_exception_propagates(self):
        batcher = MicroBatcher(AdmissionConfig())

        def boom():
            raise ValueError("exploded")

        async def scenario():
            with pytest.raises(ValueError, match="exploded"):
                await batcher.submit(boom)

        try:
            self._run(scenario())
        finally:
            batcher.close()

    def test_invalid_admission_config_rejected(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionConfig(request_timeout=0)


@pytest.fixture
def serve_url():
    """A live server over a fresh runtime; yields its base URL."""
    runtime = Runtime(RuntimeConfig(plan_cache_entries=4))
    thread = ServerThread(
        runtime,
        ServeConfig(port=0, admission=AdmissionConfig(max_inflight=2)),
    )
    host, port = thread.start()
    yield f"http://{host}:{port}"
    thread.stop()
    assert runtime.closed


def _post(base, path, body, tenant=None):
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Tenant"] = tenant
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), headers=headers
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestServer:
    def test_healthz(self, serve_url):
        assert _get(serve_url, "/healthz") == (200, {"ok": True})

    def test_unknown_route_and_method(self, serve_url):
        status, body = _get(serve_url, "/nope")
        assert status == 404 and "error" in body
        status, body = _get(serve_url, "/v1/multiply")
        assert status == 405 and "error" in body

    def test_multiply_bit_identical_and_replayed(self, serve_url, rng):
        a = random_csr(rng, 30, 30, 0.15)
        b = random_csr(rng, 30, 30, 0.15)
        expected = RowProductSpGEMM().multiply(MultiplyContext.build(a, b))
        body = {"algorithm": "row-product", "a": csr_to_wire(a), "b": csr_to_wire(b)}
        status, first = _post(serve_url, "/v1/multiply", body)
        assert status == 200
        assert identical(csr_from_wire(first["result"]), expected)
        assert first["replayed"] is False
        status, second = _post(serve_url, "/v1/multiply", body)
        assert status == 200
        assert second["replayed"] is True
        assert identical(csr_from_wire(second["result"]), expected)

    def test_multiply_hashes_the_structure_once(self, serve_url, rng, monkeypatch):
        """The fingerprint the server passes down is the plan cache's: one
        structure hash per served multiply, cold or warm."""
        import repro.serve.server as server_mod
        from repro.plan import cache
        from repro.runtime import core

        calls = []
        fingerprint = cache.structure_fingerprint

        def counting(x, y):
            calls.append(1)
            return fingerprint(x, y)

        for module in (server_mod, core, cache):
            monkeypatch.setattr(module, "structure_fingerprint", counting)
        body = {"algorithm": "row-product", "a": csr_to_wire(random_csr(rng, 30, 30, 0.15))}
        for replayed in (False, True):
            calls.clear()
            status, reply = _post(serve_url, "/v1/multiply", body)
            assert (status, reply["replayed"]) == (200, replayed)
            assert len(calls) == 1

    def test_pagerank_hashes_two_structures_once(self, serve_url, rng, monkeypatch):
        """A served PageRank hashes only the loop's operands, once, whatever
        its iteration count."""
        import repro.serve.server as server_mod
        from repro.plan import cache
        from repro.runtime import core

        # ``repro.apps.pagerank`` is also the name of a function re-exported
        # by ``repro.apps``; import the module itself.
        pagerank_mod = importlib.import_module("repro.apps.pagerank")
        calls = []
        fingerprint = cache.structure_fingerprint

        def counting(x, y):
            calls.append(1)
            return fingerprint(x, y)

        for module in (server_mod, core, cache, pagerank_mod):
            monkeypatch.setattr(module, "structure_fingerprint", counting)
        adjacency = csr_to_wire(random_csr(rng, 30, 30, 0.15))
        for max_iter in (3, 12):
            calls.clear()
            status, reply = _post(
                serve_url,
                "/v1/pagerank",
                {"algorithm": "row-product", "adjacency": adjacency, "tol": 0.0,
                 "max_iter": max_iter},
            )
            assert (status, reply["iterations"]) == (200, max_iter)
            assert len(calls) == 1

    def test_concurrent_shared_structure_amortises(self, serve_url, rng):
        a = random_csr(rng, 30, 30, 0.15)
        body = {"algorithm": "row-product", "a": csr_to_wire(a)}
        expected = RowProductSpGEMM().multiply(MultiplyContext.build(a, a))
        outcomes = []
        errors = []

        def client():
            try:
                outcomes.append(_post(serve_url, "/v1/multiply", body))
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(outcomes) == 8
        for status, reply in outcomes:
            assert status == 200
            assert identical(csr_from_wire(reply["result"]), expected)
        _, stats = _get(serve_url, "/stats")
        # 8 same-structure requests, one symbolic lowering: amortised.
        assert stats["runtime"]["plan_cache"]["lowers"] == 1
        assert stats["requests_per_lowering"] > 1
        # Each request was dispatched alone.
        batching = stats["batching"]
        assert batching["batches"] == batching["batched_requests"] == batching["admitted"] == 8

    def test_pagerank_matches_runtime_path(self, serve_url, rng):
        adj = random_csr(rng, 35, 35, 0.1)
        with Runtime(RuntimeConfig()) as local:
            want = local.pagerank("row-product", adj)
        status, reply = _post(
            serve_url,
            "/v1/pagerank",
            {"algorithm": "row-product", "adjacency": csr_to_wire(adj)},
        )
        assert status == 200
        assert np.asarray(reply["scores"]).tobytes() == want.scores.tobytes()
        assert reply["iterations"] == want.iterations
        assert reply["converged"] == want.converged

    def test_reachability_and_similarity_routes(self, serve_url, rng):
        adj = random_csr(rng, 25, 25, 0.12)
        with Runtime(RuntimeConfig()) as local:
            want_reach = local.reachability("row-product", adj, 2)
            want_sim = local.similarity("row-product", adj, "jaccard")
        status, reply = _post(
            serve_url,
            "/v1/reachability",
            {"algorithm": "row-product", "adjacency": csr_to_wire(adj), "k": 2},
        )
        assert status == 200
        assert identical(csr_from_wire(reply["result"]), want_reach)
        status, reply = _post(
            serve_url,
            "/v1/similarity",
            {"algorithm": "row-product", "adjacency": csr_to_wire(adj),
             "metric": "jaccard"},
        )
        assert status == 200
        assert identical(csr_from_wire(reply["result"]), want_sim)

    def test_tenant_header_scopes_sessions(self, serve_url, rng):
        a = random_csr(rng, 20, 20, 0.2)
        body = {"algorithm": "row-product", "a": csr_to_wire(a)}
        assert _post(serve_url, "/v1/multiply", body, tenant="alice")[0] == 200
        assert _post(serve_url, "/v1/multiply", body, tenant="bob")[0] == 200
        _, stats = _get(serve_url, "/stats")
        tenants = stats["runtime"]["tenants"]
        assert tenants["alice"] == 1 and tenants["bob"] == 1
        # Separate per-tenant caches: same structure lowered once per tenant.
        assert stats["runtime"]["plan_cache"]["lowers"] == 2

    def test_tenant_cardinality_is_capped(self, serve_url, rng):
        """Names past MAX_TRACKED_TENANTS run as ``_other``: a client cannot
        grow the runtime's caches or either /stats tenant map without limit."""
        body = {"algorithm": "row-product", "a": csr_to_wire(random_csr(rng, 20, 20, 0.2))}
        for i in range(MAX_TRACKED_TENANTS + 6):
            assert _post(serve_url, "/v1/multiply", body, tenant=f"tenant-{i}")[0] == 200
        _, stats = _get(serve_url, "/stats")
        assert len(stats["runtime"]["tenants"]) == MAX_TRACKED_TENANTS + 1  # + "_other"
        assert stats["runtime"]["tenants"]["_other"] == 1
        assert stats["runtime"]["plan_cache"]["lowers"] == MAX_TRACKED_TENANTS + 1
        tenants = stats["serving"]["tenants"]
        assert len(tenants) == MAX_TRACKED_TENANTS + 1
        assert tenants["_other"]["requests"] == 6

    def test_tenant_name_longer_than_the_limit_is_400(self, serve_url, rng):
        """An over-long ``X-Tenant`` is refused before the body is parsed and
        leaves no tenant entry in /stats."""
        body = {"algorithm": "row-product", "a": csr_to_wire(random_csr(rng, 8, 8, 0.3))}
        status, reply = _post(serve_url, "/v1/multiply", body, tenant="t" * (MAX_TENANT_NAME + 1))
        assert status == 400 and "X-Tenant" in reply["error"]
        assert _post(serve_url, "/v1/multiply", body, tenant="t" * MAX_TENANT_NAME)[0] == 200
        _, stats = _get(serve_url, "/stats")
        assert list(stats["runtime"]["tenants"]) == ["t" * MAX_TENANT_NAME]
        assert list(stats["serving"]["tenants"]) == ["t" * MAX_TENANT_NAME]

    def test_error_mapping(self, serve_url, rng):
        a = random_csr(rng, 10, 10, 0.3)
        status, body = _post(
            serve_url, "/v1/multiply", {"algorithm": "nope", "a": csr_to_wire(a)}
        )
        assert status == 400 and "unknown algorithm" in body["error"]
        status, body = _post(serve_url, "/v1/multiply", {"algorithm": "row-product"})
        assert status == 400 and "missing required field" in body["error"]
        status, body = _post(
            serve_url,
            "/v1/pagerank",
            {"algorithm": "row-product", "adjacency": csr_to_wire(a),
             "damping": "high"},
        )
        assert status == 400 and "damping" in body["error"]

    def test_iteration_counts_above_the_limit_are_400(self, serve_url, rng):
        """``k`` and ``max_iter`` are bounded: admission charges one
        multiply whatever the count, so an unbounded one could pin an
        executor thread.  Refused at validation, nothing stays charged."""
        a = csr_to_wire(random_csr(rng, 10, 10, 0.3))
        for route, field in (("/v1/reachability", "k"), ("/v1/pagerank", "max_iter")):
            status, reply = _post(
                serve_url,
                route,
                {"algorithm": "row-product", "adjacency": a, field: MAX_ITERATIONS + 1},
            )
            assert status == 400, (route, reply)
            assert field in reply["error"] and str(MAX_ITERATIONS) in reply["error"]
        _, stats = _get(serve_url, "/stats")
        assert stats["serving"]["inflight_flops"] == 0

    def test_output_beyond_the_int64_key_space_is_400(self, serve_url):
        """A 3x1 by 1x2**62 product has 3 * 2**62 flat output keys."""
        a = {"shape": [3, 1], "indptr": [0, 1, 2, 3], "indices": [0, 0, 0], "data": [1.0] * 3}
        b = {"shape": [1, 2**62], "indptr": [0, 1], "indices": [0], "data": [1.0]}
        status, reply = _post(
            serve_url, "/v1/multiply", {"algorithm": "row-product", "a": a, "b": b}
        )
        assert status == 400 and "int64" in reply["error"], reply

    def test_malformed_json_is_400(self, serve_url):
        req = urllib.request.Request(
            serve_url + "/v1/multiply", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400

    def test_mismatched_operands_are_400(self, serve_url, rng):
        a = random_csr(rng, 10, 10, 0.3)
        c = random_csr(rng, 7, 7, 0.3)
        status, body = _post(
            serve_url,
            "/v1/multiply",
            {"algorithm": "row-product", "a": csr_to_wire(a), "b": csr_to_wire(c)},
        )
        assert status == 400 and "error" in body

    def test_non_finite_values_on_warm_structure_are_400(self, serve_url, rng):
        """A plan-cache hit skips operand validation, so the boundary must
        reject NaN/Infinity itself (else a 200 body carries a NaN token)."""
        a = random_csr(rng, 12, 12, 0.3)
        wire = csr_to_wire(a)
        body = {"algorithm": "row-product", "a": wire}
        status, _ = _post(serve_url, "/v1/multiply", body)
        assert status == 200  # the structure is now warm
        wire["data"][:3] = [float("nan"), float("inf"), 1.0]
        status, reply = _post(serve_url, "/v1/multiply", body)
        assert status == 400 and "finite" in reply["error"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_result_overflowing_to_infinity_is_422(self, serve_url):
        """Finite input whose product overflows: the body must stay strict
        JSON, so the server refuses it instead of writing ``Infinity``."""
        one = {"shape": [1, 1], "indptr": [0, 1], "indices": [0], "data": [1e200]}
        req = urllib.request.Request(
            serve_url + "/v1/multiply",
            data=json.dumps({"algorithm": "row-product", "a": one}).encode(),
            headers={"Content-Type": "application/json"},
        )

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        with excinfo.value as response:
            assert response.code == 422
            reply = json.loads(response.read(), parse_constant=reject)
        assert "finite" in reply["error"]

    def test_non_finite_scalars_are_400(self, serve_url, rng):
        a = random_csr(rng, 10, 10, 0.3)
        for field, value in (("max_iter", float("inf")), ("tol", float("nan"))):
            status, reply = _post(
                serve_url,
                "/v1/pagerank",
                {"algorithm": "row-product", "adjacency": csr_to_wire(a), field: value},
            )
            assert status == 400 and field in reply["error"], (field, reply)

    @pytest.mark.parametrize(
        "length, status", [(-1, b"400"), (MAX_BODY_BYTES + 1, b"413")]
    )
    def test_bad_content_length_refused_and_closed(self, serve_url, length, status):
        """Refused before any body byte is read, then the connection closes
        (the test's socket timeout fails it if the server waits instead)."""
        response = _raw_exchange(
            serve_url,
            b"POST /v1/multiply HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {length}\r\n\r\n".encode(),
        )
        assert response.startswith(b"HTTP/1.1 " + status), response[:80]
        assert b"Connection: close" in response

    def test_client_disconnecting_mid_body(self, serve_url, caplog):
        """A body cut short: a client that shuts down its sending side gets
        400 and a closed connection; one that resets the socket is dropped
        without an asyncio error.  The server stays healthy and nothing is
        left queued or charged to the flop ledger."""
        host, port = serve_url.removeprefix("http://").rsplit(":", 1)
        request = (
            b"POST /v1/multiply HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 1000\r\n\r\n" + b"x" * 10
        )
        with caplog.at_level(logging.WARNING):
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.sendall(request)
                sock.shutdown(socket.SHUT_WR)
                response = b"".join(iter(lambda: sock.recv(65536), b""))
            assert response.startswith(b"HTTP/1.1 400"), response[:80]
            assert b"Connection: close" in response

            sock = socket.create_connection((host, int(port)), timeout=10)
            sock.sendall(request)
            time.sleep(0.2)  # let the server start waiting for the body
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()  # linger 0: the close sends a reset

            assert _get(serve_url, "/healthz") == (200, {"ok": True})
            status, stats = _get(serve_url, "/stats")
            time.sleep(0.1)
        assert status == 200
        assert stats["serving"]["inflight_flops"] == 0
        assert stats["serving"]["queue_depth"] == 0
        assert [r.getMessage() for r in caplog.records if r.name.startswith("asyncio")] == []


def _raw_exchange(base, request: bytes) -> bytes:
    """Send raw bytes; read until the server closes the connection."""
    host, port = base.removeprefix("http://").rsplit(":", 1)
    chunks = []
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request)
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


#: /stats maps whose keys are data (route and tenant names), by Prometheus label.
_MAPS = {"routes": "route", "tenants": "tenant"}


def _get_text(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.status, resp.read().decode("utf-8")


def _post_full(base, path, body, tenant=None):
    """Like _post but also returns the response headers."""
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Tenant"] = tenant
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), headers=headers
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestCostAdmission:
    @pytest.fixture
    def budget_url(self):
        """A server with a tiny flop budget (sheds anything sizeable)."""
        runtime = Runtime(RuntimeConfig())
        thread = ServerThread(
            runtime,
            ServeConfig(
                port=0,
                admission=AdmissionConfig(max_inflight=2, max_inflight_flops=50),
            ),
        )
        host, port = thread.start()
        yield f"http://{host}:{port}"
        thread.stop()

    def test_oversized_request_shed_small_request_served(self, budget_url, rng):
        big = random_csr(rng, 40, 40, 0.3)  # flops far beyond the 50 budget
        status, body, headers = _post_full(
            budget_url,
            "/v1/multiply",
            {"algorithm": "row-product", "a": csr_to_wire(big)},
        )
        assert status == 503
        assert body["reason"] == "cost"
        assert int(headers["Retry-After"]) >= 1
        assert body["retry_after"] == int(headers["Retry-After"])
        small = random_csr(rng, 4, 4, 0.2)  # a handful of flops: admitted
        status, body, _ = _post_full(
            budget_url,
            "/v1/multiply",
            {"algorithm": "row-product", "a": csr_to_wire(small)},
        )
        assert status == 200
        _, stats = _get(budget_url, "/stats")
        assert stats["batching"]["shed_cost"] == 1
        assert stats["serving"]["routes"]["multiply"]["sheds"] == 1
        # The shed did not count as a served request.
        assert stats["serving"]["routes"]["multiply"]["requests"] == 1

    def test_zero_flop_request_always_admitted(self, budget_url, rng):
        empty = random_csr(rng, 30, 30, 0.0)  # no stored entries: 0 flops
        status, body, _ = _post_full(
            budget_url,
            "/v1/multiply",
            {"algorithm": "row-product", "a": csr_to_wire(empty)},
        )
        assert status == 200

    def test_estimate_overflow_falls_back_to_full_budget(
        self, budget_url, rng, monkeypatch
    ):
        import repro.serve.server as server_mod

        def explode(a, b):
            raise OverflowError("estimate out of range")

        monkeypatch.setattr(server_mod, "multiply_flops", explode)
        small = random_csr(rng, 5, 5, 0.2)
        # Admitted at full budget: the ledger is otherwise idle.
        status, body, _ = _post_full(
            budget_url,
            "/v1/multiply",
            {"algorithm": "row-product", "a": csr_to_wire(small)},
        )
        assert status == 200
        _, stats = _get(budget_url, "/stats")
        assert stats["serving"]["estimate_fallbacks"] == 1

    def test_retry_after_monotone_under_sustained_overload(self):
        batcher = MicroBatcher(
            AdmissionConfig(max_inflight=1, max_queue=8, max_inflight_flops=100)
        )
        release = threading.Event()

        async def scenario():
            # Prime the drain-rate estimate with one quick completed job...
            await batcher.submit(lambda: None, 10)
            await asyncio.sleep(0.05)  # let its drain callback land
            # ...then wedge the budget with work that never finishes.
            blocked = asyncio.get_running_loop().create_task(
                batcher.submit(lambda: release.wait(10), 95)
            )
            await asyncio.sleep(0.05)
            hints = []
            for _ in range(4):
                with pytest.raises(Overloaded) as excinfo:
                    await batcher.submit(lambda: None, 50)
                assert excinfo.value.reason == "cost"
                hints.append(excinfo.value.retry_after)
                await asyncio.sleep(0.05)
            # Nothing drained meanwhile, so the observed drain rate only
            # decays and the advised back-off can never shrink.
            assert hints == sorted(hints)
            assert batcher.stats.shed_cost == 4
            assert batcher.stats.retry_after_last == hints[-1]
            release.set()
            await blocked

        try:
            asyncio.run(scenario())
        finally:
            batcher.close()

    def test_ledger_drains_after_completion(self):
        batcher = MicroBatcher(AdmissionConfig(max_inflight=1, max_inflight_flops=100))

        async def scenario():
            await batcher.submit(lambda: None, 60)
            await asyncio.sleep(0.05)  # let the drain callback land
            assert batcher.inflight_flops == 0
            assert batcher.stats.drained_flops == 60
            assert batcher.stats.completed == 1
            # Budget is free again: the next 60-flop request is admitted.
            await batcher.submit(lambda: None, 60)

        try:
            asyncio.run(scenario())
        finally:
            batcher.close()


class TestServingObservability:
    def test_stats_reports_route_latency_and_tenants(self, serve_url, rng):
        a = random_csr(rng, 20, 20, 0.2)
        body = {"algorithm": "row-product", "a": csr_to_wire(a)}
        for _ in range(3):
            assert _post(serve_url, "/v1/multiply", body, tenant="alice")[0] == 200
        _, stats = _get(serve_url, "/stats")
        route = stats["serving"]["routes"]["multiply"]
        assert route["requests"] == 3
        assert route["errors"] == 0
        latency = route["latency_ms"]
        assert latency["count"] == 3
        assert latency["p50"] is not None and latency["p99"] >= latency["p50"]
        assert stats["serving"]["tenants"]["alice"]["requests"] == 3
        assert stats["serving"]["queue_depth"] == 0
        assert stats["serving"]["inflight_flops"] == 0

    def test_errors_counted_in_histograms(self, serve_url, rng):
        a = random_csr(rng, 10, 10, 0.3)
        status, _ = _post(
            serve_url, "/v1/multiply", {"algorithm": "nope", "a": csr_to_wire(a)}
        )
        assert status == 400
        _, stats = _get(serve_url, "/stats")
        route = stats["serving"]["routes"]["multiply"]
        assert route["requests"] == 1 and route["errors"] == 1

    def test_metrics_scrape_is_valid_prometheus(self, serve_url, rng):
        from repro.metrics.promtext import validate_exposition

        a = random_csr(rng, 15, 15, 0.2)
        body = {"algorithm": "row-product", "a": csr_to_wire(a)}
        assert _post(serve_url, "/v1/multiply", body)[0] == 200
        status, text = _get_text(serve_url, "/metrics")
        assert status == 200
        samples = validate_exposition(text)
        requests = {
            labels["route"]: value
            for labels, value in samples["repro_serving_routes_requests_total"]
        }
        assert requests["multiply"] == 1
        _, stats = _get(serve_url, "/stats")
        assert requests["multiply"] == (
            stats["serving"]["routes"]["multiply"]["requests"]
        )

    def test_stats_field_names_covers_live_payload(self, serve_url, rng):
        from repro.obs.counters import field_names
        from repro.serve.server import ServerStats

        a = random_csr(rng, 15, 15, 0.2)
        body = {"algorithm": "row-product", "a": csr_to_wire(a)}
        assert _post(serve_url, "/v1/multiply", body)[0] == 200
        _, stats = _get(serve_url, "/stats")
        live: set[str] = set()

        def walk(node):
            for key, value in node.items():
                live.add(key)
                if not isinstance(value, dict):
                    continue
                # Route and tenant names are data: walk only their values.
                for child in value.values() if key in _MAPS else [value]:
                    if isinstance(child, dict):
                        walk(child)

        walk(stats)
        assert live == field_names(ServerStats)

    def test_metrics_equal_stats_under_mixed_traffic(self, rng):
        """Two routes, two tenants, a 400 and a shed: every /metrics counter
        and gauge equals its /stats field, found by the documented naming
        rule, and each latency histogram's _count and _sum equal its route's
        or tenant's count and total."""
        from repro.metrics.promtext import validate_exposition

        admission = AdmissionConfig(max_inflight_flops=50)
        thread = ServerThread(Runtime(RuntimeConfig()), ServeConfig(port=0, admission=admission))
        host, port = thread.start()
        base = f"http://{host}:{port}"
        small = csr_to_wire(random_csr(rng, 4, 4, 0.3))
        big = csr_to_wire(random_csr(rng, 40, 40, 0.3))  # far over the flop budget
        try:
            for route, body, tenant, status in (
                ("/v1/multiply", {"algorithm": "row-product", "a": small}, "alice", 200),
                ("/v1/multiply", {"algorithm": "row-product", "a": small}, "alice", 200),
                ("/v1/reachability", {"algorithm": "row-product", "adjacency": small}, "bob", 200),
                ("/v1/multiply", {"algorithm": "nope", "a": small}, "bob", 400),
                ("/v1/multiply", {"algorithm": "row-product", "a": big}, "bob", 503),
            ):
                assert _post(base, route, body, tenant=tenant)[0] == status
            _, stats = _get(base, "/stats")
            _, text = _get_text(base, "/metrics")
        finally:
            thread.stop()
        samples = validate_exposition(text)

        expected = {}

        def walk(value, path, labels):
            if not isinstance(value, dict):
                expected[("_".join(["repro", *path]), frozenset(labels.items()))] = value
                return
            for key, child in value.items():
                if key in _MAPS:
                    for name, entry in child.items():
                        walk(entry, path + [key], {**labels, _MAPS[key]: name})
                elif key != "latency_ms":
                    walk(child, path + [key], labels)

        walk(stats, [], {})
        paths = {name for name, _ in expected}

        def stats_path(family):
            family = family.removesuffix("_total")
            return family if family in paths else re.sub(r"_(seconds|bytes|flops)$", "", family)

        actual = {
            (stats_path(family), frozenset(labels.items())): value
            for family, series in samples.items()
            if "_latency_seconds" not in family
            for labels, value in series
        }
        assert actual.keys() == expected.keys()
        for key, value in expected.items():
            assert math.isnan(actual[key]) if value is None else actual[key] == value, key

        for section, label in (("routes", "route"), ("tenants", "tenant")):
            family = f"repro_serving_{section}_latency_seconds"
            counts = {labels[label]: v for labels, v in samples[f"{family}_count"]}
            sums = {labels[label]: v for labels, v in samples[f"{family}_sum"]}
            for key, block in stats["serving"][section].items():
                latency = block["latency_ms"]
                assert counts[key] == latency["count"]
                total_ms = (latency["mean"] or 0.0) * latency["count"]
                assert sums[key] * 1e3 == pytest.approx(total_ms, rel=1e-12)

    def test_trace_dir_exports_slow_requests(self, rng, tmp_path):
        runtime = Runtime(RuntimeConfig())
        trace_dir = tmp_path / "traces"
        thread = ServerThread(
            runtime,
            ServeConfig(port=0, trace_dir=str(trace_dir), trace_slow_ms=0.0),
        )
        host, port = thread.start()
        try:
            a = random_csr(rng, 15, 15, 0.2)
            body = {"algorithm": "row-product", "a": csr_to_wire(a)}
            base = f"http://{host}:{port}"
            assert _post(base, "/v1/multiply", body)[0] == 200
            _, stats = _get(base, "/stats")
            assert stats["serving"]["traces_written"] == 1
        finally:
            thread.stop()
        files = sorted(trace_dir.glob("*.trace.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert "request[multiply]" in names
        # The full lifecycle made it into the span tree.
        for stage in ("request.parse", "request.validate", "request.admission",
                      "request.batch_wait", "request.session", "request.numeric",
                      "request.serialize"):
            assert stage in names, f"missing stage {stage}"
        assert payload["otherData"]["status"] == 200

    def test_response_encoded_once_inside_serialize_stage(self, rng, tmp_path, monkeypatch):
        import repro.serve.server as server_mod

        real = server_mod._encode_json
        calls = []

        def slow_encode(payload):
            calls.append(1)
            time.sleep(0.05)
            return real(payload)

        monkeypatch.setattr(server_mod, "_encode_json", slow_encode)
        trace_dir = tmp_path / "traces"
        thread = ServerThread(
            Runtime(RuntimeConfig()),
            ServeConfig(port=0, trace_dir=str(trace_dir), trace_slow_ms=0.0),
        )
        host, port = thread.start()
        try:
            a = random_csr(rng, 15, 15, 0.2)
            calls.clear()
            status, reply = _post(
                f"http://{host}:{port}", "/v1/multiply",
                {"algorithm": "row-product", "a": csr_to_wire(a)},
            )
            assert status == 200 and "result" in reply
            assert len(calls) == 1
        finally:
            thread.stop()
        (trace_file,) = trace_dir.glob("*.trace.json")
        events = json.loads(trace_file.read_text())["traceEvents"]
        serialize = next(e for e in events if e["name"] == "request.serialize")
        assert serialize["dur"] >= 50_000  # microseconds: the encode ran in the stage

    def test_histograms_deterministic_across_dispatch_modes(self, rng):
        """Every request is dispatched on arrival, the one dispatch mode: four
        requests give four requests and four latency samples, no errors or
        sheds, and the served results stay bit-identical to the batch path."""
        a = random_csr(rng, 30, 30, 0.15)
        b = random_csr(rng, 30, 30, 0.15)
        expected = RowProductSpGEMM().multiply(MultiplyContext.build(a, b))
        body = {"algorithm": "row-product", "a": csr_to_wire(a), "b": csr_to_wire(b)}
        thread = ServerThread(Runtime(RuntimeConfig()), ServeConfig(port=0))
        host, port = thread.start()
        try:
            base = f"http://{host}:{port}"
            for _ in range(4):
                status, reply = _post(base, "/v1/multiply", body)
                assert status == 200
                assert identical(csr_from_wire(reply["result"]), expected)
            _, stats = _get(base, "/stats")
        finally:
            thread.stop()
        route = stats["serving"]["routes"]["multiply"]
        counts = (
            route["requests"], route["errors"], route["sheds"], route["latency_ms"]["count"]
        )
        assert counts == (4, 0, 0, 4)


class TestServeShutdown:
    def test_thread_stop_closes_runtime_and_frees_port(self, rng):
        runtime = Runtime(RuntimeConfig())
        thread = ServerThread(runtime, ServeConfig(port=0))
        host, port = thread.start()
        a = random_csr(rng, 15, 15, 0.2)
        status, _ = _post(
            f"http://{host}:{port}", "/v1/multiply",
            {"algorithm": "row-product", "a": csr_to_wire(a)},
        )
        assert status == 200
        thread.stop()
        assert runtime.closed
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                urllib.request.urlopen(f"http://{host}:{port}/healthz", timeout=1)
            except urllib.error.URLError:
                break  # refused: listener is gone
            time.sleep(0.05)
        else:  # pragma: no cover
            pytest.fail("server still accepting after stop()")
