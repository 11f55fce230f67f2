"""``repro serve`` — multiply-as-a-service over a warm :class:`Runtime`.

A deliberately small asyncio HTTP/1.1 server (stdlib only: no frameworks)
exposing the numeric plane to concurrent callers:

===========================  ========================================================
route                        body
===========================  ========================================================
``GET /healthz``             — liveness probe
``GET /stats``               — runtime + admission + per-route serving counters
``GET /metrics``             — the same counters in Prometheus text format
``POST /v1/multiply``        ``{"algorithm", "a", "b"?}``
``POST /v1/pagerank``        ``{"algorithm", "adjacency", "damping"?, "tol"?, "max_iter"?}``
``POST /v1/reachability``    ``{"algorithm", "adjacency", "k"}``
``POST /v1/similarity``      ``{"algorithm", "adjacency", "metric"?}``
===========================  ========================================================

Matrices use the wire format of :mod:`repro.serve.protocol`; the optional
``X-Tenant`` header scopes requests to a tenant's plan caches (and hence
its recipe quota).  The first :data:`MAX_TRACKED_TENANTS` names a server
sees get their own caches and histograms; later ones share ``_other``.  A
name longer than :data:`MAX_TENANT_NAME` characters gets 400 and is
recorded nowhere.

Request lifecycle (each stage is a span on the request's
:class:`~repro.obs.serving.RequestTrace`)::

    accept → parse → validate → admission → batch_wait → session → numeric
           → serialize

``parse`` decodes the JSON body; ``validate`` rebuilds and checks the CSR
operands at the trust boundary; ``admission`` estimates the request's flop
cost (:func:`repro.plan.estimate.multiply_flops`) and checks it against the
``--max-inflight-flops`` budget; ``batch_wait`` is the wait for a free
executor thread (:mod:`repro.serve.batching` dispatches each admitted
request on arrival); ``session``/``numeric`` are recorded inside the
runtime (cache lookup, then the multiply itself, including any wait
behind a same-structure call, whose lowering the plan cache runs once);
``serialize`` encodes the JSON response body, once, so the stage
covers the whole encoding cost.  Responses are bit-identical to
the batch CLI path because both route through the same
:class:`~repro.runtime.Runtime`.

Every completed request lands in per-route and per-tenant streaming
histograms (:class:`~repro.obs.serving.ServingMetrics`) surfaced by
``/stats`` and ``/metrics``; with ``--trace-dir`` set, requests slower than
``--trace-slow-ms`` export their span tree as a Chrome trace file.

Errors: 400 malformed/unknown inputs, 404/405 bad route, 413 oversized
body, 422 a result that overflowed to a non-finite number, 503 shed by
admission (with a ``Retry-After`` header derived from the observed drain
rate), 504 per-request timeout, 500 anything else — always
``{"error": "..."}``.  Shed requests count in the ``sheds`` column only;
``requests``/``errors``/latency cover requests that reached a handler and
produced a result.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.counters import derived, exposition, gauge, section, snapshot
from repro.obs.serving import RequestTrace, ServingMetrics
from repro.plan.cache import structure_fingerprint
from repro.plan.estimate import multiply_flops
from repro.runtime import Runtime, RuntimeStats, lifecycle
from repro.serve.batching import AdmissionConfig, BatchStats, MicroBatcher, Overloaded
from repro.serve.protocol import (
    BadRequest,
    csr_from_wire,
    csr_to_wire,
    json_body,
    require,
    scalar,
)

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_ITERATIONS",
    "MAX_TENANT_NAME",
    "MAX_TRACKED_TENANTS",
    "ServeConfig",
    "Server",
    "ServerStats",
    "ServerThread",
    "run",
]

#: readuntil() bound for the header block; bodies are read by length.
_MAX_HEADER_BYTES = 1 << 20

#: Largest ``Content-Length`` the server reads (413 above it), so a client
#: cannot make it buffer unbounded input.  The value sits far above what
#: any repo tool sends (perfbench serve bodies are well under 1 MB) and
#: still admits about two million stored entries (~30 bytes each as JSON).
MAX_BODY_BYTES = 64 << 20

#: Largest ``k`` (``/v1/reachability``) and ``max_iter`` (``/v1/pagerank``)
#: a request may ask for (400 above it).  Admission charges one multiply's
#: flops whatever the iteration count, and a 504 does not stop the work, so
#: without a bound one request could hold an executor thread for days.
#: 50x pagerank's default of 200 iterations.
MAX_ITERATIONS = 10_000

#: Distinct ``X-Tenant`` names one server keeps apart; later names share
#: ``_other``.  Each name costs a plan cache per scheme and a ``/stats``
#: entry in two maps, so a client must not be able to create them without
#: limit.
MAX_TRACKED_TENANTS = 64

#: Longest ``X-Tenant`` name a server accepts (400 above it).  Each name is
#: repeated in two ``/stats`` maps and on every tenant histogram line of
#: ``/metrics``, so its length must be bounded as well as its count.
MAX_TENANT_NAME = 128

#: Most trace files one server writes into ``--trace-dir`` (slow requests
#: under sustained overload must not fill the disk).
TRACE_FILE_CAP = 128


class Unprocessable(Exception):
    """A valid request whose result JSON cannot carry (HTTP 422)."""


@dataclass(frozen=True)
class ServeConfig:
    """Where to listen, admission bounds, and trace sampling.

    ``trace_dir=None`` disables per-request trace export; otherwise any
    request slower than ``trace_slow_ms`` milliseconds writes its span tree
    to ``trace_dir`` (at most :data:`TRACE_FILE_CAP` files; set
    ``trace_slow_ms=0`` to sample every request).
    """

    host: str = "127.0.0.1"
    port: int = 8077
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    trace_dir: str | None = None
    trace_slow_ms: float = 250.0


class Server:
    """One listening socket over one runtime.  Single event loop; the
    numeric work runs on the batcher's thread pool."""

    def __init__(self, runtime: Runtime, config: ServeConfig | None = None) -> None:
        self.runtime = runtime
        self.config = config if config is not None else ServeConfig()
        self.batcher = MicroBatcher(self.config.admission)
        self.metrics = ServingMetrics()
        self._tenants: set[str] = set()
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=_MAX_HEADER_BYTES,
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        """Stop accepting, drain the executor, close the runtime."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.get_running_loop().run_in_executor(None, self.batcher.close)
        lifecycle.uninstall(self.runtime)

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    ConnectionResetError,
                ):
                    break
                try:
                    method, path, headers = _parse_head(head)
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    await _respond(writer, 400, {"error": "malformed HTTP request"})
                    break
                # Refuse bad lengths before reading a byte of the body, then
                # close: the unread body must not be parsed as the next head.
                if length < 0:
                    await _respond(writer, 400, {"error": "negative Content-Length"})
                    break
                if length > MAX_BODY_BYTES:
                    await _respond(
                        writer, 413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
                    )
                    break
                try:
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    await _respond(writer, 400, {"error": "malformed HTTP request"})
                    break
                status, payload, extra = await self._route(method, path, headers, body)
                keep_alive = headers.get("connection", "").lower() != "close"
                await _respond(
                    writer, status, payload, keep_alive=keep_alive, extra_headers=extra
                )
                if not keep_alive:
                    break
        except ConnectionResetError:  # pragma: no cover - client vanished
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _route(self, method: str, path: str, headers: dict, body: bytes):
        if path == "/healthz":
            return 200, {"ok": True}, {}
        if path == "/stats":
            return 200, snapshot(self.stats()), {}
        if path == "/metrics":
            return 200, exposition(self.stats()), {}
        handlers = {
            "/v1/multiply": ("multiply", self._multiply),
            "/v1/pagerank": ("pagerank", self._pagerank),
            "/v1/reachability": ("reachability", self._reachability),
            "/v1/similarity": ("similarity", self._similarity),
        }
        entry = handlers.get(path)
        if entry is None:
            return 404, {"error": f"no such route: {path}"}, {}
        route, handler = entry
        if method != "POST":
            return 405, {"error": f"{path} requires POST"}, {}
        name = headers.get("x-tenant", "default") or "default"
        if len(name) > MAX_TENANT_NAME:
            return 400, {"error": f"X-Tenant exceeds {MAX_TENANT_NAME} characters"}, {}
        tenant = self._tenant(name)
        trace = RequestTrace(route, tenant)
        extra: dict[str, str] = {}
        shed = False
        try:
            with trace.stage("parse", body_bytes=len(body)):
                parsed = json_body(body)
            status, payload = 200, await handler(parsed, tenant, trace)
        except (BadRequest, ReproError) as exc:
            status, payload = 400, {"error": str(exc)}
        except Unprocessable as exc:
            status, payload = 422, {"error": str(exc)}
        except Overloaded as exc:
            shed = True
            status = 503
            payload = {
                "error": str(exc),
                "reason": exc.reason,
                "retry_after": exc.retry_after,
            }
            extra["Retry-After"] = str(exc.retry_after)
        except TimeoutError as exc:
            status, payload = 504, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - last-resort guard
            status, payload = 500, {"error": f"internal error: {exc}"}
        trace.add(status=status)
        if shed:
            self.metrics.shed(route, tenant)
        else:
            self.metrics.observe(route, tenant, trace.elapsed(), status)
        self._maybe_export_trace(trace, status)
        return status, payload, extra

    def _tenant(self, name: str) -> str:
        """``name``, or ``_other`` once :data:`MAX_TRACKED_TENANTS` others
        have been seen.  Runs on the loop thread, which owns the set."""
        if name not in self._tenants:
            if len(self._tenants) >= MAX_TRACKED_TENANTS:
                return "_other"
            self._tenants.add(name)
        return name

    # -- request handlers ----------------------------------------------
    def _estimate_cost(self, a, b, trace) -> int:
        """Flop cost of ``a @ b`` for admission, at the trust boundary.

        An estimate too large for budget arithmetic (:class:`OverflowError`)
        falls back to the *whole* budget: the request is admitted only on an
        otherwise-idle ledger and serialises against everything else —
        conservative, counted in ``estimate_fallbacks``.
        """
        budget = self.config.admission.max_inflight_flops
        try:
            cost = multiply_flops(a, b)
        except OverflowError:
            self.metrics.estimate_fallbacks += 1
            cost = budget
        trace.add(estimated_flops=cost)
        return cost

    async def _multiply(self, body: dict, tenant: str, trace) -> bytes:
        with trace.stage("validate"):
            algorithm = str(require(body, "algorithm"))
            a = csr_from_wire(require(body, "a"), "a")
            b = csr_from_wire(body["b"], "b") if body.get("b") is not None else None
            fingerprint = structure_fingerprint(a, a if b is None else b)
        cost = self._estimate_cost(a, a if b is None else b, trace)
        outcome = await self.batcher.submit(
            lambda: self.runtime.multiply(
                algorithm, a, b, tenant=tenant, trace=trace, fingerprint=fingerprint
            ),
            cost,
            trace,
        )
        with trace.stage("serialize"):
            return _encode_json(
                {
                    "result": csr_to_wire(outcome.result),
                    "fingerprint": outcome.fingerprint,
                    "replayed": outcome.replayed,
                }
            )

    async def _pagerank(self, body: dict, tenant: str, trace) -> bytes:
        with trace.stage("validate"):
            algorithm = str(require(body, "algorithm"))
            adjacency = csr_from_wire(require(body, "adjacency"), "adjacency")
            damping = scalar(body, "damping", float, 0.85)
            tol = scalar(body, "tol", float, 1e-10)
            max_iter = _iterations(body, "max_iter", 200)
        cost = self._estimate_cost(adjacency, adjacency, trace)
        result = await self.batcher.submit(
            lambda: self.runtime.pagerank(
                algorithm,
                adjacency,
                damping=damping,
                tol=tol,
                max_iter=max_iter,
                tenant=tenant,
                trace=trace,
            ),
            cost,
            trace,
        )
        with trace.stage("serialize"):
            return _encode_json(
                {
                    "scores": result.scores.tolist(),
                    "iterations": result.iterations,
                    "residual": result.residual,
                    "converged": result.converged,
                }
            )

    async def _reachability(self, body: dict, tenant: str, trace) -> bytes:
        with trace.stage("validate"):
            algorithm = str(require(body, "algorithm"))
            adjacency = csr_from_wire(require(body, "adjacency"), "adjacency")
            k = _iterations(body, "k", 2)
        cost = self._estimate_cost(adjacency, adjacency, trace)
        result = await self.batcher.submit(
            lambda: self.runtime.reachability(
                algorithm, adjacency, k, tenant=tenant, trace=trace
            ),
            cost,
            trace,
        )
        with trace.stage("serialize"):
            return _encode_json({"result": csr_to_wire(result), "k": k})

    async def _similarity(self, body: dict, tenant: str, trace) -> bytes:
        with trace.stage("validate"):
            algorithm = str(require(body, "algorithm"))
            adjacency = csr_from_wire(require(body, "adjacency"), "adjacency")
            metric = str(body.get("metric", "common"))
        cost = self._estimate_cost(adjacency, adjacency, trace)
        result = await self.batcher.submit(
            lambda: self.runtime.similarity(
                algorithm, adjacency, metric, tenant=tenant, trace=trace
            ),
            cost,
            trace,
        )
        with trace.stage("serialize"):
            return _encode_json({"result": csr_to_wire(result), "metric": metric})

    # -- trace export ----------------------------------------------------
    def _maybe_export_trace(self, trace: RequestTrace, status: int) -> None:
        """Write the request's span tree when it qualifies as slow.

        Sampling is by latency (``>= trace_slow_ms``), capped at
        :data:`TRACE_FILE_CAP` files per server lifetime; export failures
        are swallowed — tracing must never fail a request.
        """
        directory = self.config.trace_dir
        if directory is None:
            return
        if trace.elapsed() * 1e3 < self.config.trace_slow_ms:
            return
        if self.metrics.traces_written >= TRACE_FILE_CAP:
            return
        name = f"request-{self.metrics.traces_written:04d}-{trace.route}.trace.json"
        try:
            os.makedirs(directory, exist_ok=True)
            trace.write(os.path.join(directory, name), meta={"status": status})
        except OSError:  # pragma: no cover - disk trouble must not 500
            return
        self.metrics.traces_written += 1

    # -- stats ----------------------------------------------------------
    def stats(self) -> ServerStats:
        """Read every counter set behind ``/stats`` and ``/metrics`` at once.

        The batcher's live gauges are copied into the serving section here,
        on the event-loop thread that owns both.
        """
        batching = self.batcher.stats
        serving = self.metrics
        serving.queue_depth = self.batcher.queue_depth
        serving.inflight_flops = self.batcher.inflight_flops
        return ServerStats(runtime=self.runtime.stats(), batching=batching, serving=serving)


@dataclass
class ServerStats:
    """The four sections of ``GET /stats``; ``GET /metrics`` renders the same."""

    runtime: RuntimeStats = section(RuntimeStats)
    batching: BatchStats = section(BatchStats)
    serving: ServingMetrics = section(ServingMetrics)

    @derived(gauge("Requests served per symbolic lowering paid; null before the first lowering."))
    def requests_per_lowering(self) -> float | None:
        """The serving thesis in one number (> 1 means amortisation works)."""
        lowers = self.runtime.plan_cache.lowers
        return self.runtime.requests / lowers if lowers else None


def _iterations(body: dict, key: str, default: int) -> int:
    """An iteration-count field, bounded by :data:`MAX_ITERATIONS`."""
    value = scalar(body, key, int, default)
    if value > MAX_ITERATIONS:
        raise BadRequest(f"{key!r} is {value}; the limit is {MAX_ITERATIONS}")
    return value


# -- HTTP plumbing ------------------------------------------------------
def _parse_head(head: bytes) -> tuple[str, str, dict]:
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"bad request line: {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"bad header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    path = target.split("?", 1)[0]
    return method.upper(), path, headers


def _encode_json(payload) -> bytes:
    """The wire encoding of a compute route's response body: strict JSON.

    Raises :class:`Unprocessable` when the result holds a non-finite number,
    which JSON has no token for.
    """
    try:
        return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")
    except ValueError:
        raise Unprocessable(
            "the result is not finite (a value overflowed to Infinity or NaN), "
            "which JSON cannot carry"
        ) from None


async def _respond(
    writer,
    status: int,
    payload,
    *,
    keep_alive: bool = False,
    extra_headers: dict | None = None,
):
    reasons = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        413: "Payload Too Large",
        422: "Unprocessable Entity",
        500: "Internal Server Error",
        503: "Service Unavailable",
        504: "Gateway Timeout",
    }
    if isinstance(payload, bytes):  # a handler's body, encoded in its serialize stage
        body = payload
        content_type = "application/json"
    elif isinstance(payload, str):  # /metrics exposition
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        content_type = "application/json"
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


# -- entry points -------------------------------------------------------
async def _serve_until_signalled(runtime: Runtime, config: ServeConfig) -> None:
    server = Server(runtime, config)
    host, port = await server.start()
    # Parseable by tools/bench_serve.py even when port 0 picked a free one.
    print(f"serving on http://{host}:{port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        await server.stop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.remove_signal_handler(sig)


def run(runtime: Runtime, config: ServeConfig | None = None) -> None:
    """Blocking server loop with graceful SIGINT/SIGTERM shutdown.

    The runtime is registered with :mod:`repro.runtime.lifecycle` (for
    atexit coverage) and closed before this returns.
    """
    lifecycle.install(runtime)
    asyncio.run(_serve_until_signalled(runtime, config or ServeConfig()))


class ServerThread:
    """Run a :class:`Server` on a background thread (tests, benches).

    Usage::

        st = ServerThread(runtime, config)
        host, port = st.start()
        ...
        st.stop()          # also closes the runtime
    """

    def __init__(self, runtime: Runtime, config: ServeConfig | None = None) -> None:
        self.runtime = runtime
        self.config = config if config is not None else ServeConfig(port=0)
        self._address: tuple[str, int] | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-thread", daemon=True
        )

    def _main(self) -> None:
        try:
            asyncio.run(self._async_main())
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
            self._started.set()

    async def _async_main(self) -> None:
        server = Server(self.runtime, self.config)
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._address = await server.start()
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await server.stop()

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("server thread did not start")
        if self._error is not None:
            raise self._error
        assert self._address is not None
        return self._address

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        if self._error is not None:
            raise self._error
