"""Client side of the ``serve`` workload: start ``repro serve``, drive it, stop it.

The server runs at its default flags (``--port 0`` so parallel checkouts
never collide; ``--trace-dir --trace-slow-ms 0`` added in traced runs).
One client process drives it over :data:`CONNECTIONS` keep-alive
connections, closed loop: each connection sends its next request only after
the previous reply.  7 of every 8 requests bring fresh values for one of
:data:`POOL` structures the server has already seen (warm); every 8th
brings a new structure (cold).  Latency runs from the request's first byte
to the response's last; encoding, decoding and digesting happen outside it.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np

import inputs

POOL = 6
COLD_EVERY = 8
CONNECTIONS = 2
_BANNER = re.compile(r"serving on http://([^:\s]+):(\d+)")
_START_TIMEOUT = 60.0


def schedule(i: int) -> tuple[int, int, str]:
    """``(structure index, value repetition, kind)`` of the i-th request.

    Structures ``0..POOL-1`` form the warm pool (sent once with rep 0
    before timing); cold requests take new indices from ``POOL`` on, so
    both pool and new structures follow the 2:1 banded:power-law mix.
    """
    if i % COLD_EVERY == COLD_EVERY - 1:
        return POOL + i // COLD_EVERY, 0, "cold"
    j = i - (i + 1) // COLD_EVERY
    return j % POOL, 1 + j // POOL, "warm"


def wire(a) -> bytes:
    """A ``/v1/multiply`` request body for ``a @ a``."""
    body = {
        "algorithm": inputs.ALGORITHMS["serve"],
        "a": {
            "shape": [int(a.shape[0]), int(a.shape[1])],
            "indptr": np.asarray(a.indptr).tolist(),
            "indices": np.asarray(a.indices).tolist(),
            "data": np.asarray(a.data).tolist(),
        },
    }
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def result_digest(payload: dict) -> str:
    """Digest of a response's result, comparable with :func:`inputs.digest`."""
    from repro.sparse.csr import CSRMatrix

    r = payload["result"]
    return inputs.digest(
        CSRMatrix(
            tuple(r["shape"]),
            np.asarray(r["indptr"], dtype=np.int64),
            np.asarray(r["indices"], dtype=np.int64),
            np.asarray(r["data"], dtype=np.float64),
        )
    )


class Server:
    """One ``python -m repro serve`` child process."""

    def __init__(self, root: str, env: dict, log_path: str, trace_dir: str | None = None):
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if trace_dir is not None:
            argv += ["--trace-dir", trace_dir, "--trace-slow-ms", "0"]
        self._log = open(log_path, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        try:
            self.host, self.port = self._banner()
            while self.get("/healthz").get("ok") is not True:  # pragma: no cover
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _banner(self) -> tuple[str, int]:
        deadline = time.monotonic() + _START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _BANNER.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        raise RuntimeError(f"server did not start (exit code {self.proc.poll()})")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def get(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> int | None:
        """SIGTERM and wait; the exit code, or ``None`` if it had to be killed."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return None
        finally:
            self.proc.stdout.close()
            self._log.close()


def post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
    conn.request(
        "POST", "/v1/multiply", body=body, headers={"Content-Type": "application/json"}
    )
    resp = conn.getresponse()
    return resp.status, resp.read()


def warm_pool(server: Server, seed: int) -> dict:
    """Send each pool structure once so later requests find it seen."""
    pool = {i: inputs.structure(seed, "serve", i, "serve") for i in range(POOL)}
    conn = server.connect()
    try:
        for a in pool.values():
            status, _ = post(conn, wire(a))
            if status != 200:
                raise RuntimeError(f"warm-up request failed with HTTP {status}")
    finally:
        conn.close()
    return pool


def drive(server: Server, seed: int, pool: dict, seconds: float, min_requests: int):
    """Closed loop over :data:`CONNECTIONS` connections; ``(records, wall_s)``.

    Each record holds the request's kind, class, latency, HTTP status and
    result digest; correctness is settled later against a reference.
    """
    lock = threading.Lock()
    records: list[dict] = []
    state = {"next": 0, "last_end": 0.0}
    start = time.perf_counter()

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    i = state["next"]
                    if time.perf_counter() - start >= seconds and i >= min_requests:
                        return
                    state["next"] = i + 1
                index, rep, kind = schedule(i)
                a = pool.get(index)
                if a is None:
                    a = inputs.structure(seed, "serve", index, "serve")
                body = wire(inputs.with_values(a, seed, "serve", index, rep))
                t0 = time.perf_counter()
                try:
                    status, data = post(conn, body)
                except (OSError, http.client.HTTPException) as exc:
                    status, data = 0, str(exc).encode()
                    conn.close()
                    conn = server.connect()
                t1 = time.perf_counter()
                record = {
                    "kind": kind,
                    "cls": inputs.structure_class(index),
                    "ms": (t1 - t0) * 1e3,
                    "status": status,
                    "index": index,
                    "rep": rep,
                    "request_bytes": len(body),
                    "response_bytes": len(data),
                }
                if status == 200:
                    payload = json.loads(data)
                    record["digest"] = result_digest(payload)
                    record["replayed"] = bool(payload.get("replayed"))
                with lock:
                    records.append(record)
                    state["last_end"] = max(state["last_end"], t1)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, state["last_end"] - start


def settle(record: dict, expected_digest: str | None, mismatch: str | None = None) -> dict:
    """Mark a served request ok only for HTTP 200 with the expected result.

    A 503 or 504 (shed or timed out), any other non-200 reply, a transport
    error, a digest that differs from the reference or a reference that
    disagrees with the oracle all fail the request.
    """
    if record["status"] != 200:
        record["ok"] = False
        record["error"] = f"HTTP {record['status']}"
    elif mismatch is not None:
        record["ok"] = False
        record["error"] = mismatch
    elif record.get("digest") != expected_digest:
        record["ok"] = False
        record["error"] = "served result differs from the in-memory result"
    else:
        record["ok"] = True
    return record


def read_traces(trace_dir: str) -> list[dict]:
    """Per-request stage durations (seconds) from the server's Chrome traces.

    Each entry maps ``request.<stage>`` names to durations and carries the
    root's ``replayed`` counter.
    """
    requests = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.trace.json"))):
        with open(path, encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        stages: dict[str, float] = {}
        replayed = None
        for ev in events:
            if ev.get("ph") != "X":
                continue
            if ev["name"].startswith("request."):
                stages[ev["name"]] = stages.get(ev["name"], 0.0) + ev["dur"] / 1e6
            elif ev["name"].startswith("request["):
                replayed = ev.get("args", {}).get("replayed")
        requests.append({"stages": stages, "replayed": replayed})
    return requests
