"""Serving bench: throughput/latency for ``repro serve`` under concurrency.

Starts the server as a subprocess (exactly as a user would: ``python -m
repro serve``), then drives it with N concurrent clients in two phases:

* **shared structure** — every client multiplies the same sparsity
  structure, so after the first request each one is a numeric replay and
  micro-batching amortises the single symbolic lowering across callers;
* **distinct structures** — every client brings its own structure, the
  worst case for amortisation (one lowering per client).

For each phase it records wall-clock throughput, p50/p99 latency and the
**amortisation factor** — requests answered per symbolic lowering paid,
read from the server's ``/stats`` deltas.  Latency is recorded twice: from
client wall clocks AND from the server's own ``/stats`` streaming
histogram, and the two views must agree within histogram-bucket tolerance
(the server buckets are sqrt(2)-spaced, so quantiles round up by at most
~41%; clients additionally see connection overhead).  Every multiply
response is asserted *bit-identical* to the same product computed locally
through :class:`repro.runtime.Runtime` (the batch-CLI path).  Mixed
multiply/pagerank traffic is
checked the same way.  A final ``/metrics`` scrape is validated against
the Prometheus exposition schema (``--metrics-out`` saves it), and
``--trace-dir`` makes the server export every request as a Chrome trace.
On shutdown (SIGTERM) the bench asserts a zero exit code, no new
``/dev/shm/repro-*`` segments and no surviving child processes.

Writes the measurements as JSON — ``BENCH_pr8.json`` at the repo root
records the PR's numbers.

Usage::

    PYTHONPATH=src python tools/bench_serve.py --out BENCH_pr8.json
    PYTHONPATH=src python tools/bench_serve.py --smoke   # CI: small + asserts
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.metrics.promtext import validate_exposition  # noqa: E402
from repro.runtime import Runtime, RuntimeConfig  # noqa: E402
from repro.serve.protocol import csr_from_wire, csr_to_wire  # noqa: E402
from repro.sparse.csr import CSRMatrix  # noqa: E402


def random_csr(rng: np.random.Generator, n: int, density: float) -> CSRMatrix:
    dense = (rng.random((n, n)) < density) * rng.random((n, n))
    return CSRMatrix.from_dense(dense)


def identical(x: CSRMatrix, y: CSRMatrix) -> bool:
    return (
        x.shape == y.shape
        and x.indptr.tobytes() == y.indptr.tobytes()
        and x.indices.tobytes() == y.indices.tobytes()
        and x.data.tobytes() == y.data.tobytes()
    )


class ServeClient:
    """Tiny blocking JSON-over-HTTP client for the bench threads."""

    def __init__(self, base: str) -> None:
        self.base = base

    def post(self, path: str, body: dict, tenant: str | None = None) -> dict:
        headers = {"Content-Type": "application/json"}
        if tenant:
            headers["X-Tenant"] = tenant
        req = urllib.request.Request(
            self.base + path, data=json.dumps(body).encode("utf-8"), headers=headers
        )
        with urllib.request.urlopen(req, timeout=120) as resp:
            return json.loads(resp.read())

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(self.base + path, timeout=30) as resp:
            return json.loads(resp.read())

    def get_text(self, path: str) -> str:
        with urllib.request.urlopen(self.base + path, timeout=30) as resp:
            return resp.read().decode("utf-8")


def start_server(args) -> tuple[subprocess.Popen, str]:
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--max-inflight", str(args.max_inflight),
        "--batch-window", str(args.batch_window),
    ]
    if args.trace_dir:
        cmd += ["--trace-dir", args.trace_dir, "--trace-slow-ms", "0"]
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    banner = proc.stdout.readline().strip()
    if not banner.startswith("serving on "):
        raise RuntimeError(f"server failed to start: {banner!r}\n{proc.stderr.read()}")
    return proc, banner.split()[-1]


def worker_pids(server_pid: int) -> set[int]:
    """Direct children of the server, via /proc."""
    pids = set()
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if int(fields[1]) == server_pid:  # ppid is field 4 overall
                pids.add(int(stat.split("/")[2]))
        except (OSError, IndexError, ValueError):
            continue
    return pids


def run_phase(
    client: ServeClient,
    algorithm: str,
    matrices: list[tuple[CSRMatrix, CSRMatrix]],
    expected: list[CSRMatrix],
    clients: int,
    requests_each: int,
) -> tuple[dict, list[float]]:
    """Fire ``clients`` threads, each issuing ``requests_each`` multiplies.

    Client ``i`` uses structure ``matrices[i % len(matrices)]`` — pass one
    pair for the shared-structure phase, one per client for distinct.
    """
    stats_before = client.get("/stats")["runtime"]["plan_cache"]
    latencies: list[float] = []
    mismatches: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def one_client(i: int) -> None:
        a, b = matrices[i % len(matrices)]
        want = expected[i % len(expected)]
        payload = {"algorithm": algorithm, "a": csr_to_wire(a), "b": csr_to_wire(b)}
        barrier.wait()
        for _ in range(requests_each):
            start = time.perf_counter()
            reply = client.post("/v1/multiply", payload)
            elapsed = time.perf_counter() - start
            got = csr_from_wire(reply["result"], "result")
            with lock:
                latencies.append(elapsed)
                if not identical(got, want):
                    mismatches.append(f"client {i}: response != local result")

    threads = [threading.Thread(target=one_client, args=(i,)) for i in range(clients)]
    wall_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start
    stats_after = client.get("/stats")["runtime"]["plan_cache"]

    if mismatches:
        raise AssertionError("; ".join(mismatches))
    total = clients * requests_each
    lowers = stats_after["lowers"] - stats_before["lowers"]
    latencies.sort()
    summary = {
        "clients": clients,
        "requests": total,
        "wall_seconds": wall,
        "throughput_rps": total / wall,
        "latency_ms": {
            "p50": statistics.quantiles(latencies, n=100)[49] * 1e3,
            "p99": statistics.quantiles(latencies, n=100)[98] * 1e3,
            "max": latencies[-1] * 1e3,
        },
        "symbolic_lowerings": lowers,
        "requests_per_lowering": total / lowers if lowers else None,
    }
    return summary, latencies


def check_latency_agreement(
    client_latencies: list[float], server_latency: dict
) -> dict:
    """Server histogram quantiles must agree with client wall clocks.

    The server rounds each quantile up to a sqrt(2)-spaced bucket bound and
    clients additionally measure connection/serialisation overhead, so
    "agree" means within a 2.5x factor plus a 10 ms absolute floor, in both
    directions.
    """
    ordered = sorted(client_latencies)
    agreement = {}
    for name, q in (("p50", 0.50), ("p99", 0.99)):
        client_ms = ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3
        server_ms = server_latency[name]
        ok = (
            server_ms <= client_ms * 2.5 + 10.0
            and client_ms <= server_ms * 2.5 + 10.0
        )
        agreement[name] = {
            "client_ms": client_ms,
            "server_ms": server_ms,
            "agree": ok,
        }
        assert ok, (
            f"server/client {name} disagree beyond bucket tolerance: "
            f"server {server_ms:.2f}ms vs client {client_ms:.2f}ms"
        )
    return agreement


def check_mixed_traffic(client: ServeClient, algorithm: str, adj: CSRMatrix) -> dict:
    """Concurrent mixed multiply/pagerank, checked against the local path."""
    with Runtime(RuntimeConfig()) as local:
        want_product = local.multiply(algorithm, adj, adj).result
        want_scores = local.pagerank(algorithm, adj).scores
    payload_mul = {"algorithm": algorithm, "a": csr_to_wire(adj), "b": csr_to_wire(adj)}
    payload_pr = {"algorithm": algorithm, "adjacency": csr_to_wire(adj)}
    failures: list[str] = []

    def do_multiply() -> None:
        got = csr_from_wire(client.post("/v1/multiply", payload_mul)["result"], "r")
        if not identical(got, want_product):
            failures.append("multiply response diverged")

    def do_pagerank() -> None:
        scores = np.asarray(client.post("/v1/pagerank", payload_pr)["scores"])
        if scores.tobytes() != want_scores.tobytes():
            failures.append("pagerank response diverged")

    threads = [
        threading.Thread(target=do_multiply if i % 2 == 0 else do_pagerank)
        for i in range(6)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise AssertionError("; ".join(sorted(set(failures))))
    return {"mixed_requests": len(threads), "bit_identical": True}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write results JSON here (e.g. BENCH_pr8.json)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="save the final /metrics scrape (Prometheus text)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="server exports per-request Chrome traces here")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests-per-client", type=int, default=6)
    parser.add_argument("--size", type=int, default=300, metavar="N",
                        help="operand dimension (NxN)")
    parser.add_argument("--density", type=float, default=0.02)
    parser.add_argument("--algorithm", default="row-product")
    parser.add_argument("--max-inflight", type=int, default=4)
    parser.add_argument("--batch-window", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="small workload + hard assertions (CI)")
    args = parser.parse_args()
    if args.smoke:
        args.clients, args.requests_per_client, args.size = 4, 3, 120

    rng = np.random.default_rng(args.seed)
    shared = random_csr(rng, args.size, args.density)
    shared_pair = (shared, random_csr(rng, args.size, args.density))
    distinct_pairs = [
        (random_csr(rng, args.size, args.density), random_csr(rng, args.size, args.density))
        for _ in range(args.clients)
    ]
    print(f"computing local references ({1 + args.clients} products) ...", flush=True)
    with Runtime(RuntimeConfig()) as local:
        shared_expected = [local.multiply(args.algorithm, *shared_pair).result]
        distinct_expected = [
            local.multiply(args.algorithm, a, b).result for a, b in distinct_pairs
        ]

    shm_before = set(glob.glob("/dev/shm/repro-*"))
    proc, base = start_server(args)
    client = ServeClient(base)
    try:
        workers = worker_pids(proc.pid)
        print(f"server up at {base} (pid {proc.pid})", flush=True)
        shared_phase, shared_lat = run_phase(
            client, args.algorithm, [shared_pair], shared_expected,
            args.clients, args.requests_per_client,
        )
        print(f"shared:   {shared_phase['throughput_rps']:.1f} req/s, "
              f"{shared_phase['requests_per_lowering'] or 0:.1f} requests/lowering",
              flush=True)
        distinct_phase, distinct_lat = run_phase(
            client, args.algorithm, distinct_pairs, distinct_expected,
            args.clients, args.requests_per_client,
        )
        print(f"distinct: {distinct_phase['throughput_rps']:.1f} req/s, "
              f"{distinct_phase['requests_per_lowering'] or 0:.1f} requests/lowering",
              flush=True)
        # Server-side view: the multiply route's streaming histogram must
        # agree with the client wall clocks collected above.
        phase_stats = client.get("/stats")
        server_latency = phase_stats["serving"]["routes"]["multiply"]["latency_ms"]
        agreement = check_latency_agreement(shared_lat + distinct_lat, server_latency)
        print(f"latency agreement: server p50={server_latency['p50']:.2f}ms "
              f"p99={server_latency['p99']:.2f}ms "
              f"(client p50={agreement['p50']['client_ms']:.2f}ms "
              f"p99={agreement['p99']['client_ms']:.2f}ms)", flush=True)
        mixed = check_mixed_traffic(client, args.algorithm, shared)
        print("mixed multiply/pagerank traffic bit-identical to local path", flush=True)
        metrics_text = client.get_text("/metrics")
        metrics_families = len(validate_exposition(metrics_text))
        print(f"/metrics scrape valid ({metrics_families} metric families)",
              flush=True)
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(metrics_text)
            print(f"wrote {args.metrics_out}", flush=True)
        final_stats = client.get("/stats")
        workers |= worker_pids(proc.pid)
    finally:
        proc.send_signal(signal.SIGTERM)
        exit_code = proc.wait(timeout=30)
    leaked_shm = sorted(set(glob.glob("/dev/shm/repro-*")) - shm_before)
    stray = {pid for pid in workers if os.path.exists(f"/proc/{pid}")}
    shutdown = {
        "exit_code": exit_code,
        "leaked_shm": len(leaked_shm),
        "stray_workers": len(stray),
    }
    print(f"shutdown: exit={exit_code}, leaked shm={len(leaked_shm)}, "
          f"stray workers={len(stray)}", flush=True)

    assert exit_code == 0, f"server exited {exit_code}"
    assert not leaked_shm, f"leaked shared memory: {leaked_shm}"
    assert not stray, f"stray worker processes: {stray}"
    amortised = shared_phase["requests_per_lowering"]
    assert amortised is not None and amortised > 1, (
        f"no amortisation under shared-structure load: {amortised}"
    )
    traces_exported = (
        len(glob.glob(os.path.join(args.trace_dir, "*.trace.json")))
        if args.trace_dir else None
    )
    if args.trace_dir:
        assert traces_exported, f"no traces exported to {args.trace_dir}"
        print(f"{traces_exported} request traces in {args.trace_dir}", flush=True)

    payload = {
        "description": (
            "repro serve under concurrent load: shared vs distinct operand "
            "structures, responses asserted bit-identical to the batch "
            "Runtime path, amortisation factor = requests per symbolic "
            "lowering, server-histogram latency asserted against client "
            "wall clocks, /metrics scrape "
            "schema-validated"
        ),
        "engine": args.algorithm,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host_cpu_count": os.cpu_count(),
        "operands": {"n": args.size, "density": args.density, "seed": args.seed},
        "server": {
            "max_inflight": args.max_inflight,
            "batch_window": args.batch_window,
        },
        "shared_structure": shared_phase,
        "distinct_structures": distinct_phase,
        "server_latency_ms": server_latency,
        "latency_agreement": agreement,
        "mixed_traffic": mixed,
        "batching": final_stats["batching"],
        "serving": {
            key: final_stats["serving"][key]
            for key in ("queue_depth", "inflight_flops", "coalescence_factor",
                        "estimate_fallbacks", "traces_written")
        },
        "metrics_families": metrics_families,
        "traces_exported": traces_exported,
        "amortisation_factor": amortised,
        "bit_identical": True,
        "clean_shutdown": shutdown,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", flush=True)
    print(json.dumps({k: payload[k] for k in
                      ("amortisation_factor", "bit_identical", "clean_shutdown")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
