"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the checkout root::

    python3 perfbench/run.py --workload multiply --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``compare``  — build + symbolic pass + lowering + simulation of all seven
  schemes per fresh operand (the ``repro run``/``compare`` path).
* ``multiply`` — ``Runtime.multiply`` on the Block Reorganizer: each new
  structure once cold, then 7 times warm with fresh values.
* ``chunked``  — the same through a ``Runtime`` whose ``mem_budget`` is ⅛ of
  each operand's 48 B/product expansion, spilling to a scratch directory.
* ``serve``    — ``python -m repro serve`` driven over two connections.

Operands come from the seed only (``inputs.py``), always two banded
structures to one power-law.  The program runs at its defaults: NumPy
kernels, serial, no result cache.  The in-process workloads run in a child
process (``worker.py``) so peak RSS is that of the process doing the work.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the loop
twice — untraced, then traced — and prints the per-layer metrics
(``layers.py``), writing the spans to ``perfbench/.work/``.  Every op's
result is checked after its timing; a failure counts in ``failed`` and as a
missed latency.  The last stdout line is the JSON result; the line before
it records inputs, host facts and tail percentiles.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# The program is always the checkout's own source tree, never an installed copy.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import serveload  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("compare", "multiply", "chunked", "serve")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cold_p50_ms": "ms",
    "cold_tail_ms": "ms",
    "warm_p50_ms": "ms",
    "warm_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
}

#: Set-ups timed per untraced run (the reported ``setup_s`` is their median).
SETUPS = 5
#: Whole rounds every segment runs before it may stop on time.
MIN_STRUCTURES = 9
#: Wall-clock bound on one worker process.
WORKER_TIMEOUT = 150.0


def child_env(work: Path) -> dict:
    """Environment for the program's processes: sources, scratch, no caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(work)
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env.pop("REPRO_KERNEL_BACKEND", None)
    return env


def lifecycle_op(ok: bool, what: str) -> dict:
    """A shutdown or leak check, counted as one attempted op."""
    record = {"kind": "lifecycle", "cls": None, "ms": 0.0, "ok": ok}
    if not ok:
        record["error"] = what
    return record


def shm_segments() -> set[str]:
    """The program's shared-memory segments currently in ``/dev/shm``."""
    return set(glob.glob("/dev/shm/repro-*"))


def reference(x, algorithm: str):
    """Digest of the in-memory cold ``Runtime.multiply``, and its oracle check."""
    from repro.runtime import Runtime, RuntimeConfig

    with Runtime(RuntimeConfig(use_result_cache=False)) as rt:
        c = rt.multiply(algorithm, x).result
    return inputs.digest(c), inputs.oracle_mismatch(x, c)


# -- in-process workloads ---------------------------------------------------
class Worker:
    """One ``worker.py`` child; ``setup_s`` is spawn until its ready line."""

    def __init__(self, job: dict, env: dict) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line:
            self.proc.wait()
            raise RuntimeError(f"worker exited before ready (code {self.proc.returncode})")
        self.ready = json.loads(line)

    def finish(self) -> tuple[dict | None, int]:
        try:
            out, _ = self.proc.communicate(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker timed out") from None
        lines = [ln for ln in out.splitlines() if ln.strip()]
        return (json.loads(lines[-1]) if lines else None), self.proc.returncode


def run_inprocess(args, work: Path, env: dict) -> dict:
    spill = work / "spill"
    spill.mkdir()
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_only": False,
        "min_structures": MIN_STRUCTURES,
        "spill_dir": str(spill),
        "segments": (
            [
                {"traced": False, "seconds": args.seconds / 2},
                {"traced": True, "seconds": args.seconds / 2},
            ]
            if args.trace
            else [{"traced": False, "seconds": args.seconds}]
        ),
    }
    checks: list[dict] = []
    setups, readies = [], []
    for _ in range(0 if args.trace else SETUPS - 1):
        w = Worker({**job, "setup_only": True}, env)
        setups.append(w.setup_s)
        readies.append(w.ready)
        _, code = w.finish()
        checks.append(lifecycle_op(code == 0, f"set-up worker exited {code}"))
    w = Worker(job, env)
    setups.append(w.setup_s)
    readies.append(w.ready)
    result, code = w.finish()
    if result is None:
        raise RuntimeError(f"worker printed no result (exit code {code})")
    checks.append(lifecycle_op(code == 0, f"worker exited {code}"))
    leftovers = sorted(os.listdir(spill))
    checks.append(lifecycle_op(not leftovers, f"spill directory not empty: {leftovers}"))
    spill.rmdir()

    segments = result["segments"]
    if args.workload == "chunked":
        for seg in segments:
            for op in seg["ops"]:
                if op["ok"]:
                    x = inputs.operand(args.seed, "chunked", op["index"], op["rep"])
                    digest, mismatch = reference(x, inputs.ALGORITHMS["chunked"])
                    if mismatch or op["digest"] != digest:
                        op["ok"] = False
                        op["error"] = mismatch or "chunked result differs from in-memory result"
    return {
        "segments": segments,
        "checks": checks,
        "setups": setups,
        "readies": readies,
        "peak_rss_mib": result["peak_rss_mib"],
        "probes": result["probes"],
    }


# -- serve ------------------------------------------------------------------
def serve_segment(args, work: Path, env: dict, seconds: float, traced: bool) -> dict:
    trace_dir = str(work / "traces") if traced else None
    server = serveload.Server(str(ROOT), env, str(work / "server.log"), trace_dir)
    try:
        pool = serveload.warm_pool(server, args.seed)
        before = server.get("/stats")
        records, wall = serveload.drive(
            server, args.seed, pool, seconds, MIN_STRUCTURES * serveload.COLD_EVERY
        )
        after = server.get("/stats")
        peak = stats.vmhwm_mib(server.proc.pid)
    finally:
        code = server.stop()
    return {
        "ops": records,
        "timed_s": wall,
        "setup_s": server.setup_s,
        "peak_rss_mib": peak,
        "check": lifecycle_op(code == 0, f"server exited {code} on SIGTERM"),
        "traces": serveload.read_traces(trace_dir) if traced else [],
        "stats": (before, after),
    }


def run_serve(args, work: Path, env: dict) -> dict:
    checks, setups, readies = [], [], []
    if args.trace:
        w = Worker({"workload": "serve", "seed": args.seed, "setup_only": True}, env)
        readies.append(w.ready)
        _, code = w.finish()
        checks.append(lifecycle_op(code == 0, f"set-up worker exited {code}"))
        plan = [(args.seconds / 2, False), (args.seconds / 2, True)]
    else:
        for _ in range(SETUPS - 1):
            server = serveload.Server(str(ROOT), env, str(work / "server.log"))
            setups.append(server.setup_s)
            code = server.stop()
            checks.append(lifecycle_op(code == 0, f"set-up server exited {code} on SIGTERM"))
        plan = [(args.seconds, False)]
    segments = []
    for seconds, traced in plan:
        seg = serve_segment(args, work, env, seconds, traced)
        setups.append(seg["setup_s"])
        checks.append(seg["check"])
        segments.append(seg)
    for seg in segments:
        for op in seg["ops"]:
            digest = mismatch = None
            if op["status"] == 200:
                x = inputs.operand(args.seed, "serve", op["index"], op["rep"], "serve")
                digest, mismatch = reference(x, inputs.ALGORITHMS["serve"])
            serveload.settle(op, digest, mismatch)
    segments[0]["props"] = [
        layers.properties(k, inputs.structure(args.seed, "serve", k, "serve"))
        for k in range(layers.PROBE_STRUCTURES)
    ]
    return {
        "segments": segments,
        "checks": checks,
        "setups": setups,
        "readies": readies,
        "peak_rss_mib": segments[0]["peak_rss_mib"],
        "probes": serve_probes(args) if args.trace else None,
    }


def serve_probes(args) -> dict:
    from repro.runtime import Runtime, RuntimeConfig

    tracer = layers.Tracer(True)
    counts = []
    with Runtime(RuntimeConfig(use_result_cache=False)) as rt:
        algo = rt.algorithm(inputs.ALGORITHMS["serve"])
        for k in range(layers.PROBE_STRUCTURES):
            tracer.op = k
            a = inputs.structure(args.seed, "serve", k, "serve")
            counts.append(layers.probe(a, algo, tracer))
    return {"spans": tracer.spans, "counts": counts}


# -- metrics ------------------------------------------------------------------
def ops_per_s(seg: dict) -> float:
    """Completed ops over the segment's timed seconds."""
    return sum(1 for op in seg["ops"] if op["ok"]) / seg["timed_s"]


def end_to_end(run: dict) -> tuple[dict, dict]:
    seg = run["segments"][0]
    ops = seg["ops"] + run["checks"]
    values, tails = stats.summarize(seg["ops"])
    values.update(
        setup_s=statistics.median(run["setups"]),
        peak_rss_mib=run["peak_rss_mib"],
        ops_per_s=ops_per_s(seg),
        ok_ratio=stats.ok_ratio(ops),
    )
    metrics = {
        name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END.items()
    }
    return metrics, tails


def per_layer(workload: str, run: dict) -> tuple[dict, list[dict]]:
    """Per-layer metrics of a traced run, and every span they came from."""
    untraced, traced = run["segments"]
    spans = [dict(s, segment=1) for s in traced.get("spans", [])]
    counts = list(traced.get("counts", []))
    direct = dict(traced.get("direct", {}))
    if run["probes"]:
        spans += [dict(s, segment=2) for s in run["probes"]["spans"]]
        counts += run["probes"]["counts"]
    if workload == "serve":
        spans += serve_spans(traced["traces"])
        direct.update(serve_direct(traced))
    direct["runtime.import_ms"] = statistics.median(r["import_ms"] for r in run["readies"])
    direct["runtime.init_ms"] = statistics.median(r["init_ms"] for r in run["readies"])
    direct["trace.overhead_ratio"] = ops_per_s(traced) / ops_per_s(untraced)
    return layers.assemble(spans, counts, direct), spans


def serve_spans(requests: list[dict]) -> list[dict]:
    spans = []
    for op, req in enumerate(requests):
        for name, dur in req["stages"].items():
            stage = "serve." + name.split(".", 1)[1]
            spans.append({"name": stage, "op": op, "dur": dur, "t0": 0.0, "segment": 3})
        numeric = req["stages"].get("request.numeric")
        if numeric is not None and req["replayed"] is not None:
            name = "plan.cache.hit" if req["replayed"] else "plan.cache.miss"
            spans.append({"name": name, "op": op, "dur": numeric, "t0": 0.0, "segment": 3})
    return spans


def serve_direct(seg: dict) -> dict:
    before, after = seg["stats"]

    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    lookups = delta("runtime", "plan_cache", "lookups")
    hits = delta("runtime", "plan_cache", "hits")
    lowers = delta("runtime", "plan_cache", "lowers")
    batches = delta("batching", "batches")
    ok = [op for op in seg["ops"] if op["status"] == 200]
    return {
        "serve.request_mib": statistics.median(op["request_bytes"] for op in ok) / layers.MIB,
        "serve.response_mib": statistics.median(op["response_bytes"] for op in ok) / layers.MIB,
        "serve.coalescence": delta("batching", "batched_requests") / batches if batches else 0.0,
        "serve.requests_per_lowering": delta("runtime", "requests") / lowers if lowers else 0.0,
        "plan.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "plan.cache.lowers": lowers,
    }


def provenance(args, run: dict, tails: dict) -> dict:
    """Inputs, host facts and tail percentiles of this run."""
    import numpy as np

    from repro import kernels
    from repro.runtime import RuntimeConfig

    props = [p for seg in run["segments"] for p in seg.get("props", [])]
    by_class: dict[str, dict] = {}
    for cls in ("banded", "power_law"):
        rows = [p for p in props if p["cls"] == cls]
        if rows:
            by_class[cls] = {
                key: statistics.mean(p[key] for p in rows)
                for key in rows[0]
                if key != "cls"
            }
    ops = [op for seg in run["segments"] for op in seg["ops"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {
            "sizes": inputs.SIZES["serve" if args.workload == "serve" else "standard"],
            "class_mix": {
                cls: sum(1 for op in ops if op.get("cls") == cls) for cls in ("banded", "power_law")
            },
            "first_structures": by_class,
        },
        "tails": tails,
        "host": {
            "cpus": len(os.sched_getaffinity(0)),
            "llc": llc_size(),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "kernel_backend": kernels.active_name(),
            "exec_workers": RuntimeConfig().resolved_exec_workers,
        },
        "errors": sorted({op["error"] for op in ops + run["checks"] if not op["ok"]})[:5],
    }


def llc_size() -> str | None:
    """Size of the highest-level CPU cache, as the kernel reports it."""
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    best = None
    for idx in caches:
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return best[1] if best else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    env = child_env(work)
    shm_before = shm_segments()
    try:
        run = (run_serve if args.workload == "serve" else run_inprocess)(args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    leaked = sorted(shm_segments() - shm_before)
    run["checks"].append(lifecycle_op(not leaked, f"leaked shared memory: {leaked}"))

    all_ops = [op for seg in run["segments"] for op in seg["ops"]] + run["checks"]
    if args.trace:
        metrics, spans = per_layer(args.workload, run)
        tails = {}
        path = WORK / f"spans-{args.workload}-{args.seed}.json"
        layers.write_chrome(str(path), spans, {"workload": args.workload, "seed": args.seed})
    else:
        metrics, tails = end_to_end(run)
    failed = stats.failures(all_ops)
    print(json.dumps({"provenance": provenance(args, run, tails)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(all_ops),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
