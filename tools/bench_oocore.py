"""Peak-RSS vs wall-clock trade-off for the out-of-core chunked executor.

For each dataset, measures the numeric multiply two ways:

* **in-memory** — ``algo.multiply(ctx)``: the streaming kernel at its
  default cut, all of C resident;
* **chunked** — :func:`repro.oocore.chunked_multiply` under each
  ``--budgets`` entry: the same kernel on row blocks the budget holds,
  finished blocks of C spilling to disk through the crash-safe store.

Every cell runs in its **own subprocess** (``--cell``): peak RSS comes from
``getrusage(RUSAGE_SELF).ru_maxrss``, which is a lifetime high-water mark,
so cells sharing a process would all report the largest cell's peak.  Each
cell prints a JSON record including a SHA-256 digest of the result arrays;
the driver asserts every chunked digest equals the in-memory digest before
any timing is reported — the artifact can never contain timings for wrong
results — and, for every chunked cell without an oversized row, that the
resident partials stayed within the budget plus one block's entries
(``resident_peak_bytes <= budget_bytes + 16 * max_products``), the bound
spilling exists to keep.

``--smoke`` shrinks the grid to one dataset and one tiny budget but widens
it across **all seven schemes** — the CI leg that proves the chunked path
is bit-identical everywhere, actually spills (``--assert-spill``) and keeps
its memory envelope: every chunked cell's peak RSS must be below its
in-memory cell's.

Writes the measurements as JSON (schema_version 1: budgets are keyed by
their CLI spelling, memory in bytes).  ``BENCH_pr10.json`` at the repo root
records the default grid under the row-panel executor, ``BENCH_pr26.json``
under the streaming kernel and its spill sink.

Usage::

    PYTHONPATH=src python tools/bench_oocore.py --out BENCH_pr26.json
    PYTHONPATH=src python tools/bench_oocore.py --smoke --assert-spill \
        --out oocore-smoke.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.oocore.budget import BYTES_PER_PRODUCT  # noqa: E402

#: Trade-off grid defaults: mid-sized stand-ins whose expansions comfortably
#: exceed the smallest budget, so every budget level cuts finer and spills.
DATASETS = ["harbor", "protein", "slashdot"]
BUDGETS = ["64M", "16M", "4M", "1M"]
SMOKE_DATASET = "harbor"
SMOKE_BUDGET = "8M"
#: Bytes one entry of C holds in a resident partial (int64 column, float64
#: value).
BYTES_PER_ENTRY = 16


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _digest(c) -> str:
    """SHA-256 of the result, hashed from the arrays' own buffers: a
    ``tobytes()`` copy of C's arrays, taken after the multiply, could set
    the cell's peak RSS instead of the multiply itself."""
    h = hashlib.sha256()
    h.update(repr(c.shape).encode())
    for arr in (c.indptr, c.indices, c.data):
        h.update(np.ascontiguousarray(arr))
    return h.hexdigest()


def run_cell(dataset: str, algorithm: str, budget: str | None) -> dict:
    """One measurement in this process (the ``--cell`` entry point)."""
    from repro.bench.runner import paper_algorithms
    from repro.datasets import loader
    from repro.spgemm.base import MultiplyContext

    algo = next(a for a in paper_algorithms() if a.name == algorithm)
    loaded = loader.load(dataset)
    record = {"dataset": dataset, "algorithm": algorithm, "budget": budget}
    if budget is None:
        ctx = MultiplyContext.build(loaded.a, loaded.b)
        start = time.perf_counter()
        result = algo.multiply(ctx)
        record["seconds"] = time.perf_counter() - start
        record["oocore"] = None
    else:
        from repro.obs.counters import snapshot
        from repro.oocore import chunked_multiply

        start = time.perf_counter()
        result, stats = chunked_multiply(algo, loaded.a, loaded.b, mem_budget=budget)
        record["seconds"] = time.perf_counter() - start
        record["oocore"] = snapshot(stats)
    record["nnz_c"] = result.nnz
    record["digest"] = _digest(result)
    record["peak_rss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return record


def spawn_cell(dataset: str, algorithm: str, budget: str | None) -> dict:
    """Run one cell in a fresh interpreter so its peak RSS is its own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--cell", dataset, algorithm]
    if budget is not None:
        cmd += ["--cell-budget", budget]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"cell ({dataset}, {algorithm}, {budget}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--datasets", nargs="*", default=None)
    parser.add_argument("--budgets", nargs="*", default=None,
                        help="memory budgets to sweep (e.g. 64M 4M)")
    parser.add_argument("--algorithms", nargs="*", default=["row-product"])
    parser.add_argument("--smoke", action="store_true",
                        help="one small dataset, one tiny budget, all seven "
                             "schemes (the CI bit-identity and peak-RSS leg)")
    parser.add_argument("--assert-spill", action="store_true",
                        help="fail unless at least one partial spilled to disk")
    parser.add_argument("--out", default="BENCH_pr26.json")
    parser.add_argument("--cell", nargs=2, metavar=("DATASET", "ALGO"),
                        default=None, help=argparse.SUPPRESS)
    parser.add_argument("--cell-budget", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.cell is not None:
        print(json.dumps(run_cell(args.cell[0], args.cell[1], args.cell_budget)))
        return 0

    if args.smoke:
        from repro.bench.runner import paper_algorithms

        datasets = args.datasets or [SMOKE_DATASET]
        budgets = args.budgets or [SMOKE_BUDGET]
        algorithms = [a.name for a in paper_algorithms()]
    else:
        datasets = args.datasets or DATASETS
        budgets = args.budgets or BUDGETS
        algorithms = args.algorithms

    results, failures = [], []
    total_spills = 0
    for dataset in datasets:
        for algorithm in algorithms:
            baseline = spawn_cell(dataset, algorithm, None)
            record = {
                "dataset": dataset,
                "algorithm": algorithm,
                "nnz_c": baseline["nnz_c"],
                "in_memory": {
                    "seconds": baseline["seconds"],
                    "peak_rss_bytes": baseline["peak_rss_bytes"],
                },
                "budgets": {},
            }
            print(
                f"{dataset:12s} {algorithm:18s} in-memory "
                f"{baseline['seconds'] * 1e3:8.1f} ms  "
                f"rss {baseline['peak_rss_bytes'] >> 20:5d} MiB"
            )
            for budget in budgets:
                cell = spawn_cell(dataset, algorithm, budget)
                identical = cell["digest"] == baseline["digest"]
                if not identical:
                    failures.append(
                        f"{dataset}/{algorithm} @ {budget}: result differs "
                        "from the in-memory path"
                    )
                if args.smoke and cell["peak_rss_bytes"] >= baseline["peak_rss_bytes"]:
                    failures.append(
                        f"{dataset}/{algorithm} @ {budget}: peak RSS "
                        f"{cell['peak_rss_bytes'] >> 20} MiB is not below the "
                        f"in-memory {baseline['peak_rss_bytes'] >> 20} MiB"
                    )
                ooc = cell["oocore"]
                bound = ooc["budget_bytes"] + BYTES_PER_ENTRY * ooc["max_products"]
                if ooc["n_oversized"] == 0 and ooc["resident_peak_bytes"] > bound:
                    failures.append(
                        f"{dataset}/{algorithm} @ {budget}: resident partials peaked "
                        f"at {ooc['resident_peak_bytes']} bytes, above the budget "
                        f"plus one block's entries ({bound})"
                    )
                total_spills += ooc["spill_count"]
                record["budgets"][budget] = {
                    "seconds": cell["seconds"],
                    "peak_rss_bytes": cell["peak_rss_bytes"],
                    "slowdown": cell["seconds"] / baseline["seconds"],
                    "rss_ratio": (
                        cell["peak_rss_bytes"] / baseline["peak_rss_bytes"]
                    ),
                    "identical": identical,
                    "oocore": ooc,
                }
                print(
                    f"{dataset:12s} {algorithm:18s} {budget:>9s} "
                    f"{cell['seconds'] * 1e3:8.1f} ms  "
                    f"rss {cell['peak_rss_bytes'] >> 20:5d} MiB  "
                    f"blocks {ooc['n_panels']:4d}  spills {ooc['spill_count']:4d}  "
                    f"{'ok' if identical else 'DIFFERS'}"
                )
            results.append(record)

    if args.assert_spill and total_spills == 0:
        failures.append("no spill occurred anywhere in the grid "
                        "(budgets too large to exercise the spill path)")

    payload = {
        "description": "repro.oocore streaming-kernel multiply with a spill "
                       "sink: peak-RSS vs wall-clock across memory budgets, "
                       "every cell in its own process (bit-identity vs "
                       "in-memory and the resident bound asserted per cell)",
        "schema_version": 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host_cpu_count": os.cpu_count(),
        "host_available_cpus": _available_cpus(),
        "bytes_per_product": BYTES_PER_PRODUCT,
        "smoke": args.smoke,
        "results": results,
        "total_spills": total_spills,
        "bit_identical": not any("differs" in f for f in failures),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(f"wrote {len(results)} records to {args.out} "
          f"({total_spills} spills recorded)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
