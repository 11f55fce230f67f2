"""CI bench smoke: prove serial, parallel and cached execution agree.

Runs a small Figure-8-style grid (two synthetic stand-in matrices, all seven
schemes) three ways —

1. serially (``workers=1``, no cache),
2. through the process-pool engine (``--workers``, default 2, no cache),
3. twice against a fresh result cache (cold write, then warm read) —

asserts every path yields **byte-identical** serialised ``BenchResult``s and
that the warm pass is answered entirely from cache, then writes the results
plus a comparison record as a JSON artifact for the CI run.

The serial results are additionally diffed against a committed golden grid
(``--golden``, default ``tools/golden/bench_smoke_golden.json``): every field
must be exactly equal, except ``gflops`` which may drift by at most 1e-9.
Any intended change to simulation semantics must regenerate the golden with
``--update-golden`` and commit it alongside the change.

Exit code 0 on success, 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.bench.cache import ResultCache, result_to_dict
from repro.bench.runner import clear_context_cache, paper_algorithms, run_matrix
from repro.datasets.loader import clear_cache

DATASETS = ["poisson3da", "as_caida"]
DEFAULT_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "bench_smoke_golden.json")
GFLOPS_TOLERANCE = 1e-9


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _canonical(results) -> dict[str, str]:
    """Map 'dataset/algorithm' -> canonical JSON of the full result."""
    return {
        f"{name}/{algo}": json.dumps(result_to_dict(res), sort_keys=True)
        for (name, algo), res in results.items()
    }


def _diff_cell(path: str, golden, current, failures: list[str]) -> None:
    """Require exact equality, except ``gflops`` within GFLOPS_TOLERANCE."""
    if isinstance(golden, dict) and isinstance(current, dict):
        for key in sorted(set(golden) | set(current)):
            if key not in golden:
                failures.append(f"golden: unexpected field {path}/{key}")
            elif key not in current:
                failures.append(f"golden: missing field {path}/{key}")
            else:
                _diff_cell(f"{path}/{key}", golden[key], current[key], failures)
    elif isinstance(golden, list) and isinstance(current, list):
        if len(golden) != len(current):
            failures.append(f"golden: length mismatch at {path}")
            return
        for i, (g, c) in enumerate(zip(golden, current)):
            _diff_cell(f"{path}[{i}]", g, c, failures)
    elif path.rsplit("/", 1)[-1] == "gflops":
        if abs(float(golden) - float(current)) > GFLOPS_TOLERANCE:
            failures.append(f"golden: gflops drift at {path}: {golden} vs {current}")
    elif golden != current:
        failures.append(f"golden: value mismatch at {path}: {golden!r} vs {current!r}")


def _check_golden(path: str, serial: dict[str, str], failures: list[str]) -> None:
    if not os.path.exists(path):
        failures.append(
            f"golden file {path} not found; run with --update-golden to create it"
        )
        return
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    current = {cell: json.loads(blob) for cell, blob in serial.items()}
    for cell in sorted(set(golden) | set(current)):
        if cell not in golden:
            failures.append(f"golden: cell {cell} not in golden grid")
        elif cell not in current:
            failures.append(f"golden: cell {cell} missing from this run")
        else:
            _diff_cell(cell, golden[cell], current[cell], failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default="bench-smoke.json", metavar="FILE")
    parser.add_argument("--datasets", nargs="*", default=DATASETS)
    parser.add_argument(
        "--golden", default=DEFAULT_GOLDEN, metavar="FILE",
        help="committed golden grid to diff serial results against",
    )
    parser.add_argument(
        "--update-golden", action="store_true",
        help="rewrite the golden grid from this run instead of diffing",
    )
    args = parser.parse_args()

    failures: list[str] = []
    grid = (args.datasets, paper_algorithms())

    serial = _canonical(run_matrix(*grid, workers=1, cache=None))

    clear_context_cache()
    clear_cache()
    parallel = _canonical(run_matrix(*grid, workers=args.workers, cache=None))

    if list(serial) != list(parallel):
        failures.append("result ordering differs between serial and parallel runs")
    for cell, blob in serial.items():
        if parallel.get(cell) != blob:
            failures.append(f"serial vs parallel mismatch in {cell}")

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        clear_context_cache()
        clear_cache()
        cold = _canonical(run_matrix(*grid, workers=args.workers, cache=cache))
        cold_misses = cache.misses
        clear_context_cache()
        clear_cache()
        warm = _canonical(run_matrix(*grid, workers=args.workers, cache=cache))
        if cache.hits != len(warm):
            failures.append(
                f"warm pass expected {len(warm)} cache hits, saw {cache.hits}"
            )
        for cell, blob in serial.items():
            if cold.get(cell) != blob:
                failures.append(f"serial vs cold-cache mismatch in {cell}")
            if warm.get(cell) != blob:
                failures.append(f"serial vs warm-cache mismatch in {cell}")

    if args.update_golden:
        os.makedirs(os.path.dirname(args.golden) or ".", exist_ok=True)
        with open(args.golden, "w", encoding="utf-8") as fh:
            json.dump(
                {cell: json.loads(blob) for cell, blob in serial.items()},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        print(f"wrote golden grid ({len(serial)} cells) to {args.golden}")
    else:
        _check_golden(args.golden, serial, failures)

    artifact = {
        "datasets": args.datasets,
        "workers": args.workers,
        "host_available_cpus": _available_cpus(),
        "cells": len(serial),
        "cold_cache_misses": cold_misses,
        "failures": failures,
        "results": {cell: json.loads(blob) for cell, blob in serial.items()},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2)

    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(
        f"OK: {len(serial)} cells identical across serial, "
        f"parallel(workers={args.workers}) and cached paths -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
