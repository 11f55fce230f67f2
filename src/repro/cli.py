"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``datasets``          — list the catalog (paper stats + generator class).
* ``run``               — simulate one algorithm on one dataset and print the
                          profile (optionally dump JSON); ``--iterations N``
                          additionally runs the numeric plane N times through
                          a warm session and prints the plan cache's
                          amortisation counters.
* ``compare``           — all seven schemes on one dataset, speedup table.
* ``bench``             — a (datasets × algorithms) grid through the shared
                          runner: sharded across ``--workers`` processes and
                          memoised in the persistent result cache.
* ``experiment``        — regenerate one of the paper's tables/figures.
* ``plan show``         — lower one algorithm for one dataset and print the
                          resulting :class:`ExecutionPlan` (phases, blocks,
                          coverage, metadata); ``--execute`` also runs the
                          numeric kernel with per-phase instrumentation.
* ``trace``             — run one dataset/algorithm cell with the
                          observability plane (:mod:`repro.obs`) on and print
                          the recorded span tree plus a per-category
                          wall-clock rollup; ``--out FILE`` writes a
                          Perfetto-loadable Chrome trace.
* ``serve``             — long-lived multiply-as-a-service HTTP front-end
                          (:mod:`repro.serve`): warm fingerprint-keyed
                          sessions, micro-batching, admission control.

Every command is a thin adapter over one :class:`repro.runtime.Runtime`,
which owns sessions and caches; the CLI itself constructs neither.
``compare``, ``bench`` and ``experiment`` accept the execution flags
``--workers N`` (0 = all cores), ``--cache-dir PATH``, ``--no-cache``,
``--shard-timeout SECONDS`` (parallel no-progress window before hung shards
re-run serially) and ``--trace FILE`` (record the whole invocation and
write a Chrome trace); ``run`` accepts ``--trace`` too.  Caching defaults
to on, under ``~/.cache/repro``.

``run``, ``compare`` and ``bench`` additionally accept the out-of-core
flags (:mod:`repro.oocore`): ``--mem-budget BYTES`` runs the numeric plane
chunked into row panels with disk spilling (bit-identical to in-memory),
``--spill-dir DIR`` places the crash-safe spill store, and ``--full-scale``
resolves datasets at the paper's published dimensions instead of the
stand-in scale.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from repro.bench import runner
from repro.bench.cache import result_to_dict
from repro.bench.tables import format_table
from repro.datasets.catalog import list_names, list_specs
from repro.errors import ReproError
from repro.gpusim.config import TITAN_XP
from repro.gpusim.export import stats_to_json
from repro.metrics.profiling import profile_report
from repro.obs import counters
from repro.plan.show import format_executions, format_plan
from repro.runtime import Runtime, RuntimeConfig, lifecycle

__all__ = ["build_parser", "main"]

_EXPERIMENTS = [
    "table1_systems", "table2_datasets", "table3_datasets",
    "fig03_motivation", "fig08_speedup", "fig09_gflops", "fig10_techniques",
    "fig11_lbi", "fig12_l2_split", "fig13_sync_stalls", "fig14_l2_limit",
    "fig15_scalability", "fig16_synthetic", "sec4e_youtube",
]


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    """Execution-engine flags shared by grid-running commands."""
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the bench grid (0 = all cores; default 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persistent result-cache directory (default ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache entirely",
    )
    parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="parallel no-progress window before hung shards are re-run "
             "serially (default 300)",
    )
    _add_trace_flag(parser)


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record the run with repro.obs and write a Chrome trace "
             "(open in Perfetto or chrome://tracing)",
    )


#: The out-of-core flag set, exposed for tools/check_docs.py.
OOCORE_FLAGS = ("--mem-budget", "--full-scale", "--spill-dir")


def _add_oocore_flags(parser: argparse.ArgumentParser) -> None:
    """Out-of-core execution flags shared by run/compare/bench."""
    parser.add_argument(
        "--mem-budget", default=None, metavar="BYTES",
        help="run the numeric plane out of core under this memory budget "
             "(e.g. 4G, 512M): A is cut into row panels sized by the "
             "precalculated workload sums and partials spill to disk; "
             "results are bit-identical to the in-memory path",
    )
    parser.add_argument(
        "--full-scale", action="store_true",
        help="resolve datasets at the paper's published dimensions "
             "(the catalog's @full variants) instead of the scaled stand-ins",
    )
    parser.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help="base directory for out-of-core spill files "
             "(default $TMPDIR; cleaned up on exit and on SIGTERM)",
    )


def _cmd_datasets(args: argparse.Namespace, runtime: Runtime) -> int:
    rows = [
        [s.name, s.collection, s.operation, s.generator, s.paper_dim, s.paper_nnz_a]
        for s in list_specs(args.collection)
    ]
    print(format_table(
        ["name", "collection", "op", "generator", "paper dim", "paper nnz(A)"], rows
    ))
    return 0


def _cmd_run(args: argparse.Namespace, runtime: Runtime) -> int:
    if args.mem_budget is not None:
        return _run_out_of_core(args, runtime)
    stats = runtime.simulate(args.dataset, args.algorithm)
    if args.json:
        print(stats_to_json(stats))
        return 0
    report = profile_report(stats)
    print(f"{report.algorithm} on {report.gpu} / {args.dataset}:")
    print(f"  total {report.total_seconds * 1e6:.1f} us, {report.gflops:.2f} GFLOPS")
    for stage in report.stages:
        print(
            f"  {stage.stage:10s} {stage.seconds * 1e6:9.1f} us  LBI={stage.lbi:.2f}  "
            f"stalls={stage.sync_stall_pct:.0f}%  L2 read={stage.l2_read_gbs:.0f} GB/s"
        )
    if args.iterations > 1:
        _print_iterative(runtime.iterate(args.dataset, args.algorithm, args.iterations))
    return 0


def _run_out_of_core(args: argparse.Namespace, runtime: Runtime) -> int:
    """``run --mem-budget``: the numeric plane through the chunked executor.

    Skips the simulator and the bench runner's context cache entirely — at
    full scale the whole-operand expansion an in-memory multiply builds is
    exactly what the budget forbids.
    """
    import time

    name = runtime.resolve_dataset(args.dataset)
    start = time.perf_counter()
    result, ooc = runtime.multiply_chunked(args.dataset, args.algorithm)
    seconds = time.perf_counter() - start
    if args.json:
        print(json.dumps({
            "dataset": name,
            "algorithm": args.algorithm,
            "seconds": seconds,
            "nnz_c": result.nnz,
            "oocore": counters.snapshot(ooc),
        }, indent=2))
        return 0
    print(f"{args.algorithm} on {name} (out of core):")
    print(f"  total {seconds * 1e3:.1f} ms, nnz(C) = {result.nnz}")
    _print_counters("oocore", ooc)
    return 0


def _print_counters(title: str, stats) -> None:
    """Print one counter set's declared values under ``title``."""
    print(f"  {title}:")
    for line in counters.text_lines(stats):
        print(f"    {line}")


def _print_iterative(report) -> None:
    """Render the numeric-plane iteration demo (fixed structure, N passes).

    Iteration 1 pays the full pipeline (context, lowering, the kernel's
    expansion walk and recipe capture); iterations 2..N are structure hits
    served by numeric replay.  Printed timings make the amortisation
    visible; the cache counters (``lowers``, ``hits``) show the scheme
    lowered exactly once.
    """
    n = len(report.seconds)
    warm_mean = report.warm_mean_seconds
    print(f"iterative numeric plane ({n} iterations, fixed structure):")
    print(f"  cold iteration   {report.cold_seconds * 1e3:9.2f} ms")
    print(f"  warm iterations  {warm_mean * 1e3:9.2f} ms mean "
          f"(x{report.cold_seconds / max(warm_mean, 1e-12):.1f} faster)")
    _print_counters("plan cache", report.stats)


def _cmd_compare(args: argparse.Namespace, runtime: Runtime) -> int:
    if args.mem_budget is not None:
        return _compare_out_of_core(args, runtime)
    algorithms = list(runtime.algorithms().values())
    gpu = runtime.config.gpu
    with runtime.runner_scope():
        results = runner.run_matrix([args.dataset], algorithms, gpu)
    base = results[(args.dataset, "row-product")].seconds
    rows = [
        [algo.name, res.seconds * 1e6, res.gflops, base / res.seconds]
        for algo in algorithms
        for res in [results[(args.dataset, algo.name)]]
    ]
    print(format_table(
        ["algorithm", "time us", "GFLOPS", "speedup"], rows,
        title=f"{args.dataset} on {gpu.name} (speedup vs row-product)",
    ))
    return 0


def _compare_out_of_core(args: argparse.Namespace, runtime: Runtime) -> int:
    """``compare --mem-budget``: every scheme chunked vs in-memory.

    Runs each of the seven schemes both ways on the same operands and
    asserts the out-of-core result is bit-identical (indptr, indices and
    data all ``array_equal``); exits non-zero on any divergence.
    """
    import numpy as np

    ctx = runtime.context(args.dataset)
    rows = []
    mismatches = 0
    for algo in runtime.algorithms().values():
        reference = algo.multiply(ctx)
        chunked, ooc = runtime.multiply_chunked_operands(algo, ctx.a_csr, ctx.b_csr)
        identical = (
            np.array_equal(reference.indptr, chunked.indptr)
            and np.array_equal(reference.indices, chunked.indices)
            and np.array_equal(reference.data, chunked.data)
        )
        mismatches += not identical
        rows.append([
            algo.name,
            "yes" if identical else "NO",
            ooc.n_panels,
            ooc.spill_count,
        ])
    print(format_table(
        ["algorithm", "bit-identical", "panels", "spills"], rows,
        title=f"{args.dataset}: out-of-core ({args.mem_budget}) vs in-memory",
    ))
    if mismatches:
        print(f"error: {mismatches} scheme(s) diverged out of core", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace, runtime: Runtime) -> int:
    if args.mem_budget is not None:
        return _bench_out_of_core(args, runtime)
    gpu = runtime.config.gpu
    datasets = args.datasets or list_names(args.collection)
    if not datasets:
        raise ReproError("no datasets selected; pass names or --collection")
    with runtime.runner_scope():
        results = runner.run_matrix(
            datasets, list(runtime.algorithms().values()), gpu
        )
    rows = [
        [name, algo, res.seconds * 1e6, res.gflops]
        for (name, algo), res in results.items()
    ]
    print(format_table(
        ["dataset", "algorithm", "time us", "GFLOPS"], rows,
        title=f"bench grid on {gpu.name} ({len(datasets)} datasets)",
    ))
    cache = runtime.result_cache
    if cache is not None:
        print(f"cache: {cache.hits} hits, {cache.misses} misses ({cache.cache_dir})")
    summary = runner.last_run_summary()
    if summary.shard_timeouts or summary.pool_failures:
        print(
            f"degraded: {summary.shard_timeouts} shard timeout(s), "
            f"{summary.pool_failures} pool failure(s) — affected shards re-ran serially"
        )
    if args.out:
        payload = [result_to_dict(res) for res in results.values()]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {len(payload)} results to {args.out}")
    return 0


def _bench_out_of_core(args: argparse.Namespace, runtime: Runtime) -> int:
    """``bench --mem-budget``: the numeric grid through the chunked executor.

    No simulator and no result cache — the interesting numbers here are
    wall-clock and the memory envelope (panels, spills, peak RSS), which are
    host-dependent and therefore never memoised.  ``--out`` records each
    cell's full ooc stats.
    """
    import time

    datasets = args.datasets or list_names(args.collection)
    if not datasets:
        raise ReproError("no datasets selected; pass names or --collection")
    rows, payload = [], []
    for dataset in datasets:
        name = runtime.resolve_dataset(dataset)
        for algo in runtime.algorithms().values():
            start = time.perf_counter()
            result, ooc = runtime.multiply_chunked(dataset, algo.name)
            seconds = time.perf_counter() - start
            rows.append([
                name, algo.name, seconds * 1e3, ooc.n_panels,
                ooc.spill_count, ooc.peak_rss_bytes // (1 << 20),
            ])
            payload.append({
                "dataset": name,
                "algorithm": algo.name,
                "seconds": seconds,
                "nnz_c": result.nnz,
                "oocore": counters.snapshot(ooc),
            })
    print(format_table(
        ["dataset", "algorithm", "time ms", "panels", "spills", "peak RSS MiB"],
        rows,
        title=f"out-of-core bench grid (budget {args.mem_budget})",
    ))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {len(payload)} results to {args.out}")
    return 0


def _cmd_plan_show(args: argparse.Namespace, runtime: Runtime) -> int:
    ctx = runtime.context(args.dataset)
    algo = runtime.algorithm(args.algorithm)
    gpu = runtime.config.gpu
    plan = algo.lower(ctx, gpu)
    print(f"{args.dataset} lowered for {gpu.name}:")
    print(format_plan(plan))
    if args.execute:
        _, records = algo.profile_plan(ctx, gpu)
        print()
        print("numeric execution:")
        print(format_executions(records))
    return 0


def _cmd_experiment(args: argparse.Namespace, runtime: Runtime) -> int:
    module = importlib.import_module(f"repro.bench.experiments.{args.name}")
    with runtime.runner_scope():
        module.main()
    return 0


def _cmd_trace(args: argparse.Namespace, runtime: Runtime) -> int:
    """Trace one dataset/algorithm cell end to end and print the span tree.

    The recorder is installed *before* the context build so the trace covers
    dataset generation and symbolic expansion, not just the simulation; a
    warm in-process cache would hide those stages, so this command clears it
    first.
    """
    from repro import obs
    from repro.datasets import loader

    gpu = runtime.config.gpu
    loader.clear_cache()
    runner.clear_context_cache()
    with runtime.recording() as recorder:
        stats = runtime.simulate(args.dataset, args.algorithm)
    print(f"trace: {args.algorithm} on {gpu.name} / {args.dataset} "
          f"({stats.total_seconds * 1e6:.1f} simulated us)")
    print(obs.format_span_tree(recorder.roots))
    rollup = obs.category_rollup(recorder.roots)
    total = sum(seconds for _, _, seconds in rollup) or 1.0
    print("wall-clock by category (self time):")
    for category, spans, seconds in rollup:
        print(f"  {category:<12s} {seconds * 1e3:9.3f} ms "
              f"({100.0 * seconds / total:5.1f}%)  spans={spans}")
    if args.out:
        obs.write_trace(args.out, recorder, meta=_trace_meta(args))
        print(f"wrote Chrome trace to {args.out} (open in Perfetto)")
    return 0


def _cmd_serve(args: argparse.Namespace, runtime: Runtime) -> int:
    from repro import serve

    try:
        admission = serve.AdmissionConfig(
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            batch_window=args.batch_window,
            max_batch=args.max_batch,
            request_timeout=args.request_timeout,
            max_inflight_flops=args.max_inflight_flops,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from None
    serve.run(
        runtime,
        serve.ServeConfig(
            host=args.host,
            port=args.port,
            admission=admission,
            trace_dir=args.trace_dir,
            trace_slow_ms=args.trace_slow_ms,
        ),
    )
    return 0


def _trace_meta(args: argparse.Namespace) -> dict:
    """Run context embedded in a Chrome trace's ``otherData`` section."""
    return {
        "tool": "repro",
        "command": args.command,
        "argv": [a for a in (sys.argv[1:] if sys.argv else []) if a],
    }


def build_parser() -> argparse.ArgumentParser:
    """Construct the full ``repro`` argparse tree (no side effects).

    Exposed separately from :func:`main` so tooling — notably
    ``tools/check_docs.py`` — can validate documented command lines against
    the real parser without executing anything.
    """
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list the dataset catalog")
    p.add_argument("--collection", choices=["florida", "stanford", "synthetic"], default=None)
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("run", help="simulate one algorithm on one dataset")
    p.add_argument("dataset")
    p.add_argument("--algorithm", default="block-reorganizer")
    p.add_argument("--gpu", default=TITAN_XP.name)
    p.add_argument("--json", action="store_true", help="dump raw counters as JSON")
    p.add_argument(
        "--iterations", type=int, default=1, metavar="N",
        help="also run the numeric plane N times through a warm session "
             "and print plan-cache amortisation counters",
    )
    _add_trace_flag(p)
    _add_oocore_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="all schemes on one dataset")
    p.add_argument("dataset")
    p.add_argument("--gpu", default=TITAN_XP.name)
    _add_exec_flags(p)
    _add_oocore_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bench", help="run a dataset x algorithm grid via the shared runner")
    p.add_argument("datasets", nargs="*", help="dataset names (default: --collection)")
    p.add_argument("--collection", choices=["florida", "stanford", "synthetic"], default=None)
    p.add_argument("--gpu", default=TITAN_XP.name)
    p.add_argument("--out", default=None, metavar="FILE", help="write results as JSON")
    _add_exec_flags(p)
    _add_oocore_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("plan", help="inspect ExecutionPlan lowerings")
    plan_sub = p.add_subparsers(dest="plan_command", required=True)
    p = plan_sub.add_parser("show", help="print one dataset/algorithm lowering")
    p.add_argument("dataset")
    p.add_argument("algorithm")
    p.add_argument("--gpu", default=TITAN_XP.name)
    p.add_argument(
        "--execute", action="store_true",
        help="also run the numeric kernel and print per-phase instrumentation",
    )
    p.set_defaults(func=_cmd_plan_show)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=_EXPERIMENTS)
    _add_exec_flags(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "trace", help="trace one dataset/algorithm cell through the pipeline"
    )
    p.add_argument("dataset")
    p.add_argument("algorithm")
    p.add_argument("--gpu", default=TITAN_XP.name)
    p.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the recorded spans as a Chrome trace (Perfetto-loadable)",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "serve", help="serve multiply/app requests over HTTP from warm sessions"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p.add_argument(
        "--port", type=int, default=8077, metavar="N",
        help="bind port (0 = pick a free one; the chosen port is printed; default 8077)",
    )
    p.add_argument(
        "--max-inflight", type=int, default=4, metavar="N",
        help="requests executing concurrently (executor width; default 4)",
    )
    p.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="admitted requests waiting beyond max-inflight before 503 (default 64)",
    )
    p.add_argument(
        "--batch-window", type=float, default=0.002, metavar="SECONDS",
        help="how long a request waits for structural twins to share a "
             "micro-batch (default 0.002)",
    )
    p.add_argument(
        "--max-batch", type=int, default=16, metavar="N",
        help="micro-batch size cap per structure fingerprint (default 16)",
    )
    p.add_argument(
        "--request-timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-request wall-clock bound before 504 (default 60)",
    )
    p.add_argument(
        "--max-inflight-flops", type=int, default=0, metavar="FLOPS",
        help="cost-aware admission: estimated-flop budget for admitted, "
             "unfinished work; requests beyond it are shed with 503 + "
             "Retry-After (0 = disabled; default 0)",
    )
    p.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="export Chrome traces of slow requests into DIR "
             "(default: disabled)",
    )
    p.add_argument(
        "--trace-slow-ms", type=float, default=250.0, metavar="MS",
        help="latency threshold for --trace-dir sampling; 0 traces every "
             "request (default 250)",
    )
    p.add_argument(
        "--plan-cache-entries", type=int, default=None, metavar="N",
        help="LRU bound on each warm session's plan cache (default 64)",
    )
    p.add_argument(
        "--sessions-per-tenant", type=int, default=None, metavar="N",
        help="warm sessions pooled per tenant before LRU eviction (default 32)",
    )
    p.add_argument("--gpu", default=TITAN_XP.name)
    p.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Builds one :class:`~repro.runtime.Runtime` from the parsed flags,
    registers it with the shutdown hooks (SIGINT/SIGTERM close it before
    the process exits), runs the command as a thin adapter over it, and
    tears it down — every session, cache and trace recorder lives inside
    the runtime, not here.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    runtime = None
    try:
        runtime = Runtime(RuntimeConfig.from_args(args))
        lifecycle.install(runtime)
        with runtime.tracing(trace_path, meta=_trace_meta(args)):
            code = args.func(args, runtime)
        if trace_path and code == 0:
            print(f"wrote Chrome trace to {trace_path} (open in Perfetto)")
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if runtime is not None:
            lifecycle.uninstall(runtime)


if __name__ == "__main__":
    raise SystemExit(main())
