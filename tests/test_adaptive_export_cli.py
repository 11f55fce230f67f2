"""Tests for the adaptive tuner, stats export and CLI."""

import itertools
import json

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveBlockReorganizer, heuristic_options
from repro.gpusim.config import TITAN_XP
from repro.gpusim.export import stats_to_dict, stats_to_json, write_stats_json
from repro.gpusim.simulator import GPUSimulator
from repro.spgemm.base import MultiplyContext
from repro.spgemm.outerproduct import OuterProductSpGEMM

from .oracle import assert_scipy_product


@pytest.fixture
def skewed_ctx(skewed_csr):
    return MultiplyContext.build(skewed_csr)


@pytest.fixture
def regular_ctx(regular_csr):
    return MultiplyContext.build(regular_csr)


class TestHeuristic:
    def test_skewed_gets_strict_alpha(self, skewed_ctx):
        options, diag = heuristic_options(skewed_ctx)
        assert diag["gini"] > 0.5
        assert options.alpha <= 0.2
        assert options.enable_splitting

    def test_regular_keeps_paper_defaults(self, regular_ctx):
        from repro.core.reorganizer import ReorganizerOptions

        options, diag = heuristic_options(regular_ctx)
        assert diag["gini"] < 0.5
        assert options == ReorganizerOptions()


class TestAdaptive:
    def test_numeric_correctness(self, skewed_ctx, skewed_csr):
        algo = AdaptiveBlockReorganizer()
        assert_scipy_product(algo.multiply(skewed_ctx), skewed_csr, skewed_csr, algo)

    def test_report_recorded(self, skewed_ctx):
        algo = AdaptiveBlockReorganizer()
        algo.tune(skewed_ctx)
        assert algo.last_report is not None
        assert algo.last_report.candidates_tried == 1

    def test_search_mode_tries_candidates(self, skewed_ctx):
        sim = GPUSimulator(TITAN_XP)
        algo = AdaptiveBlockReorganizer(search=True, simulator=sim)
        report = algo.tune(skewed_ctx)
        assert report.candidates_tried > 1
        assert report.simulated_seconds is not None

    def test_search_never_worse_than_heuristic(self, skewed_ctx):
        sim = GPUSimulator(TITAN_XP)
        heuristic = AdaptiveBlockReorganizer()
        searched = AdaptiveBlockReorganizer(search=True, simulator=sim)
        t_h = heuristic.simulate(skewed_ctx, sim).total_seconds
        t_s = searched.simulate(skewed_ctx, sim).total_seconds
        assert t_s <= t_h * 1.0001

    def test_simulation_runs(self, regular_ctx):
        sim = GPUSimulator(TITAN_XP)
        stats = AdaptiveBlockReorganizer().simulate(regular_ctx, sim)
        assert stats.total_seconds > 0


class TestExport:
    def _stats(self, ctx):
        return OuterProductSpGEMM().simulate(ctx, GPUSimulator(TITAN_XP))

    def test_dict_fields(self, regular_ctx):
        d = stats_to_dict(self._stats(regular_ctx))
        assert d["algorithm"] == "outer-product"
        assert d["gpu"] == "TITAN Xp"
        assert len(d["phases"]) == 2
        assert len(d["phases"][0]["sm_busy_cycles"]) == TITAN_XP.n_sms

    def test_json_round_trip(self, regular_ctx):
        text = stats_to_json(self._stats(regular_ctx))
        back = json.loads(text)
        assert back["total_seconds"] > 0

    def test_write_file(self, regular_ctx, tmp_path):
        path = tmp_path / "stats.json"
        write_stats_json(self._stats(regular_ctx), path)
        assert json.loads(path.read_text())["gflops"] > 0

    def test_non_jsonable_meta_dropped(self, regular_ctx):
        stats = self._stats(regular_ctx)
        stats.meta["array"] = np.zeros(3)
        stats.meta["ok"] = 5
        d = stats_to_dict(stats)
        assert "array" not in d["meta"]
        assert d["meta"]["ok"] == 5


class TestCli:
    def test_datasets(self, capsys):
        from repro.cli import main

        assert main(["datasets", "--collection", "florida"]) == 0
        out = capsys.readouterr().out
        assert "filter3d" in out

    def test_run_json(self, capsys):
        from repro.cli import main

        assert main(["run", "poisson3da", "--algorithm", "row-product", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "row-product"

    def test_compare(self, capsys):
        from repro.cli import main

        assert main(["compare", "poisson3da"]) == 0
        assert "block-reorganizer" in capsys.readouterr().out

    def test_unknown_algorithm_is_error(self, capsys):
        from repro.cli import main

        assert main(["run", "poisson3da", "--algorithm", "nope"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_unknown_gpu_is_error(self, capsys):
        from repro.cli import main

        assert main(["run", "poisson3da", "--gpu", "nope"]) == 2
        assert "unknown GPU" in capsys.readouterr().err

    def test_experiment_table1(self, capsys):
        from repro.cli import main

        assert main(["experiment", "table1_systems"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_run_iterations_prints_plan_cache_counters(self, capsys):
        from repro.cli import main

        argv = ["run", "poisson3da", "--algorithm", "row-product", "--iterations", "3"]
        assert main(argv) == 0
        counters = _counter_lines(capsys.readouterr().out, "plan cache:")
        assert (counters["lookups"], counters["hits"], counters["lowers"]) == ("3", "2", "1")

    def test_run_mem_budget_prints_ooc_counters(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main
        from repro.runtime import Runtime

        ran = []
        chunked = Runtime.multiply_chunked_operands

        def spy(self, *args):
            result, stats = chunked(self, *args)
            ran.append(stats)
            return result, stats

        monkeypatch.setattr(Runtime, "multiply_chunked_operands", spy)
        argv = ["run", "poisson3da", "--algorithm", "row-product",
                "--mem-budget", "256K", "--spill-dir", str(tmp_path)]
        assert main(argv) == 0
        counters = _counter_lines(capsys.readouterr().out, "oocore:")
        (stats,) = ran
        assert stats.spill_count > 0
        assert counters["n_panels"] == str(stats.n_panels)
        assert counters["spill_count"] == str(stats.spill_count)
        assert "panel_rows" not in counters and "merge_rounds" not in counters

    def test_trace_prints_self_time_rollup(self, capsys, tmp_path):
        from repro.cli import main

        out_file = tmp_path / "t.json"
        assert main(["trace", "poisson3da", "row-product", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        rows = out.split("wall-clock by category (self time):\n", 1)[1].splitlines()
        categories = {line.split()[0] for line in rows if "spans=" in line}
        assert {"data", "simulate"} <= categories
        assert out_file.exists()


def _counter_lines(out: str, title: str) -> dict[str, str]:
    """The ``name  value`` lines the CLI printed under ``title``."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == title) + 1
    block = itertools.takewhile(lambda line: line.startswith("    "), lines[start:])
    return dict(line.split() for line in block)
