"""Tests for the benchmark's own scaffolding (not for the program).

Run from the checkout root::

    python3 -m pytest perfbench/
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
import serveload  # noqa: E402
import stats  # noqa: E402
from repro.sparse.csr import CSRMatrix  # noqa: E402


def op(ms: float, ok: bool = True, kind: str = "cold") -> dict:
    return {"kind": kind, "cls": "banded", "ms": ms, "ok": ok}


class TestTail:
    def test_leaves_ten_samples_beyond(self):
        xs = list(range(100, 0, -1))  # unsorted on purpose
        value, pct, n = stats.tail(xs)
        assert (value, pct, n) == (90, 90.0, 100)
        assert sum(1 for x in xs if x > value) == stats.TAIL_BEYOND

    def test_percentile_grows_with_samples(self):
        _, pct, _ = stats.tail([1.0] * 40)
        assert pct == 75.0

    def test_too_few_samples_fall_back_to_max(self):
        assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)

    def test_summary_records_percentile_and_count(self):
        ops = [op(float(i)) for i in range(1, 21)] + [op(1.0, kind="warm")]
        metrics, tails = stats.summarize(ops)
        assert metrics["cold_p50_ms"] == 10.5
        assert metrics["cold_tail_ms"] == 10.0
        assert tails["cold_tail_ms"] == {"percentile": 50.0, "n": 20}
        assert metrics["warm_p50_ms"] == metrics["warm_tail_ms"] == 1.0


class TestFailAccounting:
    @pytest.fixture
    def a(self):
        return inputs.structure(7, "multiply", 0)

    @pytest.fixture
    def product(self, a):
        import scipy.sparse as sp

        m = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
        c = (m @ m).tocsr()
        c.sort_indices()
        return CSRMatrix(c.shape, c.indptr.astype(np.int64), c.indices.astype(np.int64), c.data)

    def test_gate_accepts_the_right_result(self, a, product):
        assert inputs.oracle_mismatch(a, product) is None

    def test_gate_fires_on_a_wrong_value(self, a, product):
        data = product.data.copy()
        data[len(data) // 2] *= 1 + 1e-9
        wrong = CSRMatrix(product.shape, product.indptr, product.indices, data)
        assert inputs.oracle_mismatch(a, wrong) is not None
        assert inputs.digest(wrong) != inputs.digest(product)

    def test_gate_fires_on_a_wrong_structure(self, a, product):
        indices = product.indices.copy()
        indices[0] = (indices[0] + 1) % product.shape[1]
        wrong = CSRMatrix(product.shape, product.indptr, indices, product.data)
        assert inputs.oracle_mismatch(a, wrong) is not None

    def test_wrong_result_counts_as_failed_and_missed(self):
        ops = [op(5.0) for _ in range(30)] + [op(0.1, ok=False)]
        assert stats.failures(ops) == 1
        assert stats.ok_ratio(ops) == 30 / 31
        assert max(stats.latencies(ops, "cold")) == math.inf
        assert stats.summarize([op(0.1, ok=False)])[0]["cold_p50_ms"] == stats.MISSED_MS

    @pytest.mark.parametrize("status", [503, 504, 500, 400, 0])
    def test_error_reply_counts_as_failed_and_missed(self, status):
        record = {"kind": "warm", "cls": "banded", "ms": 1.0, "status": status}
        serveload.settle(record, expected_digest="d")
        assert not record["ok"]
        assert stats.failures([record]) == 1
        assert stats.latencies([record], "warm") == [math.inf]

    def test_served_digest_must_match_reference(self):
        good = {"kind": "warm", "ms": 1.0, "status": 200, "digest": "d"}
        bad = {"kind": "warm", "ms": 1.0, "status": 200, "digest": "x"}
        assert serveload.settle(good, "d")["ok"]
        assert not serveload.settle(bad, "d")["ok"]
        assert not serveload.settle(dict(good), "d", mismatch="oracle disagrees")["ok"]


class TestPeakRss:
    def test_parses_status_text(self):
        text = "Name:\tpython3\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n"
        assert stats.parse_vmhwm(text) == 200.0

    def test_missing_line_is_an_error(self):
        with pytest.raises(ValueError):
            stats.parse_vmhwm("Name:\tx\n")

    def test_reads_a_live_child_process(self):
        code = "import sys; b = b'x' * (64 << 20); print('ready', flush=True); sys.stdin.read()"
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            peak = stats.vmhwm_mib(proc.pid)
        finally:
            proc.stdin.close()
            proc.wait(timeout=30)
        assert proc.returncode == 0
        assert 64 <= peak < 1024


class TestSchedule:
    def test_one_in_eight_is_a_new_structure(self):
        kinds = [serveload.schedule(i)[2] for i in range(80)]
        assert kinds.count("cold") == 10
        cold = [serveload.schedule(i)[0] for i in range(80) if serveload.schedule(i)[2] == "cold"]
        assert cold == list(range(serveload.POOL, serveload.POOL + 10))

    def test_warm_requests_cycle_the_pool_with_fresh_values(self):
        warm = [serveload.schedule(i) for i in range(48) if serveload.schedule(i)[2] == "warm"]
        assert {index for index, _, _ in warm} == set(range(serveload.POOL))
        assert len({(index, rep) for index, rep, _ in warm}) == len(warm)
        assert all(rep >= 1 for _, rep, _ in warm)

    def test_class_mix_is_two_to_one(self):
        classes = [inputs.structure_class(i) for i in range(30)]
        assert classes.count("banded") == 2 * classes.count("power_law")

    def test_operands_repeat_per_seed(self):
        a = inputs.operand(3, "serve", 4, 2, "serve")
        b = inputs.operand(3, "serve", 4, 2, "serve")
        c = inputs.operand(4, "serve", 4, 2, "serve")
        assert inputs.digest(a) == inputs.digest(b) != inputs.digest(c)
