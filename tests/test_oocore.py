"""Out-of-core chunked executor: budgets, row blocks, spills, bit-identity.

The load-bearing guarantee is that :func:`repro.oocore.chunked_multiply`
is *bit-identical* to the in-memory path — it runs the same streaming
kernel with the same walk, on row blocks capped by the budget, with the
tie ranks of one global lowering, and assembly only places each block's
entries at its rows' offsets.  These tests assert that end to end (tiny
budgets forcing many blocks and real disk spills), for every scheme
including the Block Reorganizer on power-law operands and with a single
lowering per run, plus the supporting pieces: budget parsing, the
oversized-row and empty-operand edge cases, the crash-safe spill store
(including the SIGTERM-mid-spill leak check and the full-disk and
corrupt-file faults), the ``@full`` catalog derivation and the
runtime/CLI wiring.
"""

from __future__ import annotations

import errno
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.bench.runner import paper_algorithms
from repro.core.reorganizer import BlockReorganizer
from repro.datasets.catalog import (
    FULL_SCALE_SUFFIX,
    full_scale_spec,
    get_spec,
    list_names,
)
from repro.errors import ConfigurationError, DatasetError, OutOfCoreError
from repro.obs.counters import snapshot
from repro.oocore import (
    BYTES_PER_PRODUCT,
    OocStats,
    SpillStore,
    chunked_multiply,
    parse_mem_budget,
    products_for_budget,
    sweep_stale,
)
from repro.oocore.spill import SPILL_PREFIX
from repro.plan.cache import PlanCache
from repro.plan.estimate import row_flops
from repro.runtime import Runtime, RuntimeConfig
from repro.sparse.csr import CSRMatrix
from repro.sparse.random import power_law
from repro.spgemm.base import MultiplyContext
from repro.spgemm.rowproduct import RowProductSpGEMM

from .oracle import assert_identical, assert_scipy_product


def _random_csr(rng, n_rows=80, n_cols=80, density=0.08) -> CSRMatrix:
    dense = (rng.random((n_rows, n_cols)) < density) * rng.random((n_rows, n_cols))
    dense[n_rows // 3, :] = 0.0  # an empty row exercises zero-product panels
    return CSRMatrix.from_dense(dense)


def _fail_writes_with_enospc(monkeypatch) -> None:
    """Make every ``Path.write_bytes`` write half its payload, then fail as a
    full disk does."""
    real_write = Path.write_bytes

    def write_half_then_fail(path, payload):
        real_write(path, payload[: len(payload) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)


def _reorganizer_chunked_and_in_memory(tmp_path) -> tuple[CSRMatrix, CSRMatrix]:
    """Block Reorganizer on a power-law A·A: 9 panels at ⅛ of the expansion."""
    a = power_law(n=1000, nnz=6000, seed=1).to_csr()
    algo = BlockReorganizer()
    reference = algo.multiply(MultiplyContext.build(a, a))
    budget = int(row_flops(a, a).sum()) * BYTES_PER_PRODUCT // 8
    chunked, stats = chunked_multiply(algo, a, mem_budget=budget, spill_dir=str(tmp_path))
    assert stats.n_panels > 1
    return chunked, reference


class TestParseMemBudget:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("64", 64),
            ("64B", 64),
            ("4K", 4 << 10),
            ("4KB", 4 << 10),
            ("512M", 512 << 20),
            ("2G", 2 << 30),
            ("1T", 1 << 40),
            ("1.5K", 1536),
            ("  8m ", 8 << 20),  # whitespace and case both tolerated
        ],
    )
    def test_spellings(self, text, expected):
        assert parse_mem_budget(text) == expected

    def test_int_passes_through_as_bytes(self):
        assert parse_mem_budget(4096) == 4096

    @pytest.mark.parametrize("bad", ["", "abc", "4X", "-5", "G4", "4 G B"])
    def test_unparseable_raises(self, bad):
        with pytest.raises(OutOfCoreError, match="unparseable"):
            parse_mem_budget(bad)

    @pytest.mark.parametrize("bad", ["0", "0K", 0, -1])
    def test_non_positive_raises(self, bad):
        with pytest.raises(OutOfCoreError, match="positive"):
            parse_mem_budget(bad)

    def test_products_for_budget(self):
        assert products_for_budget(BYTES_PER_PRODUCT) == 1
        assert products_for_budget(10 * BYTES_PER_PRODUCT) == 10
        assert products_for_budget(1) == 1  # floor of one product


class TestSpillStore:
    def test_roundtrip_and_content_addressing(self, tmp_path):
        keys = np.array([3, 7, 7, 9], dtype=np.int64)
        vals = np.array([1.0, 2.5, -2.5, 0.0])
        with SpillStore(tmp_path) as store:
            ticket = store.spill(keys, vals)
            again = store.spill(keys, vals)
            assert ticket == again  # identical payload, one file
            assert store.spill_count == 2
            got_keys, got_vals = store.read(ticket)
            assert np.array_equal(got_keys, keys)
            assert np.array_equal(got_vals, vals)
            assert len(list(store.path.glob("*.npz"))) == 1

    def test_read_verifies_digest(self, tmp_path):
        store = SpillStore(tmp_path)
        try:
            ticket = store.spill(
                np.array([1], dtype=np.int64), np.array([1.0])
            )
            target = store.path / f"{ticket}.npz"
            target.write_bytes(target.read_bytes() + b"x")
            with pytest.raises(OutOfCoreError, match="content check"):
                store.read(ticket)
        finally:
            store.close()

    def test_close_removes_directory_idempotently(self, tmp_path):
        store = SpillStore(tmp_path)
        spill_dir = store.path
        store.spill(np.array([1], dtype=np.int64), np.array([1.0]))
        assert spill_dir.is_dir()
        store.close()
        store.close()
        assert not spill_dir.exists()
        with pytest.raises(OutOfCoreError, match="closed"):
            store.spill(np.array([1], dtype=np.int64), np.array([1.0]))

    def test_sweep_stale_reclaims_dead_pid_dirs_only(self, tmp_path):
        # An orphan from a "dead" process: pid far beyond pid_max.
        dead = tmp_path / f"{SPILL_PREFIX}-99999999-deadbeef"
        dead.mkdir()
        alive = tmp_path / f"{SPILL_PREFIX}-{os.getpid()}-cafecafe"
        alive.mkdir()
        unrelated = tmp_path / "somebody-elses-dir"
        unrelated.mkdir()
        unparseable = tmp_path / f"{SPILL_PREFIX}-notapid-x"
        unparseable.mkdir()
        removed = sweep_stale(tmp_path)
        assert removed == [dead.name]
        assert not dead.exists()
        assert alive.is_dir() and unrelated.is_dir() and unparseable.is_dir()

    def test_new_store_sweeps_its_base(self, tmp_path):
        orphan = tmp_path / f"{SPILL_PREFIX}-99999999-feedface"
        orphan.mkdir()
        with SpillStore(tmp_path) as store:
            assert store.swept_stale == [orphan.name]
        assert not orphan.exists()

    def test_unwritable_base_raises(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory write bits")
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o555)
        with pytest.raises(OutOfCoreError, match="not writable"):
            SpillStore(locked)

    def test_full_disk_raises_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        with SpillStore(tmp_path) as store:
            _fail_writes_with_enospc(monkeypatch)
            with pytest.raises(OutOfCoreError, match=str(store.path)):
                store.spill(np.array([1], dtype=np.int64), np.array([1.0]))
            assert list(store.path.iterdir()) == []
            assert store.bytes_spilled == 0
        assert list(tmp_path.iterdir()) == []


class TestChunkedMultiply:
    def test_bit_identical_on_every_scheme_with_spills(self, rng, tmp_path):
        a = _random_csr(rng)
        ctx = MultiplyContext.build(a, a)
        for algo in paper_algorithms():
            reference = algo.multiply(ctx)
            chunked, stats = chunked_multiply(
                algo, a, mem_budget="4K", spill_dir=str(tmp_path)
            )
            assert_identical(chunked, reference)
            assert stats.n_panels > 1, algo.name
            assert stats.spill_count >= 1, algo.name
            # Each partial spills at most once: assembly never re-spills.
            assert stats.spill_count <= stats.n_panels, algo.name
        # Every store closed behind itself: base dir left empty.
        assert list(tmp_path.iterdir()) == []

    def test_block_reorganizer_power_law_keeps_structure(self, tmp_path):
        """Chunked, the power-law product is scipy's, permuted by the
        plan's tie rank."""
        chunked, _ = _reorganizer_chunked_and_in_memory(tmp_path)
        a = power_law(n=1000, nnz=6000, seed=1).to_csr()
        assert_scipy_product(chunked, a, a, BlockReorganizer())

    def test_block_reorganizer_power_law_bit_identical(self, tmp_path):
        chunked, reference = _reorganizer_chunked_and_in_memory(tmp_path)
        assert_identical(chunked, reference)

    def test_lowers_once_outside_the_panels(self, tmp_path):
        """One ``plan.lower[...]`` span per chunked run, none under the
        kernel's span: the row blocks run the global plan's kernel, not
        their own lowering."""
        a = power_law(n=1000, nnz=6000, seed=1).to_csr()
        budget = int(row_flops(a, a).sum()) * BYTES_PER_PRODUCT // 8
        recorder = obs.install()
        try:
            _, stats = chunked_multiply(
                BlockReorganizer(), a, mem_budget=budget, spill_dir=str(tmp_path)
            )
        finally:
            obs.uninstall()
        assert stats.n_panels > 1

        def walk(spans, inside_kernel):
            for span in spans:
                kernel = inside_kernel or span.name == "oocore.kernel"
                yield span, inside_kernel
                yield from walk(span.children, kernel)

        spans = list(walk(recorder.roots, False))
        assert [span.name for span, _ in spans].count("oocore.kernel") == 1
        lowerings = [
            (span, in_kernel) for span, in_kernel in spans if span.name.startswith("plan.lower[")
        ]
        assert [span.name for span, _ in lowerings] == ["plan.lower[block-reorganizer]"]
        assert not lowerings[0][1]

    def test_large_budget_single_panel_no_spill(self, rng, tmp_path):
        a = _random_csr(rng)
        algo = RowProductSpGEMM()
        reference = algo.multiply(MultiplyContext.build(a, a))
        chunked, stats = chunked_multiply(
            algo, a, mem_budget="1G", spill_dir=str(tmp_path)
        )
        assert_identical(chunked, reference)
        assert stats.n_panels == 1
        assert stats.spill_count == 0
        assert stats.bytes_spilled == 0
        assert list(tmp_path.iterdir()) == []  # store never created

    def test_stats_counters(self, rng, tmp_path):
        a = _random_csr(rng)
        _, stats = chunked_multiply(
            RowProductSpGEMM(), a, mem_budget="4K", spill_dir=str(tmp_path)
        )
        assert stats.budget_bytes == 4 << 10
        assert stats.max_products == (4 << 10) // BYTES_PER_PRODUCT
        assert stats.total_products == int(row_flops(a, a).sum())
        assert stats.resident_peak_bytes > 0
        assert stats.peak_rss_bytes > 0
        assert stats.bytes_spilled > 0
        d = snapshot(stats)
        assert "merge_rounds" not in d and "panels" not in d
        assert d["panel_rows"][0][0] == 0
        assert d["panel_rows"][-1][1] == a.n_rows
        assert d["spill_count"] == stats.spill_count

    def test_rectangular_a_times_b(self, rng, tmp_path):
        dense_a = (rng.random((40, 25)) < 0.15) * rng.random((40, 25))
        dense_b = (rng.random((25, 31)) < 0.15) * rng.random((25, 31))
        a, b = CSRMatrix.from_dense(dense_a), CSRMatrix.from_dense(dense_b)
        algo = RowProductSpGEMM()
        reference = algo.multiply(MultiplyContext.build(a, b))
        chunked, stats = chunked_multiply(
            algo, a, b, mem_budget="2K", spill_dir=str(tmp_path)
        )
        assert_identical(chunked, reference)
        assert stats.n_panels > 1

    def test_oversized_rows_counted(self, rng, tmp_path):
        """A one-product budget leaves every row with more than one product
        alone in an oversized block: the budget is overrun, never a row
        split, and the result is still the in-memory one."""
        a = _random_csr(rng)
        algo = RowProductSpGEMM()
        reference = algo.multiply(MultiplyContext.build(a, a))
        chunked, stats = chunked_multiply(
            algo, a, mem_budget=BYTES_PER_PRODUCT, spill_dir=str(tmp_path)
        )
        assert_identical(chunked, reference)
        work = row_flops(a, a)
        assert stats.max_products == 1
        assert stats.n_oversized == int((work > 1).sum()) > 0
        oversized = [blk for blk in stats.panels if blk.hi - blk.lo > stats.max_products]
        assert len(oversized) == stats.n_oversized
        assert all(blk.stop - blk.start == 1 for blk in oversized)

    def test_zero_row_a_gives_empty_c_and_no_spill_store(self, tmp_path):
        a = CSRMatrix(
            (0, 5),
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
        b = CSRMatrix(
            (5, 5),
            np.zeros(6, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
        chunked, stats = chunked_multiply(
            RowProductSpGEMM(), a, b, mem_budget=BYTES_PER_PRODUCT, spill_dir=str(tmp_path)
        )
        assert chunked.shape == (0, 5) and chunked.nnz == 0
        assert np.array_equal(chunked.indptr, [0])
        assert (stats.n_panels, stats.total_products, stats.spill_count) == (0, 0, 0)
        assert list(tmp_path.iterdir()) == []  # store never created

    def test_all_zero_matrix(self):
        a = CSRMatrix(
            (6, 6),
            np.zeros(7, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )
        chunked, stats = chunked_multiply(RowProductSpGEMM(), a, mem_budget="1K")
        assert chunked.nnz == 0
        assert chunked.shape == (6, 6)
        assert np.array_equal(chunked.indptr, np.zeros(7, dtype=np.int64))
        assert stats.spill_count == 0

    def test_bad_arguments_raise(self, rng):
        a = _random_csr(rng, n_rows=10, n_cols=10)
        with pytest.raises(OutOfCoreError):
            chunked_multiply(RowProductSpGEMM(), a, mem_budget="nonsense")

    def test_spill_write_failure_raises_out_of_core_error(self, rng, tmp_path, monkeypatch):
        """A full disk mid-run takes the ``ReproError`` path, not a raw
        ``OSError``, and the run's spill directory is still removed."""
        _fail_writes_with_enospc(monkeypatch)
        with pytest.raises(OutOfCoreError, match="No space left"):
            chunked_multiply(
                RowProductSpGEMM(), _random_csr(rng), mem_budget="4K", spill_dir=str(tmp_path)
            )
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_spill_file_raises_instead_of_returning(self, rng, tmp_path, monkeypatch):
        """A spilled partial corrupted on disk before assembly reads it back
        fails its digest check; no result is returned."""
        real_spill = SpillStore.spill
        corrupted: set[str] = set()

        def spill_then_flip_a_byte(store, indices, data):
            ticket = real_spill(store, indices, data)
            if ticket not in corrupted:  # content-addressed: flip each file once
                target = store.path / f"{ticket}.npz"
                raw = bytearray(target.read_bytes())
                raw[len(raw) // 2] ^= 0xFF
                target.write_bytes(bytes(raw))
                corrupted.add(ticket)
            return ticket

        monkeypatch.setattr(SpillStore, "spill", spill_then_flip_a_byte)
        with pytest.raises(OutOfCoreError, match="content check"):
            chunked_multiply(
                RowProductSpGEMM(), _random_csr(rng), mem_budget="4K", spill_dir=str(tmp_path)
            )
        assert corrupted
        assert list(tmp_path.iterdir()) == []

    def test_oocstats_is_jsonable(self):
        import json

        stats = OocStats(budget_bytes=1024, max_products=21)
        json.dumps(snapshot(stats))  # must not raise


class TestFullScaleCatalog:
    def test_full_scale_rescales_to_paper_dim(self):
        base = get_spec("loc_gowalla")
        full = get_spec("loc_gowalla" + FULL_SCALE_SUFFIX)
        assert full.name == "loc_gowalla@full"
        assert full.params["n"] == base.paper_dim
        assert full.seed == base.seed
        assert full_scale_spec("loc_gowalla") is full  # cached

    def test_full_scale_never_listed(self):
        assert not any(FULL_SCALE_SUFFIX in name for name in list_names(None))

    def test_synthetic_families_refuse_full_scale(self):
        with pytest.raises(DatasetError):
            get_spec("s1" + FULL_SCALE_SUFFIX)

    def test_unknown_base_raises(self):
        with pytest.raises(DatasetError):
            get_spec("no_such_dataset" + FULL_SCALE_SUFFIX)


class TestRuntimeWiring:
    def test_config_from_cli_args(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "run",
                "harbor",
                "--mem-budget",
                "4M",
                "--spill-dir",
                str(tmp_path),
                "--full-scale",
            ]
        )
        config = RuntimeConfig.from_args(args)
        assert config.mem_budget == 4 << 20
        assert config.spill_dir == str(tmp_path)
        assert config.full_scale is True

    def test_flags_registered_on_all_chunkable_commands(self):
        from repro.cli import OOCORE_FLAGS, build_parser

        parser = build_parser()
        for command in ("run", "compare", "bench"):
            argv = [command, "harbor"]
            for flag in OOCORE_FLAGS:
                argv += [flag, "1M"] if flag != "--full-scale" else [flag]
            args = parser.parse_args(argv)
            assert args.mem_budget == "1M"

    def test_config_rejects_non_positive_budget(self):
        with pytest.raises(ConfigurationError, match="mem_budget"):
            RuntimeConfig(mem_budget=0)

    def test_runtime_multiply_routes_through_chunked(self, rng, tmp_path):
        a = _random_csr(rng)
        reference = RowProductSpGEMM().multiply(MultiplyContext.build(a, a))
        with Runtime(
            RuntimeConfig(mem_budget=4 << 10, spill_dir=str(tmp_path))
        ) as rt:
            outcome = rt.multiply("row-product", a, a)
            assert_identical(outcome.result, reference)
            assert outcome.replayed is False
            stats = rt.ooc_stats()
            assert stats is not None and stats.spill_count >= 1
        assert list(tmp_path.iterdir()) == []

    def test_resolve_dataset_appends_full_suffix(self):
        with Runtime(RuntimeConfig(full_scale=True)) as rt:
            assert rt.resolve_dataset("harbor") == "harbor" + FULL_SCALE_SUFFIX
        with Runtime(RuntimeConfig()) as rt:
            assert rt.resolve_dataset("harbor") == "harbor"

    def test_session_multiply_chunked(self, rng, tmp_path):
        a = _random_csr(rng)
        cache = PlanCache(RowProductSpGEMM())
        reference = cache.multiply(a, a)
        chunked, stats = chunked_multiply(
            cache.algorithm, a, a, mem_budget="4K", spill_dir=str(tmp_path)
        )
        assert_identical(chunked, reference)
        assert stats.n_panels > 1
        # The plan cache is bypassed: chunked runs add no cached structures.
        assert (cache.stats.lowers, len(cache)) == (1, 1)


_SPILL_SIGTERM_SCRIPT = """
import sys
import numpy as np
from repro.oocore.spill import SpillStore

store = SpillStore(sys.argv[1])
store.spill(np.arange(1000, dtype=np.int64), np.ones(1000))
print("ready", flush=True)
import time
time.sleep(60)
"""


class TestSpillLifecycle:
    def test_sigterm_mid_spill_leaves_no_temp_files(self, tmp_path):
        """Satellite: SIGTERM with spilled partials on disk leaks nothing."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-c", _SPILL_SIGTERM_SCRIPT, str(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready", proc.stderr.read()
            live = list(tmp_path.glob(f"{SPILL_PREFIX}-*"))
            assert live, "store should have created its spill directory"
            assert list(live[0].glob("*.npz")), "partial should be on disk"
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait(timeout=10)
        assert code == -signal.SIGTERM  # conventional signal death, post-sweep
        leaked = list(tmp_path.glob(f"{SPILL_PREFIX}-*"))
        assert not leaked, f"leaked spill dirs: {leaked}"
