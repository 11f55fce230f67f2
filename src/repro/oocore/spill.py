"""Disk spill store for out-of-core partial products.

When the chunked executor's resident partials exceed the memory budget, the
oldest partial (one row panel's column indices and values, its CSR row
slice of C) is written to disk and its arrays dropped until assembly reads
it back.  The store owns one private directory per process —
``<base>/repro-oocore-<pid>-<token>/`` — so concurrent runs sharing a
``--spill-dir`` never collide, and files are content-addressed by the
SHA-256 of their payload so a re-spill of identical data is a no-op and
read-back can verify integrity.

Crash safety: the store registers with :mod:`repro.runtime.lifecycle`,
whose SIGINT/SIGTERM/atexit sweep calls :meth:`SpillStore.close` and
removes the directory before the process dies.  Directories orphaned by an unsweepable death (SIGKILL) are
reclaimed by :func:`sweep_stale`, which every new store runs against its
base directory: a leftover ``repro-oocore-<pid>-*`` directory whose pid is
no longer alive is deleted.
"""

from __future__ import annotations

import hashlib
import io
import os
import secrets
import shutil
from pathlib import Path

import numpy as np

from repro.errors import OutOfCoreError
from repro.runtime import lifecycle

__all__ = ["SPILL_PREFIX", "SpillStore", "sweep_stale"]

#: Directory-name prefix for per-process spill directories.
SPILL_PREFIX = "repro-oocore"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, owned elsewhere
        return True
    return True


def sweep_stale(base: Path) -> list[str]:
    """Delete orphaned spill directories under ``base``; return their names.

    A directory is orphaned when it matches ``repro-oocore-<pid>-*`` and no
    process with that pid is alive — the owner died without its lifecycle
    sweep (SIGKILL, power loss).  Unparseable names are left alone.
    """
    removed: list[str] = []
    if not base.is_dir():
        return removed
    for entry in base.iterdir():
        if not entry.is_dir() or not entry.name.startswith(SPILL_PREFIX + "-"):
            continue
        parts = entry.name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        if _pid_alive(pid):
            continue
        shutil.rmtree(entry, ignore_errors=True)
        removed.append(entry.name)
    return removed


class SpillStore:
    """Content-addressed on-disk store for spilled ``(indices, data)`` partials.

    ``spill`` returns an opaque ticket (the content digest); ``read`` loads
    the arrays back and re-verifies the digest.  ``close`` removes the whole
    per-process directory; it is idempotent and also runs from the runtime
    lifecycle sweeper on SIGINT/SIGTERM/interpreter exit.
    """

    def __init__(self, base: str | os.PathLike | None = None) -> None:
        root = Path(base) if base is not None else Path(os.environ.get("TMPDIR", "/tmp"))
        try:
            root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutOfCoreError(f"cannot create spill directory {root}: {exc}") from exc
        if not os.access(root, os.W_OK):
            raise OutOfCoreError(f"spill directory {root} is not writable")
        self.swept_stale = sweep_stale(root)
        self._dir = root / f"{SPILL_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        self._dir.mkdir()
        self._closed = False
        self.bytes_spilled = 0
        self.spill_count = 0
        lifecycle.install(self)

    @property
    def path(self) -> Path:
        """The per-process spill directory (exists until :meth:`close`)."""
        return self._dir

    def spill(self, indices: np.ndarray, data: np.ndarray) -> str:
        """Write one partial to disk; return its content-digest ticket.

        A failed write (a full disk, say) raises :class:`OutOfCoreError`
        and leaves no temporary file behind.
        """
        if self._closed:
            raise OutOfCoreError("spill store is closed")
        buf = io.BytesIO()
        np.savez(buf, indices=np.asarray(indices, dtype=np.int64),
                 data=np.asarray(data, dtype=np.float64))
        payload = buf.getvalue()
        digest = hashlib.sha256(payload).hexdigest()
        target = self._dir / f"{digest}.npz"
        if not target.exists():
            # Write-then-rename so a partial write from a crash mid-spill
            # never masquerades as a complete, content-verified file.
            tmp = target.with_suffix(".tmp")
            try:
                tmp.write_bytes(payload)
                os.replace(tmp, target)
            except OSError as exc:
                tmp.unlink(missing_ok=True)
                raise OutOfCoreError(
                    f"cannot write a spilled partial to {self._dir}: {exc}"
                ) from exc
            self.bytes_spilled += len(payload)
        self.spill_count += 1
        return digest

    def read(self, ticket: str) -> tuple[np.ndarray, np.ndarray]:
        """Load a spilled partial back; verify its content digest."""
        target = self._dir / f"{ticket}.npz"
        try:
            payload = target.read_bytes()
        except OSError as exc:
            raise OutOfCoreError(f"spilled partial {ticket} unreadable: {exc}") from exc
        if hashlib.sha256(payload).hexdigest() != ticket:
            raise OutOfCoreError(f"spilled partial {ticket} failed its content check")
        with np.load(io.BytesIO(payload)) as archive:
            return archive["indices"], archive["data"]

    def close(self) -> None:
        """Remove the spill directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
