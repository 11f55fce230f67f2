"""Shutdown hooks: close runtimes and spill stores on SIGINT/SIGTERM/exit.

An out-of-core :class:`~repro.oocore.spill.SpillStore` owns a private spill
directory that can hold gigabytes of partial products.  A SIGTERM delivered
mid-multiply would kill the process before any ``finally`` block ran,
leaving that directory behind.  :func:`install` registers a signal-chaining
handler plus an ``atexit`` hook that close every registered object — spill
stores remove their directories, runtimes drop their cached recipes — before
the process dies with the original signal's conventional exit status.

Usage (the CLI and ``repro serve`` both do this)::

    runtime = Runtime(config)
    lifecycle.install(runtime)
    try:
        ...
    finally:
        lifecycle.uninstall(runtime)   # also closes it
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import weakref

__all__ = ["HANDLED_SIGNALS", "install", "installed_count", "uninstall"]

#: Signals that trigger a runtime sweep before the process exits.
HANDLED_SIGNALS = (signal.SIGINT, signal.SIGTERM)

_lock = threading.Lock()
# Registered runtimes, weakly held: a runtime that is garbage collected
# (its own finalizers already ran) must not be kept alive by the hook.
_runtimes: "weakref.WeakSet" = weakref.WeakSet()
_previous: dict[int, object] = {}
_installed = False


def install(runtime) -> None:
    """Register ``runtime`` for cleanup on signal or interpreter exit.

    Idempotent per runtime.  The process-wide handlers are installed on
    first use and only from the main thread (signal module restriction);
    off-main-thread callers still get ``atexit`` coverage.
    """
    global _installed
    with _lock:
        _runtimes.add(runtime)
        if _installed:
            return
        _installed = True
    atexit.register(close_all)
    if threading.current_thread() is threading.main_thread():
        for sig in HANDLED_SIGNALS:
            _previous[sig] = signal.signal(sig, _handle)


def uninstall(runtime) -> None:
    """Close ``runtime`` and stop tracking it (signal handlers stay)."""
    with _lock:
        _runtimes.discard(runtime)
    runtime.close()


def installed_count() -> int:
    """How many live runtimes the hooks are currently guarding."""
    with _lock:
        return len(_runtimes)


def close_all() -> None:
    """Close every registered runtime (idempotent, exception-swallowing)."""
    with _lock:
        runtimes = list(_runtimes)
    for runtime in runtimes:
        try:
            runtime.close()
        except Exception:  # pragma: no cover - best effort during teardown
            pass


def _handle(signum, frame) -> None:
    """Chain: sweep runtimes, then deliver the signal's default outcome."""
    close_all()
    previous = _previous.get(signum)
    if callable(previous):
        # Includes signal.default_int_handler, which raises KeyboardInterrupt.
        previous(signum, frame)
        return
    # Re-deliver with the default disposition so the exit status is the
    # conventional 128+signum that supervisors (and our tests) expect.
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _reset_for_tests() -> None:
    """Restore pristine module state (test helper; not part of the API)."""
    global _installed
    with _lock:
        _runtimes.clear()
        _installed = False
    for sig, previous in list(_previous.items()):
        try:
            signal.signal(sig, previous)  # type: ignore[arg-type]
        except (ValueError, TypeError):  # pragma: no cover - non-main thread
            pass
    _previous.clear()
