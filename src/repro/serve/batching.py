"""Micro-batching and admission control for the serve front-end.

Requests are keyed by ``(tenant, route, algorithm, structure fingerprint)``.
Requests sharing a key within one batch window are dispatched as a single
executor task that runs them back-to-back on the same warm plan cache:
the first pays any symbolic lowering, the rest replay numerically — one
symbolic pass amortised across callers, which is the entire point of
serving this workload from a long-lived process.

Admission control is **cost-aware**: each request arrives with an estimated
flop cost (:func:`repro.plan.estimate.multiply_flops`, computed by the
server at the trust boundary), and the batcher keeps a ledger of admitted,
unfinished flops.  A request is shed (:class:`Overloaded` → HTTP 503) when
either bound trips:

* **queue** — more than ``max_inflight + max_queue`` requests are already
  admitted (the pre-existing depth bound; the backstop when cost admission
  is off or estimates are zero);
* **cost** — ``max_inflight_flops > 0`` and admitting the request's cost
  would push the ledger past the budget.  An oversized request (cost >
  budget) is shed even on an idle server — it could never be admitted, so
  failing fast beats queueing it forever.

Shed responses carry a ``retry_after`` hint derived from the *observed
drain rate*: completed work per second since the server started (flops for
cost sheds, requests for queue sheds).  ``excess / rate``, clamped to
``[1, 60]`` seconds — under sustained overload nothing drains, the rate
estimate decays, and the hint grows monotonically, which is exactly the
back-off a well-behaved client should apply.

The flop ledger decrements when the *work completes*, not when the caller
gives up: a client timeout (HTTP 504) does not un-spend the compute still
running on the executor.

Each caller waits at most ``request_timeout`` seconds for its result
(HTTP 504; the batch keeps running — results land in the warm cache).
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.obs.counters import counter, gauge

__all__ = [
    "RETRY_AFTER_MAX",
    "AdmissionConfig",
    "BatchStats",
    "MicroBatcher",
    "Overloaded",
]

#: Ceiling (seconds) on the Retry-After hint; also the value used when no
#: work has drained yet (no rate to extrapolate from).
RETRY_AFTER_MAX = 60


class Overloaded(Exception):
    """The request was shed by admission control (HTTP 503).

    Attributes:
        reason: ``"queue"`` (depth bound) or ``"cost"`` (flop budget).
        retry_after: suggested client back-off in whole seconds, derived
            from the observed drain rate and clamped to
            ``[1, RETRY_AFTER_MAX]``.
    """

    def __init__(self, message: str, *, reason: str = "queue", retry_after: int = 1):
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


@dataclass(frozen=True)
class AdmissionConfig:
    """Concurrency, queueing, batching and cost bounds for one server."""

    max_inflight: int = 4
    max_queue: int = 64
    batch_window: float = 0.002
    max_batch: int = 16
    request_timeout: float = 60.0
    max_inflight_flops: int = 0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {self.batch_window}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be > 0, got {self.request_timeout}"
            )
        if self.max_inflight_flops < 0:
            raise ValueError(
                f"max_inflight_flops must be >= 0 (0 disables cost admission), "
                f"got {self.max_inflight_flops}"
            )


@dataclass
class BatchStats:
    """Counters the ``/stats`` route exposes for the batching layer.

    ``rejected`` remains the total shed count (pre-existing key);
    ``shed_queue`` + ``shed_cost`` break it down by reason.  ``completed``
    and ``drained_flops`` count *finished executor work* — the denominators
    of the drain rates behind ``retry_after_last``, the hint sent with the
    most recent 503.
    """

    admitted: int = counter("Requests past admission control.")
    rejected: int = counter("Requests shed by admission control (shed_queue + shed_cost).")
    shed_queue: int = counter("Sheds by the depth bound (--max-inflight + --max-queue).")
    shed_cost: int = counter("Sheds by the flop budget (--max-inflight-flops).")
    timeouts: int = counter("Requests that hit --request-timeout (504).")
    batches: int = counter("Micro-batches dispatched.")
    batched_requests: int = counter("Requests carried by dispatched micro-batches.")
    largest_batch: int = gauge("Largest micro-batch dispatched so far.")
    completed: int = counter("Work items the executor finished, timed-out callers included.")
    drained_flops: int = counter("Estimated flops of completed work.", unit="flops")
    retry_after_last: int = gauge(
        "Retry-After sent with the most recent shed response.", unit="seconds"
    )


@dataclass
class _Batch:
    items: list = field(default_factory=list)
    timer: object = None
    dispatched: bool = False


class MicroBatcher:
    """Groups same-key requests into executor tasks; enforces admission.

    Must be used from a single event loop; the work callables run on the
    owned :class:`ThreadPoolExecutor` (width = ``max_inflight``) and their
    results are posted back to the loop thread-safely.  All admission state
    (inflight count, flop ledger, stats) mutates on the loop thread only.
    """

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self.stats = BatchStats()
        self._open: dict[tuple, _Batch] = {}
        self._inflight = 0
        self._inflight_flops = 0
        self._started = time.monotonic()
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_inflight, thread_name_prefix="repro-serve"
        )

    @property
    def inflight_flops(self) -> int:
        """Estimated flops of admitted work that has not finished executing."""
        return self._inflight_flops

    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting behind the ``max_inflight`` executors."""
        return max(0, self._inflight - self.config.max_inflight)

    def _retry_after(self, excess: float, rate: float) -> int:
        """Seconds until ``excess`` units drain at ``rate`` units/second."""
        if rate <= 0.0:
            return RETRY_AFTER_MAX
        return int(min(RETRY_AFTER_MAX, max(1, math.ceil(excess / rate))))

    def _shed(self, reason: str, excess: float, rate: float, message: str):
        retry_after = self._retry_after(excess, rate)
        self.stats.rejected += 1
        if reason == "cost":
            self.stats.shed_cost += 1
        else:
            self.stats.shed_queue += 1
        self.stats.retry_after_last = retry_after
        raise Overloaded(message, reason=reason, retry_after=retry_after)

    def admit(self, cost: int = 0) -> None:
        """Check both admission bounds for a request of estimated ``cost``.

        Raises :class:`Overloaded` (with reason and retry hint) without
        mutating the ledger; on success the caller proceeds to
        :meth:`submit`, which spends the admission.
        """
        elapsed = max(1e-9, time.monotonic() - self._started)
        capacity = self.config.max_inflight + self.config.max_queue
        if self._inflight >= capacity:
            self._shed(
                "queue",
                excess=self._inflight - capacity + 1,
                rate=self.stats.completed / elapsed,
                message=(
                    f"at capacity ({self._inflight} in flight, "
                    f"max {self.config.max_inflight} + queue {self.config.max_queue})"
                ),
            )
        budget = self.config.max_inflight_flops
        if budget > 0 and cost > 0 and self._inflight_flops + cost > budget:
            self._shed(
                "cost",
                excess=self._inflight_flops + cost - budget,
                rate=self.stats.drained_flops / elapsed,
                message=(
                    f"flop budget exceeded (estimated cost {cost}, "
                    f"{self._inflight_flops} in flight, budget {budget})"
                ),
            )

    async def submit(self, key: tuple, work, cost: int = 0) -> object:
        """Admit ``work`` under ``key``, await (with timeout) its result.

        ``cost`` is the request's estimated flop count; it is charged to
        the inflight ledger on admission and drained when the executor
        finishes the work (a caller timeout does not refund it).  Raises
        :class:`Overloaded` when shed and :class:`TimeoutError` after
        ``request_timeout`` seconds.
        """
        loop = asyncio.get_running_loop()
        self.admit(cost)
        self._inflight += 1
        self._inflight_flops += cost
        self.stats.admitted += 1
        future: asyncio.Future = loop.create_future()
        future.add_done_callback(self._release)
        self._enqueue(loop, key, work, future, cost)
        try:
            return await asyncio.wait_for(future, self.config.request_timeout)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            raise TimeoutError(
                f"request exceeded {self.config.request_timeout}s"
            ) from None

    def _release(self, future) -> None:
        self._inflight -= 1

    def _drain(self, cost: int) -> None:
        """Loop-thread ledger update for one *finished* piece of work."""
        self._inflight_flops -= cost
        self.stats.completed += 1
        self.stats.drained_flops += cost

    def _enqueue(self, loop, key: tuple, work, future, cost: int) -> None:
        batch = self._open.get(key)
        if batch is None or batch.dispatched:
            batch = _Batch()
            self._open[key] = batch
            batch.timer = loop.call_later(
                self.config.batch_window, self._dispatch, loop, key, batch
            )
        batch.items.append((work, future, cost))
        if len(batch.items) >= self.config.max_batch:
            self._dispatch(loop, key, batch)

    def _dispatch(self, loop, key: tuple, batch: _Batch) -> None:
        if batch.dispatched:
            return
        batch.dispatched = True
        if batch.timer is not None:
            batch.timer.cancel()
        if self._open.get(key) is batch:
            del self._open[key]
        self.stats.batches += 1
        self.stats.batched_requests += len(batch.items)
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch.items))
        self._executor.submit(self._run_batch, loop, list(batch.items))

    def _run_batch(self, loop, items) -> None:
        """Executor side: run a batch back-to-back, post results to the loop."""
        for work, future, cost in items:
            try:
                result = work()
            except BaseException as exc:  # delivered to the awaiting handler
                loop.call_soon_threadsafe(_resolve, future, None, exc)
            else:
                loop.call_soon_threadsafe(_resolve, future, result, None)
            loop.call_soon_threadsafe(self._drain, cost)

    def close(self) -> None:
        """Stop accepting work and drain the executor."""
        for batch in self._open.values():
            if batch.timer is not None:
                batch.timer.cancel()
        self._open.clear()
        self._executor.shutdown(wait=True)


def _resolve(future, result, exc) -> None:
    """Complete a future unless its awaiter already timed out."""
    if future.done():
        return
    if exc is not None:
        future.set_exception(exc)
    else:
        future.set_result(result)
