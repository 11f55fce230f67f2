"""Admission control for the serve front-end.

A request that passes admission goes straight to a free thread of the
executor.  Nothing waits for same-structure twins: the tenant's
:class:`~repro.plan.cache.PlanCache` already lowers each structure once,
however many callers reach it at the same time.

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

Both bounds release when the *work completes*, not when the caller gives
up: a client timeout (HTTP 504) neither frees its depth slot nor un-spends
the compute still running or queued on the executor, so repeated timeouts
cannot pile up work past ``max_inflight + max_queue``.

Each caller waits at most ``request_timeout`` seconds for its result
(HTTP 504; the work keeps running — its recipe lands in the warm cache).
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.obs.counters import counter, derived, gauge
from repro.obs.serving import NULL_REQUEST_TRACE

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
    """Concurrency, queueing and cost bounds for one server."""

    max_inflight: int = 4
    max_queue: int = 64
    request_timeout: float = 60.0
    max_inflight_flops: int = 0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
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
    """Counters the ``/stats`` route exposes for admission control.

    ``rejected`` remains the total shed count (pre-existing key);
    ``shed_queue`` + ``shed_cost`` break it down by reason.  ``completed``
    and ``drained_flops`` count *finished executor work* — the denominators
    of the drain rates behind ``retry_after_last``, the hint sent with the
    most recent 503.  Each dispatch carries one admitted request, so
    ``batches`` and ``batched_requests`` both read ``admitted``.
    """

    admitted: int = counter("Requests past admission control.")
    rejected: int = counter("Requests shed by admission control (shed_queue + shed_cost).")
    shed_queue: int = counter("Sheds by the depth bound (--max-inflight + --max-queue).")
    shed_cost: int = counter("Sheds by the flop budget (--max-inflight-flops).")
    timeouts: int = counter("Requests that hit --request-timeout (504).")
    completed: int = counter("Work items the executor finished, timed-out callers included.")
    drained_flops: int = counter("Estimated flops of completed work.", unit="flops")
    retry_after_last: int = gauge(
        "Retry-After sent with the most recent shed response.", unit="seconds"
    )

    @derived(counter("Dispatches to the executor; one request each, so it equals admitted."))
    def batches(self) -> int:
        return self.admitted

    @derived(counter("Requests carried by executor dispatches; equals admitted."))
    def batched_requests(self) -> int:
        return self.admitted


class MicroBatcher:
    """Admits each request and hands it straight to its executor.

    Must be used from a single event loop; the work callables run on the
    owned :class:`ThreadPoolExecutor` (width = ``max_inflight``) and their
    results are posted back to the loop thread-safely.  All admission state
    (inflight count, flop ledger, stats) mutates on the loop thread only.
    """

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self.stats = BatchStats()
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

    def _admit(self, cost: int) -> None:
        """Check both admission bounds for a request of estimated ``cost``.

        Raises :class:`Overloaded` (with reason and retry hint) without
        mutating the ledger.
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

    async def submit(self, work, cost: int = 0, trace=NULL_REQUEST_TRACE) -> object:
        """Admit ``work``, run it on a free executor thread, await its result.

        ``cost`` is the request's estimated flop count; it and the
        request's depth slot are charged on admission and released when
        the executor finishes the work (a caller timeout refunds neither).
        ``trace`` (a :class:`~repro.obs.serving.RequestTrace`) receives the
        ``admission`` stage and the ``batch_wait`` stage, the wait for a
        free executor thread.  Raises :class:`Overloaded` when shed and
        :class:`TimeoutError` after ``request_timeout`` seconds.
        """
        loop = asyncio.get_running_loop()
        with trace.stage("admission", estimated_flops=cost):
            self._admit(cost)
        self._inflight += 1
        self._inflight_flops += cost
        self.stats.admitted += 1
        future: asyncio.Future = loop.create_future()
        self._executor.submit(
            self._run, loop, work, future, cost, trace, trace.elapsed()
        )
        try:
            return await asyncio.wait_for(future, self.config.request_timeout)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            raise TimeoutError(
                f"request exceeded {self.config.request_timeout}s"
            ) from None

    def _drain(self, cost: int) -> None:
        """Loop-thread ledger update for one *finished* piece of work."""
        self._inflight -= 1
        self._inflight_flops -= cost
        self.stats.completed += 1
        self.stats.drained_flops += cost

    def _run(self, loop, work, future, cost: int, trace, queued_at: float) -> None:
        """Executor side: run one request, post its result to the loop."""
        trace.record("batch_wait", queued_at, trace.elapsed() - queued_at)
        try:
            result = work()
        except BaseException as exc:  # delivered to the awaiting handler
            loop.call_soon_threadsafe(_resolve, future, None, exc)
        else:
            loop.call_soon_threadsafe(_resolve, future, result, None)
        loop.call_soon_threadsafe(self._drain, cost)

    def close(self) -> None:
        """Stop accepting work and drain the executor."""
        self._executor.shutdown(wait=True)


def _resolve(future, result, exc) -> None:
    """Complete a future unless its awaiter already timed out."""
    if future.done():
        return
    if exc is not None:
        future.set_exception(exc)
    else:
        future.set_result(result)
