"""``ResilientDataSource``: retry + breaker + hedging around any source.

This is the wrapper the remote-read paths put between themselves and an
unreliable backend (object store, synthetic lake, DFS).  Per request it:

1. consults the breaker -- an open breaker is recorded as degraded-mode
   operation, and (because remote storage is the *final* fallback, with
   nothing behind it) the request is still attempted rather than rejected;
2. attempts the read under the retry policy: transient failures
   (:class:`~repro.errors.RemoteReadError`, ``ConnectionError``) back off
   exponentially with deterministic jitter;
3. inside a kernel process (:meth:`ResilientDataSource.read_proc`, or any
   read under IO collection), lives the winning attempt: raced against the
   per-attempt deadline and cancelled there, or raced against a
   :class:`~repro.resilience.hedge.HedgePolicy` backup whose loser is
   cancelled mid-transfer.

Outside a kernel nothing can be raced, so a plain :meth:`read` does retry
and breaker only, with backoff charged as latency; it refuses a hedge or an
``attempt_timeout`` rather than report a latency nobody waited for.

``FileNotFoundInStorageError`` is permanent and never retried.  All
outcomes are observable: ``retries`` / ``retry_exhausted`` /
``degraded_serves`` counters plus per-operation error breakdowns.
"""

from __future__ import annotations

from repro.core.metrics import MetricsRegistry
from repro.errors import RemoteReadError, ReproError, RetriesExhaustedError
from repro.obs.tracer import current_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.hedge import HedgePolicy
from repro.resilience.policy import RetryPolicy
from repro.sim.kernel import (
    Cancelled,
    Timeout,
    any_of,
    collecting_io,
    current_kernel,
    defer_io,
    io_collection_active,
    replay_plan,
)
from repro.ports.rng import RngStream
from repro.storage.remote import DataSource, ReadResult

_RETRYABLE = (RemoteReadError, ConnectionError)
# a hedge backup failing with one of these leaves the primary to serve the
# read; anything else is a bug and propagates
_HEDGE_ABSORBED = (ReproError, ConnectionError, TimeoutError)


class ResilientDataSource:
    """A ``DataSource`` that survives transient backend failures."""

    def __init__(
        self,
        inner: DataSource,
        *,
        policy: RetryPolicy | None = None,
        rng: RngStream | None = None,
        breaker: CircuitBreaker | None = None,
        hedge: HedgePolicy | None = None,
        metrics: MetricsRegistry | None = None,
        operation: str = "remote_read",
    ) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.rng = rng if rng is not None else RngStream(0, "resilience/retry")
        self.breaker = breaker
        self.hedge = hedge
        self.metrics = metrics if metrics is not None else MetricsRegistry("resilient-source")
        self.operation = operation
        # side channels for latency attribution (read by the cache manager
        # after each call): backoff folded into the returned latency, and
        # queueing/throttle wait reported by the inner source
        self.last_retry_backoff = 0.0
        self.last_queue_wait = 0.0

    def file_length(self, file_id: str) -> int:
        return self.inner.file_length(file_id)

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        """One read under the retry policy.

        Under IO collection the loop runs *synchronously* at the arrival
        instant (chaos dice, breaker state and counters resolve now and the
        returned data is final) but the time cost is deferred: one
        composite replay op re-experiences failed attempts' IO, sleeps the
        backoffs on kernel timers, and runs the winning attempt as a real
        process (see :meth:`_resilient_op`).  Without collection the
        backoffs are charged as latency.
        """
        collected = io_collection_active()
        if not collected and (
            self.hedge is not None or self.policy.attempt_timeout is not None
        ):
            raise ValueError(
                "a hedge or attempt_timeout needs a kernel to race the "
                "attempt against: read inside a kernel process with "
                "ResilientDataSource.read_proc"
            )
        policy = self.policy
        span = current_tracer().current()
        breaker_open = self.breaker is not None and not self.breaker.allow()
        if breaker_open:
            span.event("breaker_open", operation=self.operation)
        self.last_retry_backoff = 0.0
        self.last_queue_wait = 0.0
        backoff_total = 0.0
        failed: list[tuple[list, float]] = []
        last_exc: Exception | None = None
        for attempt in range(1, policy.max_attempts + 1):
            subplan: list = []
            try:
                if collected:
                    with collecting_io(subplan):
                        result = self.inner.read(file_id, offset, length)
                else:
                    result = self.inner.read(file_id, offset, length)
            except _RETRYABLE as exc:
                last_exc = exc
                self.metrics.record_error(self.operation, exc)
                if self.breaker is not None:
                    self.breaker.record_failure()
                if attempt < policy.max_attempts:
                    self.metrics.counter("retries").inc()
                    backoff = policy.backoff(attempt, self.rng)
                    span.event(
                        "retry", attempt=attempt, error=type(exc).__name__
                    )
                    # a collected read replays the failed attempt's partial
                    # IO (ops deferred before the failure raised) and then
                    # sleeps its backoff; a plain read charges the backoff
                    failed.append((subplan, backoff))
                    backoff_total += backoff
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            if attempt > 1 or breaker_open:
                self.metrics.counter("degraded_serves").inc()
            if collected:
                defer_io(
                    self._resilient_op(
                        file_id, offset, length, failed, subplan, attempt
                    )
                )
                return ReadResult(data=result.data, latency=0.0)
            self.last_retry_backoff = backoff_total
            self.last_queue_wait = getattr(self.inner, "last_queue_wait", 0.0)
            return ReadResult(
                data=result.data, latency=backoff_total + result.latency
            )
        self.metrics.counter("retry_exhausted").inc()
        span.event("retries_exhausted", attempts=policy.max_attempts)
        raise RetriesExhaustedError(
            f"{self.operation} of {file_id!r} failed after "
            f"{policy.max_attempts} attempts"
        ) from last_exc

    # -- kernel mode ---------------------------------------------------------

    def _resilient_op(
        self,
        file_id: str,
        offset: int,
        length: int,
        failed: list[tuple[list, float]],
        winner_plan: list,
        attempt_no: int,
    ):
        """Composite replay op: failed attempts' IO, backoff timers, then
        the winning attempt (deadline-capped or hedge-raced)."""

        def op():
            span = current_tracer().current()
            clock = current_kernel().clock
            start = clock.now()
            for subplan, backoff in failed:
                # a failed attempt's partial IO (ops deferred before the
                # failure raised) is real wasted time on the serving path
                yield from replay_plan(subplan)
                if backoff > 0:
                    yield Timeout(backoff)
                    span.charge("retry_backoff", backoff)
            if self.hedge is not None:
                yield from self._hedged_replay(
                    file_id, offset, length, winner_plan, span
                )
            else:
                yield from self._deadline_replay(
                    file_id, offset, length, winner_plan, attempt_no, span
                )
            return clock.now() - start

        return op

    @staticmethod
    def _plan_proc(plan: list):
        """Process body that replays one attempt's collected IO plan."""
        elapsed = yield from replay_plan(plan)
        return elapsed

    def _deadline_replay(
        self,
        file_id: str,
        offset: int,
        length: int,
        plan: list,
        attempt_no: int,
        span,
    ):
        """Replay the winning attempt under the per-attempt deadline.

        The attempt runs as a process raced against a kernel timer and is
        cancelled mid-flight on expiry, after which a fresh attempt is
        collected at the current instant and retried.
        If a replay-time re-attempt fails (fresh chaos dice) or attempts
        run out, the original winning plan is replayed uncapped -- the
        caller already holds its data.
        """
        policy = self.policy
        kernel = current_kernel()
        while True:
            if policy.attempt_timeout is None or attempt_no >= policy.max_attempts:
                elapsed = yield from replay_plan(plan)
                return elapsed
            proc = kernel.spawn(
                self._plan_proc(plan),
                name=f"{self.operation}/attempt-{attempt_no}",
            )
            timer = kernel.timer(policy.attempt_timeout)
            try:
                yield any_of(proc, timer)
            except Cancelled:
                # the read itself was cancelled mid-race: reap the attempt
                # and the deadline timer, or they run on as orphans -- the
                # attempt holding a device/connection slot, the timer
                # keeping the kernel awake (any_of losers are not reaped)
                proc.cancel("deadline race cancelled")
                timer.cancel()
                raise
            if proc.done:
                timer.cancel()
                if proc.exception is not None:
                    raise proc.exception
                return proc.value
            proc.cancel("attempt deadline")
            self.metrics.record_error(self.operation, "AttemptDeadlineExceeded")
            if self.breaker is not None:
                self.breaker.record_failure()
            self.metrics.counter("retries").inc()
            backoff = policy.backoff(attempt_no, self.rng)
            span.event("retry", attempt=attempt_no, error="AttemptDeadlineExceeded")
            if backoff > 0:
                yield Timeout(backoff)
                span.charge("retry_backoff", backoff)
            attempt_no += 1
            subplan: list = []
            try:
                with collecting_io(subplan):
                    self.inner.read(file_id, offset, length)
            except _RETRYABLE as exc:
                self.metrics.record_error(self.operation, exc)
                if self.breaker is not None:
                    self.breaker.record_failure()
                # fall through with the original plan; the next loop
                # iteration may still race it against the deadline
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            plan = subplan

    def _hedged_replay(
        self,
        file_id: str,
        offset: int,
        length: int,
        plan: list,
        span,
    ):
        """Race the winning attempt against a hedge backup, for real.

        The primary replays as a process.  If it outlives the hedge
        threshold, a backup process launches (collecting a *fresh* inner
        read at that instant) and whichever finishes second is cancelled
        mid-flight -- its partially moved bytes land in
        ``HedgePolicy.wasted_bytes``.  When hedging is configured the
        per-attempt deadline is not applied; the hedge is the tail guard.
        """
        hedge = self.hedge
        kernel = current_kernel()
        clock = kernel.clock
        start = clock.now()
        primary = kernel.spawn(
            self._plan_proc(plan), name=f"{self.operation}/hedge-primary"
        )
        timer = None
        backup = None
        try:
            threshold = hedge.threshold()
            if threshold is None:
                yield primary
                elapsed = clock.now() - start
                hedge.observe(elapsed)
                return elapsed
            timer = kernel.timer(threshold)
            yield any_of(primary, timer)
            if primary.done:
                timer.cancel()
                if primary.exception is not None:
                    raise primary.exception
                elapsed = clock.now() - start
                hedge.observe(elapsed)
                return elapsed
            hedge.hedged_requests += 1
            hedge.metrics.counter("hedged_requests").inc()
            backup = kernel.spawn(
                self._backup_proc(file_id, offset, length),
                name=f"{self.operation}/hedge-backup",
            )
            yield any_of(primary, backup)
            if backup.done and backup.exception is not None and not backup.cancelled:
                if not isinstance(backup.exception, _HEDGE_ABSORBED):
                    primary.cancel("hedge backup raised")
                    raise backup.exception
                # backup target failed; the slow primary still serves the read
                hedge.hedge_errors += 1
                hedge.metrics.counter("hedge_errors").inc()
                hedge.metrics.record_error("hedge_backup", backup.exception)
                if not primary.done:
                    yield primary
                elapsed = clock.now() - start
                hedge.observe(elapsed)
                span.event("hedge", won=False)
                return elapsed
            won = backup.done and not primary.done
            loser = primary if won else backup
            if not loser.done:
                loser.cancel("hedge loser")
                hedge.record_cancelled(loser.wasted_bytes)
            if won:
                hedge.hedge_wins += 1
                hedge.metrics.counter("hedge_wins").inc()
            elapsed = clock.now() - start
            hedge.observe(elapsed)
            span.event("hedge", won=won)
            return elapsed
        except Cancelled:
            # the read itself was cancelled mid-race: reap whichever race
            # members are still in flight (the kernel deliberately leaves
            # any_of losers running, so without this they orphan -- the
            # attempts keep their device/connection slots, the hedge timer
            # keeps the kernel awake)
            if not primary.done:
                primary.cancel("hedge race cancelled")
            if timer is not None:
                timer.cancel()
            if backup is not None and not backup.done:
                backup.cancel("hedge race cancelled")
            raise

    def _backup_proc(self, file_id: str, offset: int, length: int):
        """Hedge backup process: fresh inner read, collected then replayed.

        Collection happens at launch time (the threshold instant), so
        chaos dice and token-bucket state resolve exactly when the backup
        actually fires.  The ``hedge_attempt`` span attr keeps the
        subtree off the serving-path attribution.
        """
        tracer = current_tracer()
        with tracer.span(
            "hedge_attempt", actor=self.operation, hedge_attempt=True
        ):
            subplan: list = []
            with collecting_io(subplan):
                self.inner.read(file_id, offset, length)
            elapsed = yield from replay_plan(subplan)
        return elapsed

    def read_proc(self, file_id: str, offset: int, length: int):
        """Kernel-process entry point: collect this read, then live it.

        ``yield from`` inside a kernel process; returns a
        :class:`ReadResult` whose latency is measured wall time.
        """
        plan: list = []
        with collecting_io(plan):
            result = self.read(file_id, offset, length)
        latency = yield from replay_plan(plan)
        return ReadResult(data=result.data, latency=latency)
