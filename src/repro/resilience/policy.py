"""Retry policy: exponential backoff with deterministic jitter.

Backoff delays are computed, never slept -- simulations charge them as
latency on the virtual clock.  Jitter draws from a named
:class:`~repro.ports.rng.RngStream`, so retry schedules are reproducible
bit-for-bit from the root seed (the same property every other stochastic
component of the repo has).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ports.rng import RngStream


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How a remote call is retried.

    Attributes:
        max_attempts: total tries, including the first (1 = no retries).
        base_delay: backoff before the second attempt, seconds.
        multiplier: exponential growth factor per subsequent attempt.
        max_delay: backoff ceiling, seconds.
        jitter: fraction of each delay randomized uniformly in
            ``[-jitter, +jitter]`` (0 disables jitter; draws come from the
            caller-supplied stream, keeping schedules deterministic).
        attempt_timeout: per-attempt deadline, seconds.  Inside a kernel
            an attempt still running at the deadline is cancelled there and
            retried; ``None`` waits attempts out however long they take.
            Outside a kernel nothing can be cancelled, and
            ``ResilientDataSource.read`` refuses a deadline.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    attempt_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ValueError(
                f"attempt_timeout must be positive, got {self.attempt_timeout}"
            )

    @classmethod
    def no_retries(cls) -> "RetryPolicy":
        return cls(max_attempts=1)

    @classmethod
    def aggressive(cls) -> "RetryPolicy":
        """Low-latency tier: quick, tightly bounded retries."""
        return cls(max_attempts=4, base_delay=0.01, max_delay=0.5,
                   attempt_timeout=1.0)

    def backoff(self, attempt: int, rng: RngStream | None = None) -> float:
        """Delay charged before attempt ``attempt + 1`` (``attempt`` is the
        1-based attempt that just failed)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter and rng is not None and delay > 0:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.rng.random()) - 1.0)
        return delay

    def total_backoff_budget(self, rng: RngStream | None = None) -> float:
        """Worst-case backoff a call can accumulate (planning helper)."""
        return sum(self.backoff(a, rng) for a in range(1, self.max_attempts))
