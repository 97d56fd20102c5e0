"""Retry policies: bounded attempts, budget escalation, quarantine.

A :class:`RetryPolicy` is pure data plus pure functions.  It says how
often a job is attempted, how much larger each retry's budget is and
after how many worker crashes a job is quarantined — never how long to
wait: a retry goes out as the next wave at once, because nothing this
program retries recovers with time.  An UNKNOWN job reruns under a fresh
escalated budget, a crashed one in the driver or on a pool the
:class:`~repro.resilience.PoolSupervisor` has already rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass

# spec key -> (field, parser), in the order error messages list them.
_SPEC_KEYS = {
    "attempts": ("max_attempts", int),
    "escalation": ("escalation", float),
    "crashes": ("max_crashes", int),
}


@dataclass(frozen=True)
class RetryPolicy:
    """How failed job attempts are re-dispatched.

    ``max_attempts`` counts every attempt including the first, so
    ``max_attempts=1`` means "never retry".  ``escalation`` scales the
    per-attempt budget geometrically (attempt ``k`` runs under
    ``base.escalated(escalation ** (k-1))``) — a retry is pointless
    under the budget that already failed.  ``max_crashes`` is the poison
    threshold: a job whose attempts crash their worker that many times is
    quarantined rather than retried forever.
    """

    max_attempts: int = 3
    escalation: float = 2.0      # per-attempt budget scale factor
    max_crashes: int = 3         # worker deaths before quarantine

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_crashes < 1:
            raise ValueError("max_crashes must be >= 1")
        if self.escalation <= 0:
            raise ValueError("escalation factor must be positive")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """The no-retry policy (single attempt, quarantine never fires)."""
        return cls(max_attempts=1, max_crashes=10 ** 9)

    def escalation_for(self, attempt: int) -> float:
        """The budget scale factor of *attempt* (1.0 for the first)."""
        return self.escalation ** (attempt - 1)

    @classmethod
    def from_spec(cls, spec: str) -> "RetryPolicy":
        """Parse ``key=value,...`` (keys: attempts, escalation, crashes)."""
        kwargs: dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"retry entry {part!r} is not key=value")
            if key not in _SPEC_KEYS:
                raise ValueError(
                    f"unknown retry key {key!r} (expected one of "
                    f"{', '.join(_SPEC_KEYS)})")
            field, conv = _SPEC_KEYS[key]
            try:
                kwargs[field] = conv(value.strip())
            except ValueError:
                raise ValueError(f"retry entry {part!r}: bad number {value!r}")
        return cls(**kwargs)  # type: ignore[arg-type]
