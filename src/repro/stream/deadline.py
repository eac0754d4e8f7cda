"""Frame-deadline policies for streaming sessions.

This is the pure-policy half of the frame scheduler: every decision
takes an explicit ``now`` so tests drive it with a simulated clock.
The session owns the clock and the waiting; this module owns the
arithmetic.

Two policies:

* ``best-effort`` — every frame completes; lateness is measured and
  reported on the result but never causes a drop.
* ``drop-late``   — a frame still incomplete when its deadline
  expires resolves as a dropped :class:`FrameResult` immediately, so
  it can never block its successors.

Frame deadlines stay in the stream: the serving layer runs a model's
queued tiles as soon as the model is idle and is never told a frame's
deadline.
"""

from typing import Optional

__all__ = [
    "BEST_EFFORT",
    "DROP_LATE",
    "DeadlinePolicy",
    "POLICIES",
]

DROP_LATE = "drop-late"
BEST_EFFORT = "best-effort"
POLICIES = (DROP_LATE, BEST_EFFORT)


class DeadlinePolicy:
    """Deadline arithmetic for one stream, under an explicit clock.

    ``frame_budget_s`` is the default per-frame budget; a frame may
    override it at submit time.  ``None`` means unbounded — frames
    have no deadline and ``drop-late`` degenerates to best-effort
    for them.
    """

    __slots__ = ("policy", "frame_budget_s")

    def __init__(
        self,
        policy: str = BEST_EFFORT,
        frame_budget_s: Optional[float] = None,
    ):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown deadline policy {policy!r}; expected one of"
                f" {POLICIES}"
            )
        if frame_budget_s is not None and frame_budget_s < 0:
            raise ValueError("frame_budget_s must be >= 0")
        self.policy = policy
        self.frame_budget_s = frame_budget_s

    def deadline(
        self, arrival: float, budget_s: Optional[float] = None
    ) -> Optional[float]:
        """Absolute deadline for a frame admitted at ``arrival``."""
        if budget_s is None:
            budget_s = self.frame_budget_s
        if budget_s is None:
            return None
        return arrival + float(budget_s)

    @staticmethod
    def expired(deadline: Optional[float], now: float) -> bool:
        """True once the remaining budget reaches zero.

        A deadline expiring *exactly at* ``now`` counts as expired,
        but a frame that already completed by then is delivered, not
        dropped: drop-late only sheds frames still incomplete at
        expiry.
        """
        return deadline is not None and now >= deadline

    def should_drop(self, deadline: Optional[float], now: float) -> bool:
        """Whether an *incomplete* frame must resolve as dropped."""
        return self.policy == DROP_LATE and self.expired(deadline, now)

    @staticmethod
    def lateness(deadline: Optional[float], now: float) -> float:
        """Seconds past the deadline (0.0 when on time or unbounded)."""
        if deadline is None:
            return 0.0
        return max(0.0, now - deadline)

    @staticmethod
    def remaining(deadline: Optional[float], now: float) -> Optional[float]:
        """Budget left for this frame (``None`` = unbounded).

        Clamped at zero.  The session bounds its waits on a frame's
        tiles by it, so a drop-late frame resolves soon after expiry.
        """
        if deadline is None:
            return None
        return max(0.0, deadline - now)
