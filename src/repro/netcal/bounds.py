"""Connecting the CCAC-lite model to network-calculus service curves.

The model's token-bucket constraints are the discretization of a service
curve pair: with waste ``W`` the link guarantees at least
``C*(t - j) - W`` and at most ``C*t - W`` of cumulative service — i.e. the
link behaves like a rate-latency server ``beta_{C, j}`` whose latency the
adversary controls within the jitter budget.  These helpers compute the
bounds the model's traces must respect; the test suite checks verifier
counterexamples of the lossless and ``jitter`` environments, plain and
worst-case, against :func:`check_service_within_envelope`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .curves import Curve, rate_latency


def service_envelope(capacity, jitter) -> tuple[Curve, Curve]:
    """(lower, upper) service curves of the jittery link (zero waste)."""
    lower = rate_latency(capacity, jitter)
    upper = rate_latency(capacity, 0)
    return lower, upper


def check_service_within_envelope(
    S: Sequence[Fraction],
    W: Sequence[Fraction],
    capacity,
    jitter: int,
) -> list[str]:
    """Verify a cumulative service sequence lies within the waste-adjusted
    envelope; returns human-readable violations (empty = consistent)."""
    C = Fraction(capacity)
    errors: list[str] = []
    for t in range(len(S)):
        upper = C * t - W[t]
        if S[t] > upper:
            errors.append(f"S[{t}]={S[t]} exceeds upper envelope {upper}")
        back = t - jitter
        if back >= 0:
            lower = C * back - W[back]
            if S[t] < min(lower, upper):
                errors.append(f"S[{t}]={S[t]} below lower envelope {lower}")
    return errors


def max_queue_bound(cwnd_max, capacity, jitter) -> Fraction:
    """Worst-case bytes in flight for a window-limited sender:
    the window plus what the jitter can hold back (``C * j``)."""
    return Fraction(cwnd_max) + Fraction(capacity) * jitter


def utilization_lower_bound(cwnd, capacity, jitter) -> Fraction:
    """Long-run utilization guarantee for a *constant* window ``w``:
    the link serves at least ``w`` per ``(w/C + j)`` time, so

        util >= w / (w + C*j)

    (this is why one-BDP windows get 50% with one-RTT jitter — the
    paper's motivation for >= 50% as the starting threshold)."""
    w = Fraction(cwnd)
    C = Fraction(capacity)
    return w / (w + C * jitter)
