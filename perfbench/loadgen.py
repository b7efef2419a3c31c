"""Open-loop request generator owned by the benchmark.

Request ``i`` of a phase is *due* at ``start + i / rate``.  The generator sends
it at that time, or at once if it is already late, and never waits for
earlier answers.  Each request's latency runs from its due time to its
completion, so a stall (in the generator or in the server) is charged to
every request queued behind it.  How late the generator itself ran is
reported as the phase's lag; a phase whose lag exceeds the benchmark's bound
is invalid.  A request that is refused, times out or errors counts as
missing every latency limit (its latency is infinite).

Answers are handed to the caller as they arrive and then dropped: a phase
keeps only timestamps, so its memory and garbage-collection cost stay those
of the program, not of the benchmark's bookkeeping.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = ["PhaseResult", "run_phase", "percentile"]

# Requests still unanswered this long after the last send count as failed.
SETTLE_TIMEOUT_S = 30.0


@dataclass
class PhaseResult:
    """What one open-loop phase (or burst) did."""

    rate: float | None  # offered requests/s; None for a burst sent at once
    start: float
    due: list[float]
    sent: list[float]
    done: list[float]  # completion times; nan until (unless) completed
    end: float = 0.0  # last completion (or give-up) time
    settled: bool = True
    max_lag_s: float = 0.0
    failures: list[int] = field(default_factory=list)  # request positions

    def latencies_s(self) -> list[float]:
        """Due-to-completion seconds; ``inf`` for failed requests."""
        failed = set(self.failures)
        return [
            math.inf if i in failed or math.isnan(done) else done - due
            for i, (due, done) in enumerate(zip(self.due, self.done))
        ]

    @property
    def drain_s(self) -> float:
        """Time from the last due time until the last request completed."""
        return self.end - self.due[-1] if self.due else 0.0

    @property
    def completed(self) -> int:
        return len(self.due) - len(self.failures)

    def achieved_rate(self) -> float:
        """Completions per second from the first due time to the last completion."""
        span = self.end - self.start
        return self.completed / span if span > 0 else 0.0

    @property
    def service_s(self) -> float:
        """Time from the first completion to the last."""
        finished = [t for t in self.done if not math.isnan(t)]
        return max(finished) - min(finished) if finished else 0.0

    def service_rate(self) -> float:
        """Completions per second from the first completion to the last.

        For a phase that keeps the server saturated this is its capacity:
        it leaves out the wait for the first answer, which no backlog hides.
        """
        span = self.service_s
        return (self.completed - 1) / span if span > 0 else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``inf`` entries sort last)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_phase(
    submit: Callable,
    requests: Sequence,
    rate: float | None,
    on_answer: Callable[[int, object], None] = lambda position, answer: None,
) -> PhaseResult:
    """Send every ``requests[i]`` on the open-loop schedule.

    ``submit(request)`` must return a future.  With ``rate=None`` every
    request is due at the phase start (a burst).  ``on_answer(i, answer)``
    runs on the generator's thread for every request answered without an
    exception, between sends and while the phase drains.  Requests still
    unanswered ``SETTLE_TIMEOUT_S`` after the last send count as failed.
    """
    count = len(requests)
    clock = time.perf_counter
    result = PhaseResult(
        rate=rate,
        start=clock(),
        due=[0.0] * count,
        sent=[0.0] * count,
        done=[math.nan] * count,
    )
    done = result.done
    failed = result.failures
    # Completion callbacks run on the server's threads: they only stamp the
    # time and hand the future over.  Futures notify their waiters before
    # they run their callbacks, so the phase counts callbacks, not futures.
    finished: deque = deque()
    lock = threading.Lock()
    pending = [0]  # requests sent and not yet stamped
    sending = [True]
    all_done = threading.Event()

    def completion(position: int):
        def record(future) -> None:
            done[position] = clock()
            finished.append((position, future))
            with lock:
                pending[0] -= 1
                if pending[0] == 0 and not sending[0]:
                    all_done.set()

        return record

    def drain() -> None:
        while finished:
            position, future = finished.popleft()
            if future.cancelled() or future.exception() is not None:
                failed.append(position)
            else:
                on_answer(position, future.result())

    start = result.start
    for i, request in enumerate(requests):
        due = start if rate is None else start + i / rate
        now = clock()
        if due > now:
            drain()
            now = clock()
            if due > now:
                time.sleep(due - now)
                now = clock()
        result.due[i] = due
        result.sent[i] = now
        result.max_lag_s = max(result.max_lag_s, now - due)
        try:
            future = submit(request)
        except Exception:  # noqa: BLE001 - a refused request is a failure to count
            failed.append(i)
            continue
        with lock:
            pending[0] += 1
        future.add_done_callback(completion(i))

    with lock:
        sending[0] = False
        if pending[0] == 0:
            all_done.set()
    give_up = clock() + SETTLE_TIMEOUT_S
    while not all_done.wait(timeout=0.002):
        drain()
        if clock() >= give_up:
            break
    result.settled = all_done.is_set()
    result.end = clock()
    drain()
    stamped = [t for t in done if not math.isnan(t)]
    if result.settled and stamped:
        result.end = max(stamped)
    else:
        known = set(failed)
        failed.extend(i for i, t in enumerate(done) if math.isnan(t) and i not in known)
    failed.sort()
    return result
