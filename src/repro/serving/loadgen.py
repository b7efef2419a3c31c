"""Open-loop load generation against a serving runtime.

A *closed-loop* client (send, wait, send again) self-throttles when the
server slows down, which hides tail latency exactly when it matters.  The
generator here is **open-loop**: request ``i`` is submitted at
``start + i / qps`` regardless of how many earlier requests have completed,
so a server that cannot sustain the offered rate builds a real backlog and
its admission control actually gets exercised — the methodology behind
every serious serving benchmark.

Shed requests are *expected* output under overload, not failures: the
report separates completed requests (with client-observed latency
percentiles from a raw-sample reservoir), sheds by cause (``queue_full``
at admission, ``deadline`` in queue), and genuine errors.  Every failure
is additionally bucketed into a four-way taxonomy — ``rejected`` (load
shed), ``deadline`` (expired in queue), ``transport`` (the serving side
went away: cancelled futures, exhausted retries, no replica), ``other`` —
and every success is attributed to the replica and weight generation that
served it plus the degradation level it was served under, which is what
lets the failover bench say *which* replica's death cost *which* requests.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.perf.latency import LatencyHistogram
from repro.serving.errors import (
    DeadlineExceededError,
    RejectedError,
    ReplicaUnavailableError,
    RetriesExhaustedError,
    ServingError,
)
from repro.serving.pool import ServingRuntime
from repro.types import SparseExample

__all__ = ["LoadReport", "run_open_loop", "classify_failure"]

_REPORT_RESERVOIR = 8192


def classify_failure(exc: BaseException) -> str:
    """Four-way failure taxonomy: rejected / deadline / transport / other."""
    if isinstance(exc, RejectedError):
        return "rejected"
    if isinstance(exc, DeadlineExceededError):
        return "deadline"
    if isinstance(
        exc,
        (
            ReplicaUnavailableError,
            RetriesExhaustedError,
            CancelledError,
            TimeoutError,
            ConnectionError,
            RuntimeError,
        ),
    ):
        return "transport"
    return "other"


@dataclass
class LoadReport:
    """Outcome of one open-loop run at a fixed offered rate."""

    offered_qps: float
    duration_s: float
    sent: int = 0
    completed: int = 0
    errors: int = 0
    sheds: dict[str, int] = field(default_factory=dict)
    failure_causes: dict[str, int] = field(default_factory=dict)
    generations: dict[int, int] = field(default_factory=dict)
    replicas: dict[str, int] = field(default_factory=dict)
    degradations: dict[int, int] = field(default_factory=dict)
    latency: dict[str, float] = field(default_factory=dict)
    max_schedule_lag_s: float = 0.0

    @property
    def attempts(self) -> int:
        return self.sent + self.shed_total

    @property
    def shed_total(self) -> int:
        return sum(self.sheds.values())

    @property
    def shed_rate(self) -> float:
        attempts = self.attempts
        return self.shed_total / attempts if attempts else 0.0

    @property
    def achieved_qps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable view (what the bench artifact stores)."""
        return {
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "duration_s": self.duration_s,
            "sent": self.sent,
            "completed": self.completed,
            "errors": self.errors,
            "sheds": dict(self.sheds),
            "shed_rate": self.shed_rate,
            "failure_causes": dict(self.failure_causes),
            "generations": {str(gen): n for gen, n in sorted(self.generations.items())},
            "replicas": {name: n for name, n in sorted(self.replicas.items())},
            "degradations": {
                str(level): n for level, n in sorted(self.degradations.items())
            },
            "latency_ms": {
                "p50": self.latency.get("p50_s", 0.0) * 1e3,
                "p99": self.latency.get("p99_s", 0.0) * 1e3,
                "p999": self.latency.get("p999_s", 0.0) * 1e3,
                "mean": self.latency.get("mean_s", 0.0) * 1e3,
                "max": self.latency.get("max_s", 0.0) * 1e3,
            },
            "max_schedule_lag_s": self.max_schedule_lag_s,
        }


def run_open_loop(
    runtime: ServingRuntime,
    examples: Sequence[SparseExample],
    qps: float,
    duration_s: float,
    k: int | None = None,
    settle_timeout_s: float = 30.0,
    until: threading.Event | None = None,
) -> LoadReport:
    """Drive ``runtime`` at a sustained offered rate; return a :class:`LoadReport`.

    Requests cycle through ``examples``.  Latency is *client-observed*
    (submit call to future resolution), recorded into a reservoir-backed
    histogram so the reported p99/p999 are exact for runs that fit the
    reservoir.  After the last arrival the generator waits up to
    ``settle_timeout_s`` for stragglers so the tail is not truncated.

    With ``until``, arrivals keep their rate past ``duration_s`` until the
    event is set, and the report's ``duration_s`` is the span actually
    scheduled — for traffic that must outlast work of unknown length.
    """
    if qps <= 0:
        raise ValueError("qps must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if not examples:
        raise ValueError("need at least one example to send")

    histogram = LatencyHistogram(reservoir_size=_REPORT_RESERVOIR)
    report = LoadReport(offered_qps=float(qps), duration_s=float(duration_s))
    lock = threading.Lock()
    outstanding: list = []

    def on_done(submitted_at: float, future) -> None:
        observed = time.monotonic() - submitted_at
        try:
            prediction = future.result()
        except (RejectedError, DeadlineExceededError) as exc:
            # Overload outcomes (shed at admission or in a router retry
            # chain, dropped in queue) are sheds, not failures.
            with lock:
                report.sheds[exc.cause] = report.sheds.get(exc.cause, 0) + 1
                cause = classify_failure(exc)
                report.failure_causes[cause] = (
                    report.failure_causes.get(cause, 0) + 1
                )
            return
        except (CancelledError, Exception) as exc:  # noqa: BLE001 - bench counts, not raises
            with lock:
                report.errors += 1
                cause = classify_failure(exc)
                report.failure_causes[cause] = (
                    report.failure_causes.get(cause, 0) + 1
                )
            return
        histogram.record(observed)
        with lock:
            report.completed += 1
            generation = prediction.generation
            report.generations[generation] = (
                report.generations.get(generation, 0) + 1
            )
            # Routed answers carry the serving replica and the degradation
            # ladder level; direct runtime answers attribute to "local".
            replica = prediction.replica or "local"
            report.replicas[replica] = report.replicas.get(replica, 0) + 1
            level = prediction.degradation
            report.degradations[level] = report.degradations.get(level, 0) + 1

    total = max(int(duration_s * qps), 1)
    start = time.monotonic()
    for i in itertools.count():
        if i >= total and (until is None or until.is_set()):
            break
        target = start + i / qps
        now = time.monotonic()
        if target > now:
            time.sleep(target - now)
        else:
            # Open loop: a late arrival is sent immediately, never skipped —
            # the lag is reported so a saturated *generator* is visible.
            report.max_schedule_lag_s = max(report.max_schedule_lag_s, now - target)
        example = examples[i % len(examples)]
        submitted_at = time.monotonic()
        try:
            future = runtime.submit(example, k=k)
        except RejectedError as exc:
            with lock:
                report.sheds[exc.cause] = report.sheds.get(exc.cause, 0) + 1
                report.failure_causes["rejected"] = (
                    report.failure_causes.get("rejected", 0) + 1
                )
            continue
        except ServingError as exc:
            # Typed serving failures at admission (e.g. the router finding
            # no replica) count against the taxonomy but keep the loop
            # going — the scenario may recover mid-run.
            with lock:
                report.errors += 1
                cause = classify_failure(exc)
                report.failure_causes[cause] = (
                    report.failure_causes.get(cause, 0) + 1
                )
            continue
        except RuntimeError:
            # Runtime shut down mid-run (e.g. a bench tearing down early).
            break
        report.sent += 1
        future.add_done_callback(
            lambda fut, t0=submitted_at: on_done(t0, fut)
        )
        outstanding.append(future)

    if until is not None:
        report.duration_s = i / qps
    settle_deadline = time.monotonic() + settle_timeout_s
    for future in outstanding:
        remaining = settle_deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            future.result(timeout=remaining)
        except Exception:  # repro: allow[exc] outcome already counted in on_done
            pass

    report.latency = histogram.summary()
    return report
