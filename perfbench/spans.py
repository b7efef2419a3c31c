"""Out-of-program tracing: wrap the program's public layer boundaries.

The traced run patches a fixed list of public functions and methods with
wrappers that record one span per call: name, start, end, parent span,
thread, and a tag (the training step id or the serving batch id).  Spans
live in memory and are written out once the run ends.  Nothing here reads a
timer or phase accounting inside the program, so the per-layer numbers stay
comparable when the program's own instrumentation changes.

Self time of a span is its duration minus the part its direct children
cover.  :func:`self_times` clips every span to the measured window, so the
self times of all spans plus ``other_s`` equal the window's wall time
exactly.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

__all__ = ["Tracer", "LayerCounters", "self_times", "install_layer_wrappers", "TIME_METRICS"]

# Span name -> per-layer self-time metric.  The order is the report order.
TIME_METRICS = {
    "data.assemble": "data.assemble_s",
    "kernels.densify": "kernels.densify_s",
    "kernels.step": "kernels.step_self_s",
    "kernels.forward": "kernels.forward_self_s",
    "kernels.backward": "kernels.backward_self_s",
    "sampling.select": "sampling.select_s",
    "lsh.probe": "lsh.probe_s",
    "lsh.rebuild": "lsh.rebuild_s",
    "optim.step": "optim.step_s",
    "core.batch": "core.batch_self_s",
    "core.sample": "core.sample_self_s",
    "engine.densify": "engine.densify_s",
    "engine.hidden_gemm": "engine.hidden_gemm_s",
    "engine.rerank": "engine.rerank_self_s",
    "serving.next_batch": "serving.worker_wait_s",
}


class Tracer:
    """Records nested spans from wrapped calls, per thread.

    A span is ``(id, name, start, end, parent_id, thread_id, tag)``; the
    parent is the innermost wrapped call still open on the same thread.
    ``tag`` is whatever :attr:`tag` held when the span opened.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Per-thread state
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def tag(self):
        return getattr(self._local, "tag", None)

    @tag.setter
    def tag(self, value) -> None:
        self._local.tag = value

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name, before=None, after=None) -> Callable:
        """``fn`` timed as a span.

        ``name`` is a span name or a callable ``(args) -> name`` chosen per
        call.  ``before(args)`` runs as the span opens (before its tag is
        read) and ``after(args, kwargs, result, state)`` runs inside the
        span once ``fn`` returns, with ``state`` what ``before`` returned:
        together they take counts at the same boundary.
        """
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            state = before(args) if before is not None else None
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            tag = tracer.tag
            stack.append(span_id)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, state)
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append(
                    (span_id, span_name, start, end, parent, threading.get_ident(), tag)
                )

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper (undone by :meth:`unpatch`).

        Plain functions, methods and classmethods are supported; the
        original attribute object is restored verbatim.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, before, after))
        else:
            replacement = self.wrap(original, name, before, after)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, extra: dict) -> None:
        """Write every recorded span (gzip JSON) with ``extra`` metadata."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload["fields"] = ["id", "name", "start", "end", "parent", "thread", "tag"]
        payload["spans"] = [list(span) for span in sorted(self.spans)]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def self_times(spans: list[tuple], window: tuple[float, float]) -> dict[str, float]:
    """Per-name self seconds of ``spans`` clipped to ``window``.

    A span's clipped duration is the part of it inside the window; its
    self time is that minus the clipped durations of its direct children.
    Children lie inside their parents, so the self times of a thread's
    spans sum to the window time its outermost spans cover.
    """
    lo, hi = window
    clipped = {}
    for span_id, _name, start, end, _parent, _thread, _tag in spans:
        clipped[span_id] = max(0.0, min(end, hi) - max(start, lo))
    child_sum: dict[int, float] = defaultdict(float)
    for span_id, _name, _start, _end, parent, _thread, _tag in spans:
        if parent is not None:
            child_sum[parent] += clipped[span_id]
    totals: dict[str, float] = defaultdict(float)
    for span_id, name, *_rest in spans:
        totals[name] += clipped[span_id] - child_sum.get(span_id, 0.0)
    return dict(totals)


class LayerCounters:
    """Counts taken at the wrapped boundaries during a traced run."""

    def __init__(self) -> None:
        self.optim_steps = 0
        self.rebuilds = 0
        self.moved_entries = 0
        self.recall_sum = 0.0
        self.recall_samples = 0
        self.from_tables = 0
        self.fallback = 0
        self.requests = 0
        self.candidates = 0
        self.fallback_requests = 0
        # (dequeue time on the tracer's clock, seconds queued) per request,
        # and (dequeue time, size) per batch.
        self.queue_waits: list[tuple[float, float]] = []
        self.batches: list[tuple[float, int]] = []


def install_layer_wrappers(tracer: Tracer, counters: LayerCounters) -> None:
    """Patch every layer boundary the benchmark traces.

    Module-level functions are patched in the module that calls them (the
    name the caller looks up); methods are patched on their classes.
    """
    import numpy as np

    import repro.core.network as network_mod
    import repro.kernels.fused as fused_mod
    import repro.serving.engine as engine_mod
    from repro.core.layer import SlideLayer
    from repro.core.network import SlideNetwork
    from repro.hashing.base import LSHFamily
    from repro.lsh.index import LSHIndex
    from repro.lsh.table import HashTable
    from repro.optim.base import Optimizer
    from repro.sampling.strategies import SamplingStrategy
    from repro.serving.batching import MicroBatchQueue
    from repro.serving.engine import SparseInferenceEngine
    from repro.types import SparseBatch

    def start_step(args):
        tracer.tag = ("step", args[0].iteration + 1)

    def count_step(args, kwargs, result, state) -> None:
        counters.optim_steps += 1

    def count_rebuild(args, kwargs, result, state) -> None:
        counters.rebuilds += int(bool(result))

    def moved_before(args):
        return args[0].num_moved_entries

    def count_moved(args, kwargs, result, before) -> None:
        counters.moved_entries += args[0].num_moved_entries - before

    def count_selection(args, kwargs, result, state) -> None:
        # args: (layer, sampled, forced_active); ``sampled`` is the set the
        # tables produced, before random padding and forced labels.
        sampled = args[1]
        forced = args[2] if len(args) > 2 else kwargs.get("forced_active")
        if forced is not None and np.size(forced):
            hits = np.intersect1d(sampled, forced).size
            counters.recall_sum += hits / np.size(forced)
            counters.recall_samples += 1
        counters.from_tables += result[1]
        counters.fallback += result[2]

    def count_predictions(args, kwargs, result, state) -> None:
        counters.requests += len(result)
        for prediction in result:
            counters.candidates += prediction.candidates_scored
            counters.fallback_requests += prediction.mode == "dense_fallback"

    def count_batch(args, kwargs, result, state) -> None:
        if result:
            stamp, now = tracer.clock(), time.monotonic()
            counters.queue_waits.extend((stamp, now - r.enqueued_at) for r in result)
            counters.batches.append((stamp, len(result)))
            batch_id = len(counters.batches)
            tracer.tag = ("batch", batch_id)

    tracer.patch(network_mod, "fused_train_step", "kernels.step")
    tracer.patch(fused_mod, "fused_forward_batch", "kernels.forward")
    tracer.patch(fused_mod, "fused_backward_batch", "kernels.backward")
    tracer.patch(fused_mod, "select_active_batch", "sampling.select")
    tracer.patch(engine_mod, "dense_features", "engine.densify")
    tracer.patch(SparseBatch, "from_examples", "data.assemble")
    tracer.patch(SparseBatch, "to_dense_features", "kernels.densify")
    tracer.patch(SlideNetwork, "train_batch", "core.batch", before=start_step)
    tracer.patch(SlideNetwork, "compute_sample_gradient", "core.sample")
    tracer.patch(SlideLayer, "finalize_active", "sampling.select", after=count_selection)
    tracer.patch(SlideLayer, "maybe_rebuild", "lsh.rebuild", after=count_rebuild)
    # The output layer's dense pass only runs as the engine's fallback
    # scorer, which is part of answering the request, not the hidden GEMM.
    tracer.patch(
        SlideLayer,
        "dense_forward_batch",
        lambda args: "engine.rerank" if args[0].lsh_index is not None else "engine.hidden_gemm",
    )
    tracer.patch(LSHIndex, "update", "lsh.rebuild", before=moved_before, after=count_moved)
    tracer.patch(LSHIndex, "query_batch_flat", "lsh.probe")
    # The per-sample (HOGWILD) path probes through these two instead.
    tracer.patch(HashTable, "query", "lsh.probe")
    for family in _subclasses(LSHFamily):
        if "hash_vector" in family.__dict__:
            tracer.patch(family, "hash_vector", "lsh.probe")
    for strategy in _subclasses(SamplingStrategy):
        for method in ("sample", "select_from_result"):
            if method in strategy.__dict__:
                tracer.patch(strategy, method, "sampling.select")
    for optimizer in _subclasses(Optimizer):
        if "sparse_step" in optimizer.__dict__:
            tracer.patch(optimizer, "sparse_step", "optim.step", after=count_step)
    tracer.patch(SparseInferenceEngine, "predict_batch", "engine.rerank", after=count_predictions)
    # The worker blocks in next_batch until requests arrive, so its time there
    # is mostly idle: it grows as the engine gets faster.
    tracer.patch(MicroBatchQueue, "next_batch", "serving.next_batch", after=count_batch)


def _subclasses(base: type) -> list[type]:
    found, pending = [], [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found
