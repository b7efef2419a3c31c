"""Batched active-neuron selection.

The per-sample path (:meth:`repro.core.layer.SlideLayer.select_active`)
hashes one query vector at a time — for SimHash that is a ``(K*L, nnz)``
gather and reduction *per sample*, which dominates the cost of a training
step.  :func:`select_active_batch` hashes the whole micro-batch in one
:meth:`~repro.lsh.index.LSHIndex.hash_batch` call (one matmul per SimHash
family, one gather/reduce sweep for (D)WTA/DOPH), packs bucket fingerprints
vectorised, and only then walks the per-sample bucket lookups.

Per sample, Vanilla selection walks the buckets in its random table order
and sorts the probed candidates (one ``np.unique``) only once they could
cover the distance to ``target_active``; a row whose tables hold fewer
candidates than the target is sorted exactly once, so selection costs
about one sort per sample rather than one per table.

RNG compatibility: the sampling strategies draw from the layer's generator in
the same order whether they are fed a fresh query
(``SamplingStrategy.sample``) or a pre-computed
:class:`~repro.lsh.index.QueryResult` (``select_from_result``) — one table
permutation, plus one subset draw when over target.  Random fallback padding
goes through the shared :meth:`~repro.core.layer.SlideLayer.finalize_active`.
The batched selection therefore consumes the layer RNG identically to the
per-sample path, which is what the kernel parity tests pin down.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.layer import SlideLayer
from repro.types import FloatArray, IntArray

__all__ = ["select_active_batch"]


def select_active_batch(
    layer: SlideLayer,
    dense_queries: FloatArray,
    forced_active: list[IntArray | None] | None = None,
    timer=None,
) -> list[tuple[IntArray, int, int]]:
    """Active output sets for a ``(batch, fan_in)`` block of dense queries.

    Returns one ``(active_ids, sampled_from_tables, fallback_random)`` tuple
    per row, matching :meth:`SlideLayer.select_active` sample-for-sample.
    ``forced_active`` optionally supplies per-sample ids (e.g. ground-truth
    labels) that are always unioned into the corresponding active set.
    ``timer`` (a :class:`~repro.perf.phases.PhaseTimer`) optionally receives
    the split between the vectorised table probe (``hash``) and the
    per-sample strategy selection (``select``).
    """
    dense_queries = np.asarray(dense_queries, dtype=np.float64)
    if dense_queries.ndim != 2 or dense_queries.shape[1] != layer.fan_in:
        raise ValueError(
            f"queries must have shape (batch, {layer.fan_in}), "
            f"got {dense_queries.shape}"
        )
    batch_size = dense_queries.shape[0]
    if forced_active is not None and len(forced_active) != batch_size:
        raise ValueError("forced_active must align with the query rows")

    if layer.lsh_index is None or layer.sampler is None:
        all_active = np.arange(layer.size, dtype=np.int64)
        return [(all_active, 0, 0) for _ in range(batch_size)]

    target = layer.config.sampling.target_active
    # One flat batched probe: hashing, fingerprint packing and the bucket
    # gathers are vectorised across the batch; per-row QueryResult views are
    # materialised lazily only for the sampler hand-off.
    probe_start = time.perf_counter()
    flat = layer.lsh_index.query_batch_flat(dense_queries)
    select_start = time.perf_counter()
    selections: list[tuple[IntArray, int, int]] = []
    for row in range(batch_size):
        sampled = layer.sampler.select_from_result(flat.result(row), target)
        forced = forced_active[row] if forced_active is not None else None
        selections.append(layer.finalize_active(sampled, forced))
    if timer is not None:
        timer.add("hash", select_start - probe_start)
        timer.add("select", time.perf_counter() - select_start)
    return selections
