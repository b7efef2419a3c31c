"""Serving under sustained load: QPS sweep, load shedding, hot-reload blip.

Not a paper figure — the deployment-side evidence for the paper's thesis
that CPU SLIDE is *servable*, not just trainable.  The bench trains a SLIDE
network, publishes it into a :class:`CheckpointStore`, and drives an
:class:`~repro.serving.runtime.OnlineRuntime` with the open-loop generator
from :mod:`repro.serving.loadgen`:

1. **Capacity probe** — flood the runtime (shed admission) and take the
   achieved completion rate as its sustainable capacity.
2. **Sustained-QPS sweep** — offered load from a fraction of capacity to
   2x beyond it.  The overload contract under test: shed rate rises with
   offered load while the p99 of *admitted* requests stays bounded by the
   deadline (graceful degradation, not collapse).
3. **Hot reload under live traffic** — while the generator runs, the
   trainer publishes two more checkpoint versions (auto-pruned via
   ``keep_last``); each is hot-swapped in through the incremental LSH
   ``update(dirty)`` path.  Asserted: zero failed non-shed requests, every
   swap incremental (no full rebuild), and the write-lock hold time — the
   reload "blip" — measured per swap.
4. **Parity** — after both swaps the resident engine's top-k must be
   *bitwise* identical to a cold load of the same checkpoint.

The registry (``python -m repro.reports --run serving_latency``) writes
``BENCH_serving_latency.json``.  Runs under the pytest bench harness or
standalone::

    PYTHONPATH=src python benchmarks/bench_serving_latency.py [--smoke]
"""

from __future__ import annotations

import threading
import time
from tempfile import TemporaryDirectory

import numpy as np

from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    RebuildScheduleConfig,
    SamplingConfig,
    ServingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.datasets.synthetic import delicious_like_config, generate_synthetic_xc
from repro.harness.report import format_table
from repro.serving import (
    CheckpointStore,
    OnlineRuntime,
    SparseInferenceEngine,
    load_checkpoint,
    run_open_loop,
)

# Per-request deadline for the sweep: the bound "graceful degradation" is
# measured against — admitted requests must finish within it plus compute.
DEADLINE_MS = 250.0
# Traffic keeps running this long after the last hot swap is observed, so
# the final weight generation carries live requests too.
RELOAD_TAIL_S = 0.5


def _train_network(scale: float, seed: int = 0):
    dataset = generate_synthetic_xc(delicious_like_config(scale=scale, seed=seed))
    label_dim = dataset.config.label_dim
    # bucket_size >= label_dim: no FIFO bucket can ever overflow, which is
    # the precondition for bitwise hot-swap parity (overflow eviction order
    # is the one piece of table state an incremental patch does not carry).
    lsh = LSHConfig(hash_family="simhash", k=4, l=24, bucket_size=max(96, label_dim))
    layers = (
        LayerConfig(size=64, activation="relu", lsh=None),
        LayerConfig(
            size=label_dim,
            activation="softmax",
            lsh=lsh,
            sampling=SamplingConfig(
                strategy="vanilla",
                target_active=max(16, label_dim // 12),
                min_active=16,
            ),
            rebuild=RebuildScheduleConfig(initial_period=20, decay=0.3),
        ),
    )
    network = SlideNetwork(
        SlideNetworkConfig(input_dim=dataset.config.feature_dim, layers=layers, seed=seed)
    )
    trainer = SlideTrainer(
        network,
        TrainingConfig(
            batch_size=64,
            epochs=1,
            optimizer=OptimizerConfig(name="adam", learning_rate=1e-3),
            seed=seed,
        ),
    )
    trainer.train(dataset.train, dataset.test)
    return network, dataset, trainer


def build_report(
    scale: float = 1.0 / 1024.0,
    probe_s: float = 2.0,
    sweep_s: float = 3.0,
    load_fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0),
    reload_s: float = 5.0,
    num_swaps: int = 2,
    seed: int = 0,
) -> dict:
    network, dataset, trainer = _train_network(scale=scale, seed=seed)
    budget = max(16, int(0.15 * network.output_dim))
    examples = list(dataset.test)

    with TemporaryDirectory(prefix="bench-serving-store-") as tmp:
        store = CheckpointStore(tmp)
        store.save(network, trainer.optimizer, keep_last=3)
        config = ServingConfig(
            engine="sparse",
            active_budget=budget,
            top_k=5,
            max_batch_size=16,
            max_wait_ms=1.0,
            num_workers=2,
            queue_capacity=256,
            admission_policy="shed",
            deadline_ms=DEADLINE_MS,
            reload_poll_s=3600.0,  # swaps are driven synchronously below
        )
        runtime = OnlineRuntime(store, config).start()
        try:
            # ------------------------------------------------------ phase 1
            # The probe rate must exceed what the runtime can sustain or
            # "capacity" is just the probe rate echoed back; 10k/s is past
            # what the single-threaded generator + queue can clear here.
            probe = run_open_loop(runtime, examples, qps=10_000.0, duration_s=probe_s, k=5)
            capacity = max(probe.achieved_qps, 1.0)

            # ------------------------------------------------------ phase 2
            sweep_rows = []
            for fraction in load_fractions:
                time.sleep(0.3)  # let the previous point's backlog drain
                report = run_open_loop(
                    runtime,
                    examples,
                    qps=max(fraction * capacity, 1.0),
                    duration_s=sweep_s,
                    k=5,
                )
                row = report.to_dict()
                row["load_fraction"] = fraction
                sweep_rows.append(row)

            # ------------------------------------------------------ phase 3
            time.sleep(0.3)
            reload_qps = max(0.6 * capacity, 1.0)
            # Each publish retrains one epoch before swapping, and a retrain
            # under load takes longer than the unloaded one.  Traffic runs
            # until the last swap has been observed plus a short tail, so
            # *every* swap lands while the generator is still sending (the
            # post-swap generations must carry live traffic, not just exist).
            swaps_done = threading.Event()
            reload_reports: list[dict] = []
            loadgen_result: list = []

            def client() -> None:
                loadgen_result.append(
                    run_open_loop(
                        runtime,
                        examples,
                        qps=reload_qps,
                        duration_s=reload_s,
                        k=5,
                        until=swaps_done,
                    )
                )

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            for _ in range(num_swaps):
                time.sleep(0.4)
                trainer.train(dataset.train)
                store.save(network, trainer.optimizer, keep_last=3)
                swap = runtime.watcher.poll_once()
                assert swap is not None, "watcher must pick up the new version"
                reload_reports.append(
                    {
                        "version": swap.version,
                        "blip_ms": swap.duration_s * 1e3,
                        "changed_rows": swap.changed_rows,
                        "update_items": swap.update_items,
                        "moved_entries": swap.moved_entries,
                        "full_rebuild": swap.full_rebuild,
                        "generation": swap.generation,
                    }
                )
            time.sleep(RELOAD_TAIL_S)
            swaps_done.set()
            thread.join(timeout=120.0)
            reload_traffic = loadgen_result[0].to_dict()
            reload_window_s = reload_traffic["duration_s"]

            # ------------------------------------------------------ phase 4
            latest = store.latest()
            cold = SparseInferenceEngine(
                load_checkpoint(latest, load_optimizer=False).network,
                active_budget=budget,
            )
            resident = runtime.engine
            swapped_preds = resident.predict_batch(examples, k=5)
            cold_preds = cold.predict_batch(examples, k=5)
            parity = all(
                np.array_equal(a.class_ids, b.class_ids)
                and np.array_equal(a.scores, b.scores)
                for a, b in zip(swapped_preds, cold_preds)
            )
            stats = runtime.stats()
        finally:
            runtime.stop()

    return {
        "config": {
            "scale": scale,
            "active_budget": budget,
            "num_workers": config.num_workers,
            "queue_capacity": config.queue_capacity,
            "deadline_ms": DEADLINE_MS,
            "input_dim": network.input_dim,
            "output_dim": network.output_dim,
            "sweep_duration_s": sweep_s,
        },
        "capacity": {
            "probe_offered_qps": probe.offered_qps,
            "sustained_qps": capacity,
            "probe_shed_rate": probe.shed_rate,
        },
        "qps_sweep": sweep_rows,
        "hot_reload": {
            "num_swaps": num_swaps,
            "window_s": reload_window_s,
            "swaps": reload_reports,
            "incremental_swaps": sum(1 for r in reload_reports if not r["full_rebuild"]),
            "traffic": reload_traffic,
            "reloads_recorded": stats["reloads"],
            "reload_failures": stats["reload_failures"],
        },
        "parity": {
            "bitwise_topk_equal_to_cold_load": bool(parity),
            "checkpoint_version": latest.name,
            "requests_compared": len(examples),
        },
    }


def check_report(report: dict) -> list[str]:
    """Acceptance invariants; returns human-readable failures (empty = pass)."""
    failures: list[str] = []
    sweep = report["qps_sweep"]
    hot = report["hot_reload"]
    bound_ms = report["config"]["deadline_ms"] + 500.0

    for row in sweep:
        if row["errors"]:
            failures.append(f"{row['errors']} hard errors at {row['offered_qps']:.0f} qps")
        # Graceful degradation: admitted requests stay bounded by the
        # deadline (+compute/settle slack) even at 2x overload.
        if row["completed"] and row["latency_ms"]["p99"] > bound_ms:
            failures.append(
                f"admitted p99 {row['latency_ms']['p99']:.0f}ms exceeds "
                f"{bound_ms:.0f}ms at {row['load_fraction']}x load"
            )
    # Overload must actually shed, and shedding must grow with offered load.
    if sweep[-1]["shed_rate"] < sweep[0]["shed_rate"]:
        failures.append("shed rate did not rise with offered load")
    if sweep[-1]["load_fraction"] >= 1.5 and sweep[-1]["shed_rate"] == 0.0:
        failures.append("no shedding at overload — admission control inert")

    if hot["traffic"]["errors"]:
        failures.append(f"hot reload failed {hot['traffic']['errors']} live requests")
    if hot["incremental_swaps"] < 1:
        failures.append("no incremental (non-full-rebuild) LSH patch recorded")
    if any(r["full_rebuild"] for r in hot["swaps"]):
        failures.append("a swap fell back to a full table rebuild")
    if len(hot["traffic"]["generations"]) < hot["num_swaps"] + 1:
        failures.append(
            f"traffic spanned {len(hot['traffic']['generations'])} weight "
            f"generations, expected {hot['num_swaps'] + 1} (every swap under load)"
        )
    if not report["parity"]["bitwise_topk_equal_to_cold_load"]:
        failures.append("post-swap engine diverges from cold-loaded checkpoint")
    return failures


def _print_report(report: dict) -> None:
    rows = [
        {
            "load": f"{row['load_fraction']}x",
            "offered_qps": round(row["offered_qps"], 1),
            "achieved_qps": round(row["achieved_qps"], 1),
            "p50_ms": round(row["latency_ms"]["p50"], 2),
            "p99_ms": round(row["latency_ms"]["p99"], 2),
            "p999_ms": round(row["latency_ms"]["p999"], 2),
            "shed_rate": round(row["shed_rate"], 3),
            "errors": row["errors"],
        }
        for row in report["qps_sweep"]
    ]
    print(
        format_table(
            rows,
            title=(
                f"Sustained-QPS sweep (capacity "
                f"{report['capacity']['sustained_qps']:.0f} rps, "
                f"deadline {report['config']['deadline_ms']:.0f}ms)"
            ),
        )
    )
    print()
    swap_rows = [
        {
            "version": r["version"],
            "blip_ms": round(r["blip_ms"], 2),
            "changed_rows": r["changed_rows"],
            "moved_entries": r["moved_entries"],
            "full_rebuild": r["full_rebuild"],
        }
        for r in report["hot_reload"]["swaps"]
    ]
    print(format_table(swap_rows, title="Hot reload under live traffic"))
    traffic = report["hot_reload"]["traffic"]
    print(
        f"reload-phase traffic: {traffic['completed']} completed, "
        f"{traffic['errors']} errors, shed rate {traffic['shed_rate']:.3f}, "
        f"generations {sorted(traffic['generations'])}"
    )
    print(
        "parity (post-swap vs cold load): "
        f"{report['parity']['bitwise_topk_equal_to_cold_load']}"
    )


def test_serving_latency_bench_smoke(run_once):
    report = run_once(
        build_report,
        scale=1.0 / 2048.0,
        probe_s=0.6,
        sweep_s=0.8,
        load_fractions=(0.5, 1.5),
        reload_s=1.5,
    )
    print()
    _print_report(report)
    failures = check_report(report)
    assert not failures, "\n".join(failures)


# ----------------------------------------------------------------------
# Registry generator (see repro.reports): bench id "serving_latency"
# ----------------------------------------------------------------------
def run(params: dict | None = None) -> dict:
    """Pure payload generator for the report registry."""
    p = dict(params or {})
    if p.get("smoke", False):
        # The 2x point stays in the smoke sweep: the committed baseline's
        # overload p99 / shed rate are the trend-gated metrics.
        return build_report(
            scale=float(p.get("scale", 1.0 / 2048.0)),
            probe_s=0.8,
            sweep_s=1.0,
            load_fractions=(0.5, 1.0, 2.0),
            reload_s=2.0,
        )
    return build_report(scale=float(p.get("scale", 1.0 / 1024.0)))


def check(payload: dict, smoke: bool) -> list[str]:
    """Graceful-degradation + hot-reload acceptance invariants."""
    return check_report(payload)


def print_report(payload: dict) -> None:
    _print_report(payload)


def main() -> None:
    from repro.reports.cli import bench_main

    raise SystemExit(bench_main("serving_latency"))


if __name__ == "__main__":
    main()
