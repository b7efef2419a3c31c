"""Tests of the benchmark itself: names, trace accounting, open loop, seeds.

The end-to-end cases run the real command at a tiny dataset scale for one
second, so they check the wiring, not the performance.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import loadgen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_SCALE = "0.002"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_command(workload: str, trace: int, seed: int = 5) -> list[str]:
    return [
        sys.executable,
        str(BENCH / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "1",
        "--trace", str(trace),
        "--scale", TINY_SCALE,
    ]


def run_bench(workload: str, trace: int, seed: int = 5) -> dict:
    completed = subprocess.run(
        bench_command(workload, trace, seed),
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    runs = [
        ("train_batched", 1),
        ("train_hogwild", 0),
        ("serve_open_loop", 0),
        ("serve_open_loop", 1),
    ]
    return {run: run_bench(*run) for run in runs}


def test_workload_and_metric_names_match_benchmark_json(results):
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert end_to_end == workloads.END_TO_END
    assert per_layer == workloads.PER_LAYER
    for (_workload, trace), result in results.items():
        expected = per_layer if trace else end_to_end
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(results):
    for (_workload, trace), result in results.items():
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_self_times_add_up_to_the_traced_wall(results):
    for (_workload, trace), result in results.items():
        if not trace:
            continue
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        parts = [metrics[name] for name in spans.TIME_METRICS.values()]
        assert all(part >= 0.0 for part in parts)
        assert metrics["other_s"] >= -1e-9
        assert math.isclose(sum(parts) + metrics["other_s"], metrics["trace.wall_s"], rel_tol=1e-9)


def test_self_times_subtract_children_and_clip_to_the_window():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def inner():
        traced_leaf()
        traced_leaf()

    def outer():
        traced_inner()

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()
    # Each wrapped call reads the clock once on entry and once on exit:
    # outer spans 0..7, inner 1..6, the leaves 2..3 and 4..5.
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["outer"][4] is None
    assert by_name["inner"][4] == by_name["outer"][0]
    whole = spans.self_times(tracer.spans, (0.0, 7.0))
    assert whole == {"leaf": 2.0, "inner": 3.0, "outer": 2.0}
    clipped = spans.self_times(tracer.spans, (3.0, 6.0))
    assert clipped == {"leaf": 1.0, "inner": 2.0, "outer": 0.0}


def test_patch_and_unpatch_restore_functions_and_classmethods():
    class Thing:
        @classmethod
        def make(cls, value):
            return cls, value

        def double(self, value):
            return 2 * value

    originals = dict(Thing.__dict__)
    tracer = spans.Tracer()
    tracer.patch(Thing, "make", "make")
    tracer.patch(Thing, "double", "double")
    assert Thing.make(3) == (Thing, 3)
    assert Thing().double(4) == 8
    assert [span[1] for span in tracer.spans] == ["make", "double"]
    tracer.unpatch()
    assert Thing.__dict__["make"] is originals["make"]
    assert Thing.__dict__["double"] is originals["double"]


class SerialRuntime:
    """Serves submitted requests one by one on a thread, 1 ms each.

    ``stall_on`` makes the worker sleep ``stall_s`` before that request;
    ``submit_stall_on`` makes ``submit`` itself sleep (a generator stall).
    """

    def __init__(self, stall_on=None, submit_stall_on=None, stall_s=0.1):
        self.stall_on = stall_on
        self.submit_stall_on = submit_stall_on
        self.stall_s = stall_s
        self.count = 0
        self.queue: list = []
        self.cond = threading.Condition()
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.closed = False
        self.thread.start()

    def submit(self, example):
        index = self.count
        self.count += 1
        if index == self.submit_stall_on:
            time.sleep(self.stall_s)
        future = Future()
        with self.cond:
            self.queue.append((index, future))
            self.cond.notify()
        return future

    def serve(self):
        while True:
            with self.cond:
                while not self.queue and not self.closed:
                    self.cond.wait()
                if self.closed and not self.queue:
                    return
                index, future = self.queue.pop(0)
            if index == self.stall_on:
                time.sleep(self.stall_s)
            time.sleep(0.001)
            future.set_result(index)

    def close(self):
        with self.cond:
            self.closed = True
            self.cond.notify()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.mark.parametrize("where", ["worker", "generator"])
def test_open_loop_charges_a_stall_to_the_requests_behind_it(where):
    rate, stalled, stall_s = 200.0, 10, 0.1
    runtime = SerialRuntime(
        stall_on=stalled if where == "worker" else None,
        submit_stall_on=stalled if where == "generator" else None,
        stall_s=stall_s,
    )
    try:
        answers = {}
        phase = loadgen.run_phase(runtime.submit, list(range(40)), rate, answers.__setitem__)
    finally:
        runtime.close()
    latencies = phase.latencies_s()
    assert not phase.failures
    assert answers == {i: i for i in range(40)}
    # Requests due while the stall lasted waited for it, measured from the
    # time they were due, not from the time they were finally sent.
    for position in range(stalled + 1, stalled + 15):
        behind = (position - stalled) / rate
        assert latencies[position] >= stall_s - behind - 0.005
    assert latencies[stalled + 1] >= 0.08
    assert max(latencies[:stalled]) < 0.05
    if where == "generator":
        assert phase.max_lag_s >= 0.08
        # The request sent right after the stall was submitted late, so it
        # looks fast when timed from its send.
        assert phase.done[stalled + 1] - phase.sent[stalled + 1] < 0.05


def test_refused_and_failed_requests_count_as_infinitely_late():
    def submit(example):
        if example == 2:
            raise RuntimeError("refused")
        future = Future()
        if example == 3:
            future.set_exception(RuntimeError("engine error"))
        else:
            future.set_result(example)
        return future

    answers = {}
    phase = loadgen.run_phase(submit, [0, 1, 2, 3, 4], 1000.0, answers.__setitem__)
    assert phase.failures == [2, 3]
    assert answers == {0: 0, 1: 1, 4: 4}
    assert math.isinf(phase.latencies_s()[2]) and math.isinf(phase.latencies_s()[3])
    assert math.isinf(loadgen.percentile(phase.latencies_s(), 99))


def test_capacity_counts_from_first_to_last_completion():
    # Four requests of a burst due at 10.0: three answered at 10.5, 11.0
    # and 11.5, one failed.  The wait for the first answer is left out.
    phase = loadgen.PhaseResult(
        rate=None,
        start=10.0,
        due=[10.0] * 4,
        sent=[10.0] * 4,
        done=[10.5, 11.0, 11.5, math.nan],
        end=11.5,
        failures=[3],
    )
    assert phase.service_s == 1.0
    assert phase.service_rate() == 2.0
    assert phase.achieved_rate() == 2.0


def test_same_seed_same_inputs_other_seed_other_inputs():
    def fingerprint(examples):
        return [
            (ex.features.indices.tolist(), ex.features.values.tolist(), ex.labels.tolist())
            for ex in examples
        ]

    dataset = workloads.make_dataset(float(TINY_SCALE))
    again = workloads.make_dataset(float(TINY_SCALE))
    assert fingerprint(dataset.train + dataset.test) == fingerprint(again.train + again.test)

    def drawn(seed):
        return fingerprint(workloads.training_examples(dataset, seed, 64))

    assert drawn(3) == drawn(3)
    assert drawn(3) != drawn(4)
    assert workloads.request_order(3, 100) == workloads.request_order(3, 100)
    assert workloads.request_order(3, 100) != workloads.request_order(4, 100)
    assert np.array_equal(np.sort(workloads.request_order(3, 100, passes=1)), np.arange(100))


def session_members(session: int) -> list[int]:
    """Live processes in ``session`` (read from /proc)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while being read
        # After the command name: state, ppid, pgrp, session.
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_run_that_builds_the_prepared_state_leaves_no_process_behind(tmp_path):
    for cached in workloads.CACHE.glob(f"*-{float(TINY_SCALE):g}-*.pkl"):
        cached.unlink()
    # Files, not pipes: waiting for a pipe's end would also wait for any
    # process that inherited it.
    with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
        process = subprocess.Popen(
            bench_command("train_batched", 0), stdout=out, stderr=err, cwd=ROOT,
            start_new_session=True,
        )
        assert process.wait(timeout=120) == 0, (tmp_path / "err").read_text()
    left = session_members(process.pid)
    for pid in left:
        os.kill(pid, 9)
    assert left == []
    # A helper that outlived the build counts as a failed check of the run.
    result = json.loads((tmp_path / "out").read_text().strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(workloads.CACHE.glob(f"*-{float(TINY_SCALE):g}-*.pkl"))
