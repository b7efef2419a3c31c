"""The benchmark's three workloads, their inputs and their correctness checks.

Every workload runs on the Delicious-200K-like synthetic set at 1/16 scale
(48,911 features, 12,840 labels) with the repository's throughput
architecture: a 64-unit ReLU layer, then a softmax over all labels sampled
through SimHash tables (K=4, L=24, vanilla sampling,
``target_active = label_dim // 12``), trained with batch 32 and Adam 1e-3.

* ``train_batched`` — synchronous training through the fused batched
  kernels.  Sampling, the optimiser and the gather-GEMM carry the time; the
  serving engine is not used.
* ``train_hogwild`` — per-sample (HOGWILD) training, the paper's execution
  model: the same lsh/sampling/optim layers called thousands of times with
  small inputs, and no fused kernels.  Per-call overhead shows here.
* ``serve_open_loop`` — an LSH-budgeted sparse engine behind the serving
  runtime (one worker), driven open-loop at a fixed ladder of rates and then
  by bursts.  The engine and serving layers carry the time; the hash tables
  are only read.

Training workloads train a fixed number of steps per measured second,
replayed from the same warm state, so both sides of a comparison do the
same work and ``p_at_1`` depends only on the seed.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import math
import os
import pickle
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

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
from repro.core.inference import evaluate_precision_at_1
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.datasets.synthetic import delicious_like_config, generate_synthetic_xc
from repro.serving.engine import SparseInferenceEngine
from repro.serving.pool import ServingRuntime

import loadgen
import spans

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench" / "cache"
SCALE = 1.0 / 16.0
# The dataset and the model's initialisation are fixed, as a real benchmark
# dataset is: the run's seed draws the examples trained in the measured
# window and the order requests are sent in.  Seeding the dataset or the
# initialisation instead moves per-sample work (active-set sizes) by up to
# 20% between seeds, which would bury the changes the benchmark must see.
DATASET_SEED = 0
MODEL_SEED = 0
BATCH_SIZE = 32
LEARNING_RATE = 1e-3
HIDDEN_UNITS = 64
# Set-up is repeated and its median reported, so work moved into set-up
# shows against a steady figure.
SETUP_REPEATS = 15
# Training steps per measured second, over all replays: sized on a 2-core
# x86 host so one run takes about --seconds of training.  Fixed, so the work
# is the same on every commit whatever its speed.
STEPS_PER_SECOND = {"train_batched": 10, "train_hogwild": 7}
# The training chunk runs this many times from the same warm state; the
# work is identical, and interference from other work on the host only ever
# adds time, so each step is credited with its least time over the replays.
TRAIN_REPLAYS = 2
# A timing's tail.  Training: the highest percentile with at least ten
# samples beyond it (a replay is 100 batched or 70 HOGWILD steps at
# --seconds 20).  Serving: the p90 of the calmest of the middle rate's
# phases.  A phase is 900 requests, but its p99 mostly measured the host's
# own scheduling stalls (20-50 ms, several a minute on a shared 2-core
# host): over ten runs the median p99 spread by 45% of its median, and even
# the median p90 by 31%, because a slow period of the host often covers
# most phases of a run.  A stall the program causes in every phase still
# moves the calmest one.  The median p90 and p99 are still printed, and the
# median p99 still decides which rates meet the latency limit.
TRAIN_TAIL = 85
SERVE_TAIL = 90
# Training fails its check when held-out precision@1 falls below these
# (about half the lowest value seen over seeds on healthy code).
P_AT_1_FLOOR = {"train_batched": 0.3, "train_hogwild": 0.25}

# Serving: the served model is trained for this many batched steps.
SERVE_TRAIN_STEPS = 100
SERVE_BUDGET_SHARE = 0.15
SERVE_TOP_K = 5
SERVE_MAX_BATCH = 32
SERVE_WORKERS = 1
SERVE_P_AT_1_FLOOR = 0.35
# Offered rates (requests/s), about 25/50/75% of the one-worker capacity
# measured on a 2-core x86 host in a slow period (~1,200 req/s; up to
# ~2,200 when the host is quiet), so the middle rate, whose latency is
# reported, stays clear of saturation when the host slows.  Fixed: they do
# not follow the host, so two commits are offered the same load.
LADDER_RPS = (300.0, 600.0, 900.0)
P99_LIMIT_MS = 50.0
# A phase whose generator ran later than this is invalid.
LAG_LIMIT_MS = 25.0
# The middle rate and the saturating burst run this many times each with
# the same requests, alternating, so both are sampled across the whole run;
# each figure taken from them is the median over its replays.  The host's
# speed swings within seconds (burst capacity by up to 40% between bursts
# of one run): a slow spell that hits a few replays leaves the median alone,
# a stall the program causes in most replays moves it.
SERVE_REPLAYS = 8
# Shares of --seconds: warm-up at the middle rate, each phase at the middle
# rate, and each phase at the other rates (which only decide which rates
# meet the limit).
WARMUP_SHARE = 0.025
MIDDLE_SHARE = 0.075
OUTER_SHARE = 0.05
# Requests per measured second in each burst, sent at once: at --seconds 20
# a burst keeps the worker saturated for about half a second (some 30 full
# micro-batches).
BURST_PER_SECOND = 52
PARITY_SAMPLES = 512
VALID_MODES = frozenset({"sparse", "dense", "dense_fallback", "sparse_norerank"})

WORKLOADS = ("train_batched", "train_hogwild", "serve_open_loop")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p_at_1": "ratio",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}
PER_LAYER = dict(
    [(metric, "s") for metric in spans.TIME_METRICS.values()]
    + [
        ("other_s", "s"),
        ("optim.steps", "count"),
        ("lsh.rebuilds", "count"),
        ("lsh.moved_entries", "count"),
        ("sampling.label_recall", "ratio"),
        ("sampling.table_share", "ratio"),
        ("engine.candidates_per_request", "count"),
        ("engine.fallback_ratio", "ratio"),
        ("serving.queue_wait_p50_ms", "ms"),
        ("serving.queue_wait_p99_ms", "ms"),
        ("serving.batch_size_mean", "count"),
        ("loadgen.max_lag_ms", "ms"),
        ("loadgen.max_ok_rps", "1/s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


@dataclass
class Outcome:
    """One workload run: metric values, the checks' tally, and detail."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Findings that fail no check (a rate not credited, for instance).
    notes: list[str] = field(default_factory=list)
    # Per-workload names printed alongside (train_samples_per_s, serve_p99_ms, ...).
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    tracer: spans.Tracer | None = None

    def fail(self, count: int, message: str) -> None:
        if count:
            self.failed += count
            self.problems.append(message)


# ----------------------------------------------------------------------
# Inputs and model
# ----------------------------------------------------------------------
def make_dataset(scale: float = SCALE):
    """The benchmark's fixed synthetic Delicious-like dataset."""
    return generate_synthetic_xc(delicious_like_config(scale=scale, seed=DATASET_SEED))


def training_examples(dataset, seed: int, count: int) -> list:
    """``count`` training examples drawn by ``seed`` (distinct while they last)."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(len(dataset.train), size=min(count, len(dataset.train)), replace=False)
    return cycled([dataset.train[int(i)] for i in ids], count)


def network_config(dataset) -> SlideNetworkConfig:
    label_dim = dataset.config.label_dim
    layers = (
        LayerConfig(size=HIDDEN_UNITS, activation="relu", lsh=None),
        LayerConfig(
            size=label_dim,
            activation="softmax",
            lsh=LSHConfig(hash_family="simhash", k=4, l=24, bucket_size=96),
            sampling=SamplingConfig(
                strategy="vanilla",
                target_active=max(16, label_dim // 12),
                min_active=16,
            ),
            rebuild=RebuildScheduleConfig(initial_period=20, decay=0.3),
        ),
    )
    return SlideNetworkConfig(
        input_dim=dataset.config.feature_dim, layers=layers, seed=MODEL_SEED
    )


def build_trainer(dataset, hogwild: bool) -> SlideTrainer:
    training = TrainingConfig(
        batch_size=BATCH_SIZE,
        epochs=1,
        optimizer=OptimizerConfig(name="adam", learning_rate=LEARNING_RATE),
        seed=MODEL_SEED,
    )
    return SlideTrainer(SlideNetwork(network_config(dataset)), training, hogwild=hogwild)


def cycled(examples, count: int) -> list:
    return [examples[i % len(examples)] for i in range(count)]


def timed_setups(build, prepare=lambda: None):
    """Build ``SETUP_REPEATS`` times; return the last build and every time.

    ``build(prepare())`` is timed; ``prepare`` is not.
    """
    built, seconds = None, []
    for _ in range(SETUP_REPEATS):
        built = None
        gc.collect()
        argument = prepare()
        start = time.perf_counter()
        built = build(argument)
        seconds.append(time.perf_counter() - start)
    return built, seconds


def settle_heap() -> None:
    """Collect, then exempt every object alive now from later collections.

    The dataset and the model are hundreds of thousands of long-lived
    objects; without this a full collection triggered mid-run stops every
    thread for tens of milliseconds to scan them.
    """
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StepClock:
    """The training examples, stamping the time of every batch fetch.

    The trainer fetches each batch's examples through ``gather``, so the
    gaps between fetches are the step times the user sees (batch assembly
    included), measured without touching the program.
    """

    def __init__(self, examples: list) -> None:
        self.examples = examples
        self.fetches: list[float] = []

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, index):
        return self.examples[index]

    def gather(self, ids) -> list:
        self.fetches.append(time.perf_counter())
        return [self.examples[int(i)] for i in ids]

    def step_seconds(self, end: float) -> list[float]:
        marks = self.fetches + [end]
        return [b - a for a, b in zip(marks, marks[1:])]


# ----------------------------------------------------------------------
# Prepared state: the dataset plus the warm trainer or the served model
# ----------------------------------------------------------------------
def prepared(workload: str, scale: float):
    """``(dataset, state)`` for ``workload``, built once per program version.

    Neither depends on the run's seed.  The first run in a checkout builds
    them for every workload in a child process (``run.py --prepare``, waited
    for) and pickles them under ``.perfbench/cache``; every run loads its
    own, so every measuring process does the same work.  The cache key
    covers the program's source, this file and the versions that could
    change the result.
    """
    paths = prepared_paths(scale)
    if not all(path.exists() for path in paths.values()):
        command = [
            sys.executable,
            str(Path(__file__).with_name("run.py")),
            "--prepare",
            "--scale",
            repr(scale),
        ]
        # The child's output goes to stderr: the last line of stdout is the result.
        completed = subprocess.run(command, stdout=sys.stderr, check=False)
        if completed.returncode != 0:
            raise RuntimeError(
                f"building the prepared state failed (exit code {completed.returncode})"
            )
    with open(paths[workload], "rb") as handle:
        return pickle.load(handle)


def prepared_paths(scale: float) -> dict[str, Path]:
    key = _cache_key(scale)
    return {name: CACHE / f"{name}-{scale:g}-{key}.pkl" for name in WORKLOADS}


def _cache_key(scale: float) -> str:
    digest = hashlib.sha256()
    sources = sorted((ROOT / "src" / "repro").rglob("*.py")) + [Path(__file__).resolve()]
    for source in sources:
        digest.update(source.relative_to(ROOT).as_posix().encode())
        digest.update(source.read_bytes())
    digest.update(f"{scale!r}|{platform.python_version()}|{np.__version__}".encode())
    return digest.hexdigest()[:20]


def build_prepared(scale: float) -> None:
    """Build and pickle every workload's missing prepared state, dropping stale ones."""
    paths = prepared_paths(scale)
    missing = {name: path for name, path in paths.items() if not path.exists()}
    if not missing:
        return
    for name, path in missing.items():
        for stale in CACHE.glob(f"{name}-{scale:g}-*.pkl"):
            stale.unlink()
    dataset = make_dataset(scale)
    for workload, path in missing.items():
        if workload == "serve_open_loop":
            state = train_serving_model(dataset)
        else:
            state = warm_trainer(dataset, workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(partial, "wb") as handle:
            pickle.dump((dataset, state), handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(partial, path)


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
def warm_trainer(dataset, workload: str) -> SlideTrainer:
    """A trainer after one epoch, the state every replay starts from.

    Step cost and precision change fastest over the first epoch, while the
    tables and weights leave their random start; measuring after it keeps
    the figures steady from seed to seed.
    """
    trainer = build_trainer(dataset, workload == "train_hogwild")
    trainer.train(dataset.train)
    return trainer


def _replay(warm: SlideTrainer, examples: list, tracer=None) -> dict:
    """Train ``examples`` on a copy of the warm trainer; optionally traced."""
    trainer = copy.deepcopy(warm)
    clock = StepClock(examples)
    counters = spans.LayerCounters()
    settle_heap()
    if tracer is not None:
        spans.install_layer_wrappers(tracer, counters)
    try:
        start = time.perf_counter()
        trainer.train(clock)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.unpatch()
    return {
        "trainer": trainer,
        "window": (start, end),
        "step_seconds": clock.step_seconds(end),
        # Every step's loss, warm-up included.
        "losses": [record.loss for record in trainer.history.records],
        "counters": counters,
    }


def _check_training(outcome: Outcome, run: dict, dataset, workload: str) -> float:
    losses = run["losses"]
    outcome.attempted += len(losses) + 1
    bad = sum(1 for loss in losses if not math.isfinite(loss))
    outcome.fail(bad, f"{bad} training steps had a non-finite loss")
    p_at_1 = evaluate_precision_at_1(run["trainer"].network, dataset.test)
    floor = P_AT_1_FLOOR[workload]
    outcome.fail(int(p_at_1 < floor), f"p_at_1 {p_at_1:.4f} is below the floor {floor}")
    return p_at_1


def _check_replay(outcome: Outcome, run: dict, reference: dict, what: str) -> None:
    """A replay from the same warm state must compute exactly the same losses."""
    outcome.attempted += 1
    outcome.fail(int(run["losses"] != reference["losses"]), f"{what} diverged from the first replay")


def run_training(workload: str, seed: int, seconds: float, trace: bool, scale: float = SCALE):
    dataset, warm = prepared(workload, scale)
    hogwild = workload == "train_hogwild"
    _, setup_seconds = timed_setups(lambda _: build_trainer(dataset, hogwild))
    steps = max(1, int(round(seconds * STEPS_PER_SECOND[workload] / TRAIN_REPLAYS)))
    per_replay = steps * BATCH_SIZE
    examples = training_examples(dataset, seed, per_replay)
    outcome = Outcome()
    replays = []
    for _ in range(TRAIN_REPLAYS):
        if replays:
            replays[-1]["trainer"] = None  # keep one trained copy alive at a time
        replays.append(_replay(warm, examples))
    for replay in replays[1:]:
        _check_replay(outcome, replay, replays[0], "a replay")
    last = replays[-1]
    p_at_1 = _check_training(outcome, last, dataset, workload)
    # Each step's time is the least it took in any replay: the work is
    # identical, so the difference is interference from the host.
    best_steps_ms = [min(times) * 1e3 for times in zip(*(r["step_seconds"] for r in replays))]
    walls = [r["window"][1] - r["window"][0] for r in replays]
    outcome.metrics = {
        "setup_s": float(np.median(setup_seconds)),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": per_replay / (sum(best_steps_ms) / 1e3),
        "p_at_1": p_at_1,
        "latency_p50_ms": loadgen.percentile(best_steps_ms, 50),
        "latency_tail_ms": loadgen.percentile(best_steps_ms, TRAIN_TAIL),
    }
    outcome.named = {
        "train_samples_per_s": (outcome.metrics["throughput_per_s"], "1/s"),
        "train_p_at_1": (p_at_1, "ratio"),
        f"train_step_p{TRAIN_TAIL}_ms": (outcome.metrics["latency_tail_ms"], "ms"),
        "train_steps_per_replay": (float(steps), "count"),
    }
    outcome.detail = {
        "samples_per_replay": per_replay,
        "replay_wall_s": walls,
        "best_step_ms": best_steps_ms,
    }
    if trace:
        last["trainer"] = None
        tracer = spans.Tracer()
        traced = _replay(warm, examples, tracer)
        # The wrappers must not change what the program computes.
        _check_replay(outcome, traced, replays[0], "the traced replay")
        outcome.metrics = layer_metrics(tracer, traced["counters"], traced["window"])
        outcome.metrics["trace.overhead_s"] = (traced["window"][1] - traced["window"][0]) - min(walls)
        outcome.tracer = tracer
    return outcome


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
def serving_config(label_dim: int) -> ServingConfig:
    return ServingConfig(
        engine="sparse",
        active_budget=serving_budget(label_dim),
        top_k=SERVE_TOP_K,
        max_batch_size=SERVE_MAX_BATCH,
        num_workers=SERVE_WORKERS,
        # Room for the whole burst: refusing part of it would measure
        # admission control, not capacity.
        queue_capacity=16384,
    )


def serving_budget(label_dim: int) -> int:
    return max(1, int(SERVE_BUDGET_SHARE * label_dim))


def train_serving_model(dataset) -> SlideNetwork:
    trainer = build_trainer(dataset, hogwild=False)
    trainer.train(cycled(dataset.train, SERVE_TRAIN_STEPS * BATCH_SIZE))
    return trainer.network


def start_runtime(network: SlideNetwork) -> ServingRuntime:
    config = serving_config(network.output_dim)
    engine = SparseInferenceEngine(network, active_budget=config.active_budget)
    return ServingRuntime(engine, config).start()


def request_order(seed: int, num_examples: int, passes: int = 64) -> list[int]:
    """Test-example ids in the order they are sent: seeded shuffles, repeated."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.permutation(num_examples) for _ in range(passes)]).tolist()


def check_answer(prediction, k: int, label_dim: int) -> bool:
    """k distinct in-range ids, finite scores in descending order, known mode."""
    ids = np.asarray(prediction.class_ids)
    scores = np.asarray(prediction.scores, dtype=np.float64)
    return bool(
        ids.shape == (k,)
        and scores.shape == (k,)
        and np.unique(ids).size == k
        and ids.min() >= 0
        and ids.max() < label_dim
        and np.all(np.isfinite(scores))
        and np.all(np.diff(scores) <= 0.0)
        and prediction.mode in VALID_MODES
    )


class AnswerCheck:
    """Checks every served answer as it arrives and keeps only tallies.

    The class ids of the answers at ``keep`` positions of a phase are kept
    for the parity check.
    """

    def __init__(self, test: list, label_dim: int) -> None:
        self.test = test
        self.label_dim = label_dim
        self.answered = 0
        self.hits = 0
        self.malformed = 0

    def handler(self, example_ids: list[int], kept: dict | None = None):
        def on_answer(position: int, prediction) -> None:
            if not check_answer(prediction, SERVE_TOP_K, self.label_dim):
                self.malformed += 1
                return
            self.answered += 1
            labels = self.test[example_ids[position]].labels
            self.hits += int(prediction.class_ids[0] in labels)
            if kept is not None and position in kept:
                kept[position] = prediction.class_ids

        return on_answer


def parity_positions(count: int) -> list[int]:
    return list(range(0, count, max(1, count // PARITY_SAMPLES)))[:PARITY_SAMPLES]


def _serve_pass(model, dataset, seed: int, seconds: float, tracer=None) -> dict:
    """Set up a runtime, warm it, run the ladder and the bursts; stop it.

    The middle rate and the burst run ``SERVE_REPLAYS`` times each,
    alternating, with the same requests; the other rates run once.
    """
    runtimes = []

    def prepare():
        # Each set-up starts from an identical copy of the trained model (the
        # engine re-hashes neurons training left stale, so it mutates it).
        if runtimes:
            runtimes.pop().stop()
        return copy.deepcopy(model)

    def build(network):
        runtimes.append(start_runtime(network))
        return runtimes[-1]

    runtime, setup_seconds = timed_setups(build, prepare)
    test = dataset.test
    answers = AnswerCheck(test, model.output_dim)
    stream = iter(request_order(seed, len(test)))

    def take(count: float) -> list[int]:
        return [next(stream) for _ in range(max(1, int(count)))]

    def submit(example):
        return runtime.submit(example, k=SERVE_TOP_K)

    def phase(example_ids, rate, kept=None):
        # Collected garbage from set-up and earlier phases is not the
        # phase's; the collector stays on while it runs.
        settle_heap()
        requests = [test[i] for i in example_ids]
        return loadgen.run_phase(submit, requests, rate, answers.handler(example_ids, kept))

    low, middle, high = LADDER_RPS
    counters = spans.LayerCounters()
    try:
        warmup = phase(take(WARMUP_SHARE * seconds * middle), middle)
        if tracer is not None:
            spans.install_layer_wrappers(tracer, counters)
        start = time.perf_counter()
        rungs = [[phase(take(OUTER_SHARE * seconds * low), low)]]
        ids = take(MIDDLE_SHARE * seconds * middle)
        burst_ids = take(BURST_PER_SECOND * seconds)
        parity = (ids, dict.fromkeys(parity_positions(len(ids))))
        middles, bursts = [], []
        for replay in range(SERVE_REPLAYS):
            middles.append(phase(ids, middle, None if replay else parity[1]))
            bursts.append(phase(burst_ids, None))
        rungs.append(middles)
        rungs.append([phase(take(OUTER_SHARE * seconds * high), high)])
        end = time.perf_counter()
    finally:
        # Stopping joins the worker, so every wrapped call has ended (and
        # recorded its span) before the wrappers come off.
        runtime.stop()
        if tracer is not None:
            tracer.unpatch()
    return {
        "runtime": runtime,
        "setup_seconds": setup_seconds,
        "warmup": warmup,
        "rungs": rungs,
        "bursts": bursts,
        "answers": answers,
        "parity": parity,
        "window": (start, end),
        "counters": counters,
    }


def _all_phases(run: dict) -> list[loadgen.PhaseResult]:
    return [run["warmup"], *(p for replays in run["rungs"] for p in replays), *run["bursts"]]


def phase_percentiles(replays: list[loadgen.PhaseResult], q: float) -> list[float]:
    """Each replay's ``q``-th latency percentile (s)."""
    return [loadgen.percentile(p.latencies_s(), q) for p in replays]


def median_percentile(replays: list[loadgen.PhaseResult], q: float) -> float:
    """Median over replays of each replay's ``q``-th latency percentile (s)."""
    return float(np.median(phase_percentiles(replays, q)))


def rung_ok(replays: list[loadgen.PhaseResult]) -> bool:
    """Valid generator, no failures, p99 within the limit, no backlog left."""
    limit_s = P99_LIMIT_MS / 1e3
    return (
        all(p.max_lag_s * 1e3 <= LAG_LIMIT_MS and not p.failures for p in replays)
        and median_percentile(replays, 99) <= limit_s
        and float(np.median([p.drain_s for p in replays])) <= limit_s
    )


def max_ok_rps(rungs) -> float:
    """Achieved rate of the highest ladder rate that met the limit (0 if none)."""
    passing = [
        float(np.median([p.achieved_rate() for p in replays]))
        for replays in rungs
        if rung_ok(replays)
    ]
    return passing[-1] if passing else 0.0


def capacity_rps(bursts: list[loadgen.PhaseResult]) -> float:
    """Median over the saturating bursts of completions per second."""
    return float(np.median([burst.service_rate() for burst in bursts]))


def _check_serving(outcome: Outcome, run: dict, dataset) -> float:
    """Tally the answer checks and the parity check; return served p@1."""
    for phase in _all_phases(run):
        outcome.attempted += len(phase.due)
        outcome.fail(len(phase.failures), f"{len(phase.failures)} requests failed or were refused")
    answers = run["answers"]
    outcome.fail(answers.malformed, f"{answers.malformed} answers were malformed")
    # Parity: served answers equal a direct single-threaded engine call.
    ids, kept = run["parity"]
    positions = [position for position, served in kept.items() if served is not None]
    engine = run["runtime"].engine
    mismatches = 0
    for chunk in range(0, len(positions), SERVE_MAX_BATCH):
        batch = positions[chunk : chunk + SERVE_MAX_BATCH]
        direct = engine.predict_batch([dataset.test[ids[i]] for i in batch], k=SERVE_TOP_K)
        for i, expected in zip(batch, direct):
            mismatches += int(not np.array_equal(kept[i], expected.class_ids))
    outcome.attempted += len(positions)
    outcome.fail(mismatches, f"{mismatches} served answers differ from a direct engine call")
    p_at_1 = answers.hits / max(answers.answered, 1)
    outcome.attempted += 1
    outcome.fail(
        int(p_at_1 < SERVE_P_AT_1_FLOOR),
        f"served p_at_1 {p_at_1:.4f} is below the floor {SERVE_P_AT_1_FLOOR}",
    )
    return p_at_1


def run_serving(seed: int, seconds: float, trace: bool, scale: float = SCALE):
    dataset, model = prepared("serve_open_loop", scale)
    outcome = Outcome()
    run = _serve_pass(model, dataset, seed, seconds)
    p_at_1 = _check_serving(outcome, run, dataset)
    middle = run["rungs"][len(run["rungs"]) // 2]
    outcome.metrics = {
        "setup_s": float(np.median(run["setup_seconds"])),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": capacity_rps(run["bursts"]),
        "p_at_1": p_at_1,
        "latency_p50_ms": median_percentile(middle, 50) * 1e3,
        "latency_tail_ms": min(phase_percentiles(middle, SERVE_TAIL)) * 1e3,
    }
    invalid = [
        f"{rate:g} req/s"
        for rate, replays in zip(LADDER_RPS, run["rungs"])
        if any(p.max_lag_s * 1e3 > LAG_LIMIT_MS for p in replays)
    ]
    if invalid:
        outcome.notes.append(
            f"generator lagged over {LAG_LIMIT_MS:g} ms (rate not credited): {', '.join(invalid)}"
        )
    outcome.named = {
        "serve_p50_ms": (outcome.metrics["latency_p50_ms"], "ms"),
        f"serve_p{SERVE_TAIL}_ms": (median_percentile(middle, SERVE_TAIL) * 1e3, "ms"),
        f"serve_p{SERVE_TAIL}_calmest_phase_ms": (outcome.metrics["latency_tail_ms"], "ms"),
        "serve_p99_ms": (median_percentile(middle, 99) * 1e3, "ms"),
        "serve_requests_per_phase": (float(len(middle[0].due)), "count"),
        "serve_max_ok_rps": (max_ok_rps(run["rungs"]), "1/s"),
        "serve_capacity_rps": (outcome.metrics["throughput_per_s"], "1/s"),
        "serve_p_at_1": (p_at_1, "ratio"),
    }
    outcome.detail = {
        "wall_s": run["window"][1] - run["window"][0],
        "phases": [_phase_summary(phase) for phase in _all_phases(run)],
    }
    if trace:
        tracer = spans.Tracer()
        traced = _serve_pass(model, dataset, seed, seconds, tracer)
        _check_serving(outcome, traced, dataset)
        outcome.metrics = layer_metrics(tracer, traced["counters"], traced["window"], traced["rungs"])
        # The bursts keep the worker saturated with the same requests in
        # both passes, so their durations differ by what tracing costs.
        outcome.metrics["trace.overhead_s"] = float(
            np.median([b.service_s for b in traced["bursts"]])
            - np.median([b.service_s for b in run["bursts"]])
        )
        outcome.tracer = tracer
    return outcome


def _phase_summary(phase: loadgen.PhaseResult) -> dict:
    latencies = phase.latencies_s()
    return {
        "offered_rps": phase.rate,
        "requests": len(phase.due),
        "failed": len(phase.failures),
        "achieved_rps": phase.achieved_rate(),
        "service_rps": phase.service_rate(),
        "p50_ms": loadgen.percentile(latencies, 50) * 1e3,
        "p90_ms": loadgen.percentile(latencies, 90) * 1e3,
        "p95_ms": loadgen.percentile(latencies, 95) * 1e3,
        "p99_ms": loadgen.percentile(latencies, 99) * 1e3,
        "max_lag_ms": phase.max_lag_s * 1e3,
        "drain_ms": phase.drain_s * 1e3,
    }


# ----------------------------------------------------------------------
# Per-layer metrics of a traced pass
# ----------------------------------------------------------------------
def layer_metrics(tracer, counters, window, rungs=()) -> dict:
    """Per-layer self times (summing with ``other_s`` to the traced wall) and counts.

    Queue waits and batch sizes are those of the middle ladder rate, the
    phases whose latency the end-to-end metrics report.
    """
    selfs = spans.self_times(tracer.spans, window)
    wall = window[1] - window[0]
    metrics = {metric: selfs.get(name, 0.0) for name, metric in spans.TIME_METRICS.items()}
    metrics["other_s"] = wall - sum(metrics.values())
    middle = rungs[len(rungs) // 2] if rungs else []

    def in_middle(stamp: float) -> bool:
        return any(phase.start <= stamp <= phase.end for phase in middle)

    waits_ms = [wait * 1e3 for stamp, wait in counters.queue_waits if in_middle(stamp)]
    sizes = [size for stamp, size in counters.batches if in_middle(stamp)]
    sampled = counters.from_tables + counters.fallback
    metrics.update(
        {
            "optim.steps": float(counters.optim_steps),
            "lsh.rebuilds": float(counters.rebuilds),
            "lsh.moved_entries": float(counters.moved_entries),
            "sampling.label_recall": counters.recall_sum / max(counters.recall_samples, 1),
            "sampling.table_share": counters.from_tables / sampled if sampled else 0.0,
            "engine.candidates_per_request": counters.candidates / max(counters.requests, 1),
            "engine.fallback_ratio": counters.fallback_requests / max(counters.requests, 1),
            "serving.queue_wait_p50_ms": loadgen.percentile(waits_ms, 50) if waits_ms else 0.0,
            "serving.queue_wait_p99_ms": loadgen.percentile(waits_ms, 99) if waits_ms else 0.0,
            "serving.batch_size_mean": float(np.mean(sizes)) if sizes else 0.0,
            "loadgen.max_lag_ms": max(
                (p.max_lag_s for replays in rungs for p in replays), default=0.0
            )
            * 1e3,
            "loadgen.max_ok_rps": max_ok_rps(rungs),
            "trace.wall_s": wall,
        }
    )
    return metrics
