"""Benchmark command for the SLIDE reproduction.

One workload, in this process::

    python3 perfbench/run.py --workload train_batched --seed 1 --seconds 20 --trace 0

Every workload, each in a fresh child process::

    python3 perfbench/run.py --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and reports the per-layer metrics plus
the tracing overhead.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and traces
are also written under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import os

# BLAS must be single-threaded before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import signal
import socket
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
if not (ROOT / "src" / "repro").is_dir():
    # Measure the checkout the benchmark sits in, never another copy.
    sys.exit(f"perfbench: no program at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs the paths above)


def git_revision() -> str:
    """The checkout's commit (``unknown`` outside a git repository)."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def stop_children() -> list[str]:
    """Stop and wait for every child process still running; name each one.

    The benchmark waits for each process it starts where it starts it, so
    this only finds helpers started behind its back (a library's, say),
    which must not outlive the run.
    """
    stray = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            if int(fields[1]) != os.getpid():
                continue
            pid = int(stat.parent.name)
            if fields[0] != "Z":
                command = (stat.parent / "cmdline").read_bytes().replace(b"\0", b" ")
                stray.append(f"{pid} {command.decode(errors='replace').strip()}")
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (OSError, IndexError, ValueError):
            continue  # ended (or was reaped) while being looked at
    return stray


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
    }


def run_one(args) -> int:
    if args.workload == "serve_open_loop":
        outcome = workloads.run_serving(args.seed, args.seconds, bool(args.trace), args.scale)
    else:
        outcome = workloads.run_training(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    stray = stop_children()
    outcome.attempted += 1
    outcome.fail(len(stray), f"processes left running: {'; '.join(stray)}")
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    mismatch = set(units) ^ set(outcome.metrics)
    if mismatch:
        raise RuntimeError(f"metric set does not match the benchmark's: {sorted(mismatch)}")
    env = environment(args)
    print("# " + " ".join(f"{key}={value}" for key, value in env.items()))
    for name, (value, unit) in outcome.named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        f"{args.workload} error_ratio = {outcome.failed}/{outcome.attempted}"
        f" = {outcome.failed / outcome.attempted:.6g}"
    )
    for problem in outcome.problems:
        print(f"{args.workload} CHECK FAILED: {problem}")
    for note in outcome.notes:
        print(f"{args.workload} note: {note}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {outcome.metrics[name]:.6g} {unit}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = dict(
        result,
        environment=env,
        problems=outcome.problems,
        notes=outcome.notes,
        detail=outcome.detail,
    )
    record["named"] = {name: {"value": v, "unit": u} for name, (v, u) in outcome.named.items()}
    OUT.joinpath("results", stem + ".json").write_text(json.dumps(record, indent=1, default=str))
    if outcome.tracer is not None:
        outcome.tracer.write(OUT / "traces" / f"{stem}.json.gz", {"environment": env})
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own fresh process, one after another."""
    status = 0
    for workload in workloads.WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--scale", repr(args.scale),
        ]
        completed = subprocess.run(command, check=False)
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Dataset scale; the benchmark is defined at 1/16.  Smaller scales only
    # serve the benchmark's own tests.
    parser.add_argument("--scale", type=float, default=1.0 / 16.0)
    # Internal: build the prepared state a measuring run loads, then exit.
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.prepare:
        workloads.build_prepared(args.scale)
        return 0
    if args.workload is None:
        return run_all(args)
    try:
        return run_one(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
