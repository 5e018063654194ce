"""Set-up, timed rounds, traced round and the result line of one run."""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from reference import Reference
from tracer import Tracer, import_profile
from workloads import FACTORIES, Op, Workload

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
ROUTES = ("sf_crossing", "sf_tracking", "maslov", "loop_flow", "cli")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Tally:
    """Operations attempted, failed, and the reasons of the first failures."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, op: Op, reason: str, wrong: bool):
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.reasons) < 20:
            self.reasons.append(f"{op.route} {op.label}: {reason}".strip())


def run_round(ops: list[Op], tally: Tally, tracer: Tracer | None = None,
              reference: Reference | None = None) -> list[tuple[str, float]]:
    """Run every operation once; (route, seconds) of each timed call."""
    timings = []
    for op in ops:
        tally.attempted += 1
        start = time.perf_counter()
        error = None
        try:
            with tracer.enabled() if tracer else contextlib.nullcontext():
                result = op.call()
        except Exception as exc:  # any failure of the program counts against it
            error = exc
        elapsed = time.perf_counter() - start
        timings.append((op.route, elapsed))
        if reference is not None:
            reference.after_call(elapsed)
        if error is not None:
            tally.fail(op, f"{type(error).__name__}: {error}", wrong=False)
            continue
        try:
            reason = op.check(result)
        except Exception as exc:  # malformed output is a wrong answer
            reason = f"unreadable result ({type(exc).__name__}: {exc})"
        if reason is not None:
            tally.fail(op, reason, wrong=True)
    return timings


def timed_rounds(ops: list[Op], seconds: float, tally: Tally):
    """Whole rounds until ``seconds`` have passed.

    Per-round times, all call times, and the reference kernel's samples
    taken between the calls.
    """
    rounds: list[float] = []
    calls: list[tuple[str, float]] = []
    reference = Reference()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        timings = run_round(ops, tally, reference=reference)
        rounds.append(sum(t for _, t in timings))
        calls += timings
    return rounds, calls, reference


class SetUp(NamedTuple):
    """The last build, the median set-up time and the kernel samples beside it."""

    built: Workload
    seconds: float
    reference: Reference


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def set_up(workload: str, seed: int, root: Path, workdir: Path) -> SetUp:
    """Build the inputs SETUP_REPEATS times, with kernel samples between them.

    Each repetition is a fresh interpreter importing lagflow plus the input
    generation from the seed in this process.
    """
    env = child_env(root)
    times = []
    built = None
    reference = Reference()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lagflow, lagflow.cli"], cwd=root,
                       env=env, check=True, timeout=120)
        imported = time.perf_counter() - start
        start = time.perf_counter()
        built = FACTORIES[workload](np.random.default_rng(seed), workdir)
        times.append(imported + time.perf_counter() - start)
        reference.after_call(times[-1])
    return SetUp(built, statistics.median(times), reference)


def peak_rss_mb(workload: str) -> float:
    # the cli workload's program runs in child processes
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def route_medians(calls) -> dict[str, float]:
    out = {}
    for route in ROUTES:
        times = [t for r, t in calls if r == route]
        out[route] = 1e3 * statistics.median(times) if times else 0.0
    return out


def end_to_end(args, setup: SetUp, tally: Tally):
    rounds, calls, reference = timed_rounds(setup.built.ops, args.seconds, tally)
    metrics = {
        "setup_s": (setup.reference.in_reference_s(setup.seconds), "s"),
        "wall_s": (reference.in_reference_s(statistics.fmean(rounds)), "s"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }
    return metrics, rounds, calls


def per_layer(args, root: Path, setup: SetUp, tally: Tally):
    ops = setup.built.traced_ops
    rounds, calls, reference = timed_rounds(ops, args.seconds, tally)
    tracer = Tracer()
    with tracer.installed():
        traced = run_round(ops, tally, tracer)
    metrics = tracer.metrics()
    metrics["raw.setup_s"] = (setup.seconds, "s")
    metrics["raw.wall_s"] = (statistics.fmean(rounds), "s")
    metrics["ref.kernel_ms"] = (1e3 * reference.mean_s(), "ms")
    for route, ms in route_medians(calls).items():
        metrics[f"route.{route}.ms"] = (ms, "ms")
    metrics["trace.overhead_s"] = (sum(t for _, t in traced) - statistics.median(rounds), "s")
    imports = [import_profile(root, child_env(root)) for _ in range(IMPORT_REPEATS)]
    metrics["cli.import_s"] = (statistics.median(i for i, _ in imports), "s")
    metrics["cli.import_scipy_optimize_s"] = (statistics.median(o for _, o in imports), "s")
    return metrics, rounds, calls


def machine(root: Path) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src" / "lagflow").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "platform": platform.platform(),
        "src_lagflow_lines": src_lines,
    }


def run_benchmark(args, root: Path) -> int:
    out_dir = root / "bench" / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        setup = set_up(args.workload, args.seed, root, workdir)
        if args.trace:
            metrics, rounds, calls = per_layer(args, root, setup, tally)
        else:
            metrics, rounds, calls = end_to_end(args, setup, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for reason in tally.reasons:
        print(f"bench: failed: {reason}", file=sys.stderr)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=rounds, setup_s=setup.seconds,
                  ops_per_round=len(setup.built.ops),
                  route_ms=route_medians(calls), failures=tally.reasons,
                  machine=machine(root))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0
