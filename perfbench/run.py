#!/usr/bin/env python3
"""Run one evidnet benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs are generated from --seed. The workload's operation repeats for
--seconds seconds with a correctness check after each one. With
--trace 0 the last stdout line is a JSON object carrying the end-to-end
metrics of BENCHMARK.json; with --trace 1 it carries the per-layer
metrics, measured from spans recorded around calls into each layer.
Human-readable lines before it name the figures users see (train_s,
evaluate_s, predict_s, explain_ms_p50/p99) and the recorded environment.
The package is imported from ``src/`` of the checkout holding this file;
without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
BLAS_THREADS = 1
SETUP_REPS = 5
IMPORT_REPS = 9
PROBE_REPS = 5
MAX_FAILURES_SHOWN = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_TIMER = ("import time; t = time.process_time(); import evidnet; "
                "print(time.process_time() - t)")


def pin_blas_threads() -> None:
    """Hold BLAS at one thread; must run before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_evidnet() -> None:
    """Import the package from this checkout's src/, and from nowhere else."""
    if not (SRC / "evidnet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'evidnet'}")
    sys.path.insert(0, str(SRC))
    import evidnet

    if Path(evidnet.__file__).resolve().parent != SRC / "evidnet":
        raise SystemExit(f"perfbench: imported evidnet from {evidnet.__file__}, not {SRC}")


def fresh_import() -> float:
    """CPU seconds `import evidnet` takes in a new interpreter, as every CLI
    command pays it; timed inside the child, without interpreter start-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=env,
                          check=True, capture_output=True, text=True)
    return float(proc.stdout)


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


class Phase:
    """Latencies, sub-timings and check outcomes of a run of operations."""

    def __init__(self):
        self.cpu: list[float] = []
        self.seconds: list[float] = []  # calibrated
        self.parts: dict[str, list[float]] = {}  # calibrated
        self.attempted = 0
        self.failed = 0


def measure(work, state, seconds: float, speed, tracer=None) -> Phase:
    """Repeat the workload's operation until `seconds` have passed (at least once)."""
    phase = Phase()
    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = f"op{i}"
        phase.attempted += 1
        try:
            result, cpu, scaled = speed.timed(work.op, state, i)
            phase.cpu.append(cpu)
            phase.seconds.append(scaled)
            for name, value in work.parts(result).items():
                phase.parts.setdefault(name, []).append(value * scaled / cpu)
            errors = work.check(state, result)
        except Exception:  # a crashing operation is a failed one; keep measuring
            errors = [traceback.format_exc()]
        if errors:
            phase.failed += 1
            if phase.failed <= MAX_FAILURES_SHOWN:
                print(f"check failed in op {i}: {errors[:3]}", file=sys.stderr)
        i += 1
    return phase


def probe(work, state, speed) -> dict:
    """Untraced probes: forward_batch peak memory and loss/gradient times."""
    import tracemalloc

    import evidnet.model as ev_model
    import evidnet.training as ev_training

    out = {"model.forward_batch_peak_mb": 0.0, "training.total_loss_ms": 0.0,
           "training.gradients_ms": 0.0, "training.backward_ms": 0.0}
    batch_probe, loss_probe = work.probes(state)
    if batch_probe is not None:
        tracemalloc.start()
        ev_model.forward_batch(*batch_probe)
        out["model.forward_batch_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if loss_probe is not None:
        for fn, key in ((ev_training.total_loss, "training.total_loss_ms"),
                        (ev_training.gradients, "training.gradients_ms")):
            times = [speed.timed(fn, *loss_probe)[2] for _ in range(PROBE_REPS)]
            out[key] = 1e3 * statistics.median(times)
        out["training.backward_ms"] = out["training.gradients_ms"] - out["training.total_loss_ms"]
    return out


def _fmt(values: dict) -> str:
    return " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in values.items())


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import_evidnet()
    import tracing
    import workloads
    from calibration import REF_UNIT_S, SpeedProbe

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = workloads.WORKLOADS[name]
    shape = work.shapes[size]
    workdir = WORK / f"{name}-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    tracing_setup = tracer if tracer is not None else contextlib.nullcontext()
    print(f"workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"shape={json.dumps(shape, separators=(',', ':'))}")
    print("env " + _fmt(environment()))
    try:
        with SpeedProbe() as speed:
            imports = []
            for _ in range(IMPORT_REPS):
                start = time.perf_counter()
                inside = fresh_import()
                imports.append(inside * speed.factor(start, time.perf_counter()))
            import_s = statistics.median(imports)
            build_s = []
            for rep in range(SETUP_REPS):
                rep_dir = workdir / f"setup{rep}"
                rep_dir.mkdir(parents=True)
                with tracing_setup:
                    state, _, scaled = speed.timed(work.setup, shape, seed, rep_dir)
                build_s.append(scaled)
            if tracer is None:
                phases = [measure(work, state, seconds, speed)]
            else:
                plain = measure(work, state, seconds / 2, speed)
                with tracer:
                    phases = [plain, measure(work, state, seconds / 2, speed, tracer)]
                metrics = tracing.layer_metrics(tracer.spans, speed.factor)
                metrics.update(probe(work, state, speed))
        plain = phases[0]
        setup_s = import_s + statistics.median(build_s)
        print(f"setup import_s={import_s:.4f} build_s={[round(b, 4) for b in build_s]} (calibrated)")
        print("untraced " + _fmt(work.headline(plain.seconds, plain.parts)) + " (calibrated)")
        print(f"cpu op_ms_p50={1e3 * statistics.median(plain.cpu):.6g} (uncalibrated) "
              f"speed_unit_us={1e6 * speed.median_unit():.4g} ref_unit_us={1e6 * REF_UNIT_S:.4g}")
        if tracer is None:
            metrics = {
                "setup_s": setup_s,
                "op_ms_p50": 1e3 * statistics.median(plain.seconds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            kind = "end_to_end"
        else:
            traced = phases[1]
            print("traced " + _fmt(work.headline(traced.seconds, traced.parts)) + " (calibrated)")
            metrics["trace.overhead_ms"] = 1e3 * (
                statistics.median(traced.seconds) - statistics.median(plain.seconds))
            spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path)
            print(f"spans={len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
            kind = "per_layer"
        if "model_sha256" in state:
            print(f"model_sha256={state['model_sha256']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec[kind]}
    return {
        "correct": all(p.failed == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in units.items()},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_blas_threads()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
