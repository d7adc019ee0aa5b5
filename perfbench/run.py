"""Benchmark of the qdl package: end-to-end timings and per-layer traces.

Usage, from the repository root:

    python3 perfbench/run.py --workload {verify,figures,analyze} \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # each workload in turn

Workloads (see workloads.py) are closed loops with one client and no worker
threads; the package is imported from ``src/`` of the checkout.  BLAS/OpenMP
are pinned to one thread and QDL_THREADS is cleared, so the serial path is the
one measured.  A warm-up pass runs before anything is measured.

--trace 0 repeats passes over the workload's requests for --seconds seconds
and reports the end-to-end metrics.  Times are scaled to a reference host
speed, measured by a fixed probe that runs while the requests do
(hostprobe.py): each request by the probes taken around it, setup_s by
probes taken between the fresh starts.  The unscaled values are printed too.
--trace 1 runs one pass untraced and then the same pass under the outside-in
tracer (tracer.py), reports per-layer metrics and the tracing overhead, and
writes every span to perfbench/out/.  Per-layer times are not scaled.  Call
counts of a traced run repeat exactly for the same seed.

Every output is checked; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it repeat the
metrics for reading, with the run's inputs and platform.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from hostprobe import HostProbe
from tracer import TRACED_MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("verify", "figures", "analyze")
SETUP_REPEATS = 7
SETUP_PROBES = 10
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# Per-layer metrics: calls and self time of these functions, named <module>.<function>,
# and the summed self time of every traced function of each module.
LAYERS = (
    "states.scenario_density",
    "linalg.hermitian_eigensystem",
    "linalg.partial_trace",
    "linalg.partial_transpose",
    "linalg.kron",
    "bell.correlation_tensor",
    "bell.horodecki_bmax",
    "bell.chsh_brute_force",
    "bell.chsh_value",
    "bell.violation_boundary",
    "visibility.visibility_analytic",
    "visibility.visibility_sweep",
    "infotheory.ppt_check",
    "infotheory.mutual_information",
    "infotheory.von_neumann_entropy",
    "figures.map_grid",
    "figures.write_figure_csv",
    "analysis.analyze",
)
SUITE_NAMES = (
    "identities",
    "sweep",
    "closed_form",
    "brute",
    "boundaries",
    "ppt",
    "entropy",
    "info_threshold",
    "p_definition",
    "polarity",
    "meter_entropy",
    "meter_threshold",
    "threshold_sign",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["linalg.hermitian_eigensystem.matrices"] = "count"
    for suite in SUITE_NAMES:
        units[f"verify.suite.{suite}.s"] = "s"
    units["bell.chsh_brute_force.converged_ratio"] = "ratio"
    units["bell.chsh_brute_force.gap_max"] = "1"
    for module in TRACED_MODULES:
        units[f"{module}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def pin_environment() -> None:
    """One BLAS/OpenMP thread, serial grids, and ``src/`` importable here and in children."""
    os.environ.update(SINGLE_THREAD_ENV)
    os.environ.pop("QDL_THREADS", None)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    sys.path.insert(0, str(SRC))


def measure_setup(probe: HostProbe, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import qdl`` has returned in it.

    One extra first start fills the bytecode cache and is not counted.  A
    burst of host probes runs before each start.
    """
    code = "import qdl, sys; sys.stdout.write('ok'); sys.stdout.flush()"
    times = []
    for i in range(repeats + 1):
        probe.sample(SETUP_PROBES)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, cwd=ROOT)
        try:
            answer = proc.stdout.read(2)
            t1 = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if answer != b"ok" or proc.returncode != 0:
            raise RuntimeError(f"importing qdl in a fresh interpreter failed (exit {proc.returncode})")
        if i:
            times.append(t1 - t0)
    return times


def build_workload(name: str, seed: int):
    import qdl
    import qdl.analysis
    import qdl.figures
    import qdl.verify

    reference = workloads.load_reference(REFERENCE)
    if name == "verify":
        return workloads.verify_workload(qdl)
    if name == "figures":
        return workloads.figures_workload(qdl, reference["figure_sha256"], OUT / "figures")
    return workloads.analyze_workload(qdl, reference["analyze_pool"], seed)


def timed_run(workload, seconds: float, probe: HostProbe) -> tuple[list[float], list[float], int, int]:
    """Repeat passes of requests until ``seconds`` have passed; at least one pass.

    The host probe runs throughout; its time is taken out of each request's.
    Returns the request times, the host scale of each request, and op counts.
    """
    latencies: list[float] = []
    windows: list[tuple[float, float]] = []
    attempted = failed = 0
    per_pass = len(workload.requests)
    with probe.running():
        start = time.perf_counter()
        while True:
            request = workload.requests[len(latencies) % per_pass]
            probed = probe.spent_s
            t0 = time.perf_counter()
            ops, bad = request()
            t1 = time.perf_counter()
            latencies.append(t1 - t0 - (probe.spent_s - probed))
            windows.append((t0, t1))
            attempted += ops
            failed += bad
            if t1 - start >= seconds and len(latencies) % per_pass == 0:
                break
    return latencies, [probe.scale(t0, t1) for t0, t1 in windows], attempted, failed


def end_to_end_metrics(
    latencies: list[float], setup: list[float], scales: list[float] | None = None, setup_scale: float = 1.0
) -> dict[str, float]:
    """End-to-end metrics; each request time is multiplied by its scale, set-up times by ``setup_scale``."""
    scaled = [t * k for t, k in zip(latencies, scales)] if scales else latencies
    if len(scaled) > 1:
        p90 = statistics.quantiles(scaled, n=10, method="inclusive")[8]
    else:
        p90 = scaled[0]
    return {
        "setup_s": statistics.median(setup) * setup_scale,
        "request_p50_ms": statistics.median(scaled) * 1e3,
        "request_p90_ms": p90 * 1e3,
        "requests_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _count_matrices(stats: dict, args, kwargs, result) -> None:
    import numpy as np

    m = args[0] if args else kwargs["m"]
    stats["matrices"] = stats.get("matrices", 0) + int(np.prod(np.shape(m)[:-2], dtype=np.int64))


def _count_brute(stats: dict, args, kwargs, result) -> None:
    stats["attempts"] = stats.get("attempts", 0) + 1
    stats["converged"] = stats.get("converged", 0) + int(bool(result.brute_converged))
    gap = result.b_horodecki - result.b_brute
    stats["gap_max"] = max(stats.get("gap_max", gap), gap)


OBSERVERS = {
    "linalg.hermitian_eigensystem": _count_matrices,
    "bell.chsh_brute_force": _count_brute,
}


def traced_run(workload, seed: int) -> tuple[dict[str, float], int, int]:
    """One pass untraced, then the same pass traced; returns per-layer metrics and op counts."""
    import qdl.verify

    attempted = failed = 0
    t0 = time.perf_counter()
    for request in workload.requests:
        ops, bad = request()
        attempted += ops
        failed += bad
    plain_s = time.perf_counter() - t0

    tracer = Tracer(OBSERVERS)
    suite_spans = {key: f"verify.{fn.__name__}" for key, fn in qdl.verify.SUITES.items()}
    tracer.install()
    try:
        t0 = time.perf_counter()
        for op, request in enumerate(workload.requests):
            tracer.op = op
            ops, bad = request()
            attempted += ops
            failed += bad
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.csv.gz")
    totals = tracer.layer_totals()
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        entry = totals.get(layer, empty)
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
    metrics["linalg.hermitian_eigensystem.matrices"] = tracer.stats["linalg.hermitian_eigensystem"].get("matrices", 0)
    for suite in SUITE_NAMES:
        span = suite_spans.get(suite)
        metrics[f"verify.suite.{suite}.s"] = totals.get(span, empty)["total_s"]
    brute = tracer.stats["bell.chsh_brute_force"]
    attempts = brute.get("attempts", 0)
    metrics["bell.chsh_brute_force.converged_ratio"] = brute["converged"] / attempts if attempts else 0.0
    metrics["bell.chsh_brute_force.gap_max"] = brute.get("gap_max", 0.0)
    for module in TRACED_MODULES:
        metrics[f"{module}.self_s"] = sum(e["self_s"] for n, e in totals.items() if n.startswith(module + "."))
    metrics["trace.overhead_s"] = traced_s - plain_s
    return metrics, attempted, failed


def _environment_lines(args, workload) -> list[str]:
    import numpy

    threads = ",".join(f"{k}={v}" for k, v in SINGLE_THREAD_ENV.items())
    inputs = " ".join(f"{k}={v}" for k, v in workload.inputs.items())
    return [
        f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} {inputs}",
        f"python={platform.python_version()} numpy={numpy.__version__} nproc={os.cpu_count()}"
        f" affinity={len(os.sched_getaffinity(0))} {threads} QDL_THREADS=unset",
    ]


def _issue_aliases(name: str, metrics: dict[str, float], latencies: list[float]) -> list[str]:
    """The headline numbers under their workload-specific names."""
    if name == "verify":
        return [f"verify_s {metrics['request_p50_ms'] / 1e3:.4f} s (median of {len(latencies)} runs)"]
    if name == "figures":
        rows = len(workloads.FIGURE_NUMBERS) * workloads.RESOLUTION**2 * metrics["requests_per_s"]
        return [f"figures_points_per_s {rows:.1f} 1/s (resolution {workloads.RESOLUTION})"]
    return [
        f"analyze_p50_ms {metrics['request_p50_ms']:.3f} ms ({len(latencies)} points)",
        f"analyze_p90_ms {metrics['request_p90_ms']:.3f} ms",
    ]


def run_one(args) -> int:
    pin_environment()
    if not args.trace:
        setup_probe = HostProbe()
        setup = measure_setup(setup_probe)
    workload = build_workload(args.workload, args.seed)
    workload.warmup()
    lines = _environment_lines(args, workload)
    if args.trace:
        metrics, attempted, failed = traced_run(workload, args.seed)
        units = per_layer_units()
    else:
        probe = HostProbe()
        latencies, scales, attempted, failed = timed_run(workload, args.seconds, probe)
        raw = end_to_end_metrics(latencies, setup)
        metrics = end_to_end_metrics(latencies, setup, scales, setup_probe.scale())
        units = END_TO_END_UNITS
        lines.append(
            f"host probe: {len(probe.times)} samples, mean {statistics.mean(probe.times) * 1e3:.4f} ms,"
            f" median {statistics.median(probe.times) * 1e3:.4f} ms, scale {probe.scale():.4f},"
            f" set-up scale {setup_probe.scale():.4f};"
            " unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
        )
        lines += _issue_aliases(workload.name, metrics, latencies)
    lines.append(f"ops_attempted {attempted} ops_failed {failed} ops_failed_ratio {failed / attempted:.6f}")
    lines += [f"{name} {metrics[name]!r} {unit}" for name, unit in units.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run each workload in its own interpreter and relay its report."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        print(f"== {name}")
        print(proc.stdout, end="")
        status = status or proc.returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="qdl benchmark", prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="orders the analyze points; other workloads ignore it")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the measured loop (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdl" / "__init__.py").is_file():
        print(f"error: no qdl package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}; record it with perfbench/record_reference.py", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
