"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop with one client: the next request starts when
the previous one has returned.  A request is what one user command does:

  verify   one default ``run_suites()``, the work of ``qdl verify``
           (gate: every one of the 13 suites PASSes; each suite is one op)
  figures  ``write_figure_csv`` of all seven figures at RESOLUTION, the work of
           ``qdl figure N`` for N = 1..7 (gate: each CSV's SHA-256 equals the
           recorded digest; each figure is one op)
  analyze  one ``analyze()`` with the CLI defaults on one point of a pool of
           POOL_SIZE edge-biased points recorded with their outputs, in an
           order drawn from the seed that cycles through the four scenarios
           (gate: every reported quantity but b_brute equals the recorded
           reference to ANALYZE_TOL, and b_horodecki - b_brute lies in
           [-1e-6, BRUTE_TOL])

A request returns ``(attempted, failed)`` op counts; an exception fails every
op of the request.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

RESOLUTION = 41
FIGURE_NUMBERS = tuple(range(1, 8))
ANALYZE_TOL = 1e-12
BRUTE_LOW = -1e-6
POOL_SEED = 2001
POOL_SIZE = 128
SCENARIO_ORDER = ("free", "system", "meter", "combined")
SCENARIO_AXES = {
    "free": ("r", "d"),
    "system": ("d", "r_s"),
    "meter": ("d", "r_m"),
    "combined": ("d", "r_s", "r_m"),
}
EDGE_MAX_EXPONENT = 15

Request = Callable[[], tuple[int, int]]


def edge_biased(rng: random.Random) -> tuple[float, bool]:
    """A coordinate in [0, 1] and whether it came from an edge draw.

    Edge draws are exactly 0 or 1, or within 10^-k of 0 or 1 for k = 1..15;
    the rest are uniform.
    """
    u = rng.random()
    if u < 0.2:
        return float(rng.choice((0.0, 1.0))), True
    if u < 0.45:
        x = rng.random() * 10.0 ** -rng.randint(1, EDGE_MAX_EXPONENT)
        return (x if rng.random() < 0.5 else 1.0 - x), True
    return rng.random(), False


def make_pool(seed: int = POOL_SEED, size: int = POOL_SIZE) -> list[dict]:
    """Edge-biased analyze points cycling through the four scenarios; nothing is filtered out.

    ``edge`` marks a point with at least one coordinate from an edge draw.
    """
    rng = random.Random(seed)
    pool = []
    for i in range(size):
        scenario = SCENARIO_ORDER[i % len(SCENARIO_ORDER)]
        point = {"scenario": scenario, "edge": False}
        for axis in SCENARIO_AXES[scenario]:
            point[axis], edge = edge_biased(rng)
            point["edge"] = point["edge"] or edge
        pool.append(point)
    return pool


def analyze_order(pool_size: int, seed: int) -> list[int]:
    """Seeded order over the pool that still cycles free, system, meter, combined."""
    rng = random.Random(seed)
    lanes = [list(range(k, pool_size, len(SCENARIO_ORDER))) for k in range(len(SCENARIO_ORDER))]
    for lane in lanes:
        rng.shuffle(lane)
    return [idx for group in zip(*lanes) for idx in group]


def point_params(qdl, point: dict):
    axes = {a: point[a] for a in SCENARIO_AXES[point["scenario"]]}
    return qdl.Scenario(point["scenario"]), qdl.ScenarioParams(**axes)


def analyze_quantities(report) -> dict:
    """Every quantity ``qdl analyze`` prints, except the optimizer's b_brute."""
    cls = report.classifications
    return {
        "v": report.v,
        "p": report.p,
        "b_horodecki": report.bell.b_horodecki,
        "b_closed_form": report.bell.b_closed_form,
        "ppt_spectrum": [float(x) for x in report.sep.ppt_spectrum],
        "negativity": report.sep.negativity,
        "s_a": report.info.s_a,
        "s_b": report.info.s_b,
        "s_ab": report.info.s_ab,
        "i_ab": report.info.i_ab,
        "info_threshold": report.info.threshold,
        "d_threshold": report.d_threshold,
        "chsh_violating": cls.chsh_violating,
        "lrt_explainable": cls.lrt_explainable,
        "entangled": cls.entangled,
        "above_info_threshold": cls.above_info_threshold,
    }


def _matches(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_matches, got, want))
    if want is None or got is None:
        return got is want
    if isinstance(want, bool):
        return not isinstance(got, float) and got == want
    return math.isfinite(got) and abs(float(got) - want) <= ANALYZE_TOL


def analyze_ok(report, reference: dict, brute_tol: float) -> bool:
    got = analyze_quantities(report)
    if any(not _matches(got[key], want) for key, want in reference.items()):
        return False
    gap = report.bell.b_horodecki - report.bell.b_brute
    return BRUTE_LOW <= gap <= brute_tol


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Workload:
    """One pass of requests and a warm-up.

    Timed runs repeat whole passes (the whole analyze pool), so every run
    measures the same mix of requests and only their order depends on the
    seed; the traced run is one pass.
    """

    name: str
    requests: list[Request]
    warmup: Callable[[], None]
    inputs: dict  # printed with the results: what this run's inputs were


def _report_exception() -> None:
    """A request raised: print the traceback; the caller fails the ops it covered."""
    traceback.print_exc(file=sys.stderr)


# Requests look the package functions up on their modules at call time, so a
# tracer that rebinds them sees the calls the benchmark makes.


def verify_workload(qdl) -> Workload:
    suites = len(qdl.verify.SUITES)

    def run() -> tuple[int, int]:
        try:
            results = qdl.verify.run_suites()
        except Exception:  # noqa: BLE001 - a crash fails every suite of the request
            _report_exception()
            return suites, suites
        return suites, suites - sum(1 for r in results if r.passed)

    def warmup() -> None:
        qdl.verify.run_suites(resolution=2)

    return Workload("verify", [run], warmup, {"suites": suites})


def figures_workload(qdl, digests: dict[str, str], out_dir: Path) -> Workload:
    out_dir.mkdir(parents=True, exist_ok=True)

    def run() -> tuple[int, int]:
        failed = 0
        for n in FIGURE_NUMBERS:
            path = out_dir / f"figure{n}.csv"
            try:
                rows = qdl.figures.write_figure_csv(n, RESOLUTION, str(path))
            except Exception:  # noqa: BLE001
                _report_exception()
                failed += 1
                continue
            if rows != RESOLUTION * RESOLUTION or sha256_file(path) != digests[str(n)]:
                failed += 1
        return len(FIGURE_NUMBERS), failed

    def warmup() -> None:
        for n in FIGURE_NUMBERS:
            qdl.figures.write_figure_csv(n, qdl.figures.MIN_RESOLUTION, str(out_dir / f"warmup{n}.csv"))

    return Workload("figures", [run], warmup, {"resolution": RESOLUTION})


def analyze_workload(qdl, pool: list[dict], seed: int) -> Workload:
    def request_for(point: dict) -> Request:
        scenario, params = point_params(qdl, point)

        def run() -> tuple[int, int]:
            try:
                report = qdl.analysis.analyze(scenario, params)
            except Exception:  # noqa: BLE001
                _report_exception()
                return 1, 1
            return 1, 0 if analyze_ok(report, point["reference"], qdl.verify.BRUTE_TOL) else 1

        return run

    order = analyze_order(len(pool), seed)
    requests = [request_for(pool[idx]) for idx in order]

    def warmup() -> None:
        for point in pool[: 2 * len(SCENARIO_ORDER)]:
            qdl.analysis.analyze(*point_params(qdl, point))

    edge_share = sum(p["edge"] for p in pool) / len(pool)
    inputs = {"pool_points": len(pool), "edge_point_share": edge_share}
    return Workload("analyze", requests, warmup, inputs)


def load_reference(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
