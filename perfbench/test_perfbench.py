"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import hostprobe
import run
import tracer
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import qdl  # noqa: E402
import qdl.analysis  # noqa: E402
import qdl.figures  # noqa: E402
import qdl.verify  # noqa: E402


def _ticking_clock():
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    return clock


def test_self_time_of_synthetic_nested_call():
    t = tracer.Tracer(clock=_ticking_clock())
    leaf = t.wrap("m.leaf", lambda: None)

    def middle_body():
        leaf()
        leaf()

    middle = t.wrap("m.middle", middle_body)
    outer = t.wrap("m.outer", lambda: (middle(), leaf()))
    outer()
    # Each clock read ticks by one: outer 1-10, middle 2-7 with leaves 3-4 and 5-6, last leaf 8-9.
    assert t.names == ["m.outer", "m.middle", "m.leaf", "m.leaf", "m.leaf"]
    assert t.parents == [-1, 0, 1, 1, 0]
    assert list(zip(t.starts, t.ends)) == [(1, 10), (2, 7), (3, 4), (5, 6), (8, 9)]
    assert t.self_times() == [9 - 5 - 1, 5 - 2, 1, 1, 1]
    totals = t.layer_totals()
    assert totals["m.leaf"] == {"calls": 3, "self_s": 3.0, "total_s": 3.0}
    assert totals["m.outer"]["self_s"] == 3.0


def test_self_time_counts_overlapping_children_once():
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 4.0, 5.0, 12.0]  # children overlap each other and the parent's end
    assert tracer.self_times(starts, ends, [-1, 0, 0, 0]) == [10.0 - 4.0 - 2.0, 3.0, 3.0, 4.0]


def test_horodecki_bmax_traces_one_3x3_eigensolve_across_modules():
    shapes = []
    t = tracer.Tracer({"linalg.hermitian_eigensystem": lambda stats, args, kwargs, result: shapes.append(args[0].shape)})
    rho = qdl.scenario_density(qdl.ScenarioParams(d=0.6, r_s=0.7, r_m=0.8), qdl.Scenario.COMBINED)
    original = qdl.bell.hermitian_eigenvalues
    rebound = t.install()
    try:
        assert rebound > 0
        assert qdl.bell.hermitian_eigenvalues is not original
        value = qdl.bell.horodecki_bmax(rho)
    finally:
        t.uninstall()
    assert qdl.bell.hermitian_eigenvalues is original
    assert value == qdl.bell.horodecki_bmax(rho)
    assert shapes == [(3, 3)]
    assert t.names == [
        "bell.horodecki_bmax",
        "bell.horodecki_m",
        "bell.correlation_tensor",
        "linalg.hermitian_eigenvalues",
        "linalg.hermitian_eigensystem",
    ]
    assert t.parents == [-1, 0, 1, 1, 3]


def test_install_rebinds_suite_registry_and_restores_it():
    originals = dict(qdl.verify.SUITES)
    t = tracer.Tracer()
    t.install()
    try:
        assert all(qdl.verify.SUITES[k] is not fn for k, fn in originals.items())
        assert qdl.verify.suite_brute is qdl.verify.SUITES["brute"]
    finally:
        t.uninstall()
    assert qdl.verify.SUITES == originals
    assert qdl.verify.suite_brute is originals["brute"]


def test_tampered_csv_digest_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "FIGURE_NUMBERS", (7,))  # the one figure that builds no states
    digests = dict(workloads.load_reference(run.REFERENCE)["figure_sha256"])
    good = workloads.figures_workload(qdl, digests, tmp_path / "good")
    assert good.requests[0]() == (1, 0)
    digests["7"] = "0" * 64
    tampered = workloads.figures_workload(qdl, digests, tmp_path / "tampered")
    assert tampered.requests[0]() == (1, 1)


def test_exception_in_a_request_counts_as_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "FIGURE_NUMBERS", (7,))
    digests = workloads.load_reference(run.REFERENCE)["figure_sha256"]
    workload = workloads.figures_workload(qdl, digests, tmp_path)

    def broken(*args):
        raise ArithmeticError("no convergence")

    monkeypatch.setattr(qdl.figures, "write_figure_csv", broken)
    assert workload.requests[0]() == (1, 1)
    assert "ArithmeticError: no convergence" in capsys.readouterr().err


def test_analyze_gate_rejects_a_moved_reference():
    point = dict(workloads.load_reference(run.REFERENCE)["analyze_pool"][1])
    report = qdl.analysis.analyze(*workloads.point_params(qdl, point))
    assert workloads.analyze_ok(report, point["reference"], qdl.verify.BRUTE_TOL)
    moved = dict(point["reference"], i_ab=point["reference"]["i_ab"] + 1e-11)
    assert not workloads.analyze_ok(report, moved, qdl.verify.BRUTE_TOL)


def test_analyze_order_cycles_scenarios_and_depends_on_seed():
    pool = workloads.make_pool(size=16)
    order = workloads.analyze_order(len(pool), seed=3)
    assert sorted(order) == list(range(16))
    assert [pool[i]["scenario"] for i in order[:4]] == list(workloads.SCENARIO_ORDER)
    assert order == workloads.analyze_order(len(pool), seed=3)
    assert order != workloads.analyze_order(len(pool), seed=4)


def test_traced_call_counts_repeat_for_the_same_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    pool = workloads.load_reference(run.REFERENCE)["analyze_pool"]

    def traced_counts():
        workload = workloads.analyze_workload(qdl, pool, seed=5)
        workload.requests = workload.requests[:8]
        metrics, attempted, failed = run.traced_run(workload, seed=5)
        assert (attempted, failed) == (16, 0)
        return {k: v for k, v in metrics.items() if k.endswith((".calls", ".matrices"))}

    first = traced_counts()
    assert first["analysis.analyze.calls"] == 8
    assert first["bell.chsh_brute_force.calls"] == 8
    assert first == traced_counts()
    assert (tmp_path / "spans-analyze-seed5.csv.gz").is_file()


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_eigensystem_observer_counts_stacked_matrices():
    stats = {}
    run._count_matrices(stats, (np.zeros((5, 3, 4, 4)),), {}, None)
    run._count_matrices(stats, (np.eye(4),), {}, None)
    assert stats["matrices"] == 16


def test_host_probe_scales_to_the_reference_speed():
    probe = hostprobe.HostProbe()
    window = hostprobe.WINDOW_S
    probe.times = [0.002, 0.004, 0.003, 0.001]
    probe.stamps = [1.0, 1.0 + 2 * window, 1.0 + 3 * window, 1.0 + 10 * window]
    assert probe.scale() == pytest.approx(hostprobe.REFERENCE_S / 0.0025)
    # probes taken while a long request ran
    assert probe.scale(0.5 + 2 * window, 1.5 + 3 * window) == pytest.approx(hostprobe.REFERENCE_S / 0.0035)
    # a short request: widened to WINDOW_S around it
    assert probe.scale(1.0 + 9.7 * window, 1.0 + 9.8 * window) == pytest.approx(hostprobe.REFERENCE_S / 0.001)
    # no probe nearby: the whole run
    assert probe.scale(1.0 + 6 * window, 1.0 + 6.1 * window) == probe.scale()
    metrics = run.end_to_end_metrics([0.1, 0.3], [0.2], scales=[0.5, 1.0], setup_scale=2.0)
    assert metrics["request_p50_ms"] == pytest.approx(175.0)
    assert metrics["requests_per_s"] == pytest.approx(2 / 0.35)
    assert metrics["setup_s"] == pytest.approx(0.4)


def _busy(seconds: float) -> None:
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass


def test_host_probe_samples_while_requests_run():
    probe = hostprobe.HostProbe()
    with probe.running():
        _busy(0.3)
    assert len(probe.times) >= 5
    probe.sample(3)
    assert len(probe.stamps) == len(probe.times)
    assert probe.spent_s == pytest.approx(sum(probe.times))


def test_probe_time_is_taken_out_of_each_request():
    class FakeProbe:
        spent_s = 0.0

        @contextlib.contextmanager
        def running(self):
            yield self

        def scale(self, start, end):
            return 1.0

    probe = FakeProbe()

    def request():
        _busy(0.05)
        probe.spent_s += 0.02
        return 1, 0

    latencies, _, attempted, failed = run.timed_run(workloads.Workload("busy", [request], lambda: None, {}), 0.01, probe)
    assert (attempted, failed) == (1, 0)
    assert 0.03 <= latencies[0] < 0.05


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
