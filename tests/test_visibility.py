import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdl import visibility
from qdl.linalg import partial_trace
from qdl.states import Scenario, ScenarioParams, scenario_densities, scenario_density
from qdl.verify import _AXES, SWEEP_RESOLUTION, _grid
from qdl.visibility import (
    ROTATION_A,
    check_identity,
    overlap,
    predictability,
    unpredictability,
    visibility_analytic,
    visibility_sweep,
)


def test_sweep_free_perfect_fringe():
    rho = scenario_density(ScenarioParams(r=0.5, d=0.0), Scenario.FREE)
    scan = visibility_sweep(rho, 1024)
    assert scan.visibility == pytest.approx(1.0, abs=1e-6)


def test_sweep_dead_fringe_at_total_decoherence():
    rho = scenario_density(ScenarioParams(d=0.5, r_s=0.0), Scenario.SYSTEM)
    assert visibility_sweep(rho, 1024).visibility == pytest.approx(0.0, abs=1e-9)


def test_sweep_meter_robustness_independent():
    for r in (0.0, 0.3, 0.8, 1.0):
        rho = scenario_density(ScenarioParams(d=0.6, r_m=r), Scenario.METER)
        assert visibility_sweep(rho, 1024).visibility == pytest.approx(0.8, abs=1e-6)


def test_sweep_rejects_tiny_phase_count():
    rho = scenario_density(ScenarioParams(d=0.3), Scenario.FREE)
    with pytest.raises(ValueError):
        visibility_sweep(rho, 7)


@pytest.mark.parametrize("n", [8.0, np.float64(16), True, "16"], ids=repr)
def test_sweep_rejects_a_phase_count_that_is_not_an_integer(n):
    rho = scenario_density(ScenarioParams(d=0.3), Scenario.FREE)
    with pytest.raises(ValueError, match="phase count"):
        visibility_sweep(rho, n)


def test_sweep_takes_a_numpy_integer_phase_count():
    rho = scenario_density(ScenarioParams(d=0.3), Scenario.FREE)
    assert visibility_sweep(rho, np.int64(16)).visibility == visibility_sweep(rho, 16).visibility


def test_sweep_records_requested_grid():
    rho = scenario_density(ScenarioParams(d=0.3), Scenario.FREE)
    scan = visibility_sweep(rho, 16)
    assert len(scan.phases) == len(scan.probabilities) == 16
    assert np.all((scan.probabilities >= 0) & (scan.probabilities <= 1))


def test_sweep_probabilities_follow_the_fringe_formula():
    # p(phi) = (1 - 2 Re(e^{-i phi} c)) / 2 with c = rho_A[0, 1]: the phase shift multiplies
    # |up>_A by e^{-i phi} and ROTATION_A recombines the paths.  The states are real, so c is
    # real and p(phi) = (1 - 2c cos phi) / 2 is even in phi: the sign of phi cannot be observed.
    coherent = np.kron(np.array([[0.5, 0.3], [0.3, 0.5]]), np.diag([0.6, 0.4]))
    states = [
        scenario_density(ScenarioParams(r=0.3, d=0.4), Scenario.FREE),
        scenario_density(ScenarioParams(d=0.6, r_s=0.7), Scenario.SYSTEM),
        scenario_density(ScenarioParams(d=0.5, r_m=0.2), Scenario.METER),
        scenario_density(ScenarioParams(d=0.8, r_s=0.7, r_m=0.5), Scenario.COMBINED),
        coherent,
    ]
    for rho in states:
        scan = visibility_sweep(rho, 64)
        c = partial_trace(rho, "A")[0, 1]
        expected = (1.0 - 2.0 * c * np.cos(scan.phases)) / 2.0
        assert np.max(np.abs(scan.probabilities - expected)) < 1e-14
    assert np.max(np.abs(ROTATION_A.T @ ROTATION_A - np.eye(2))) < 1e-15


def test_stacked_sweep_equals_per_state_scans():
    rng = np.random.default_rng(23)
    params = ScenarioParams(d=rng.uniform(0, 1, 9), r_s=rng.uniform(0, 1, 9), r_m=0.6)
    rho = scenario_densities(Scenario.COMBINED, params)
    for n in (9, 256, 1023, 1024):
        scan = visibility_sweep(rho, n)
        assert scan.probabilities.shape == (9, n)
        assert scan.visibility.shape == (9,)
        for k in range(9):
            single = visibility_sweep(rho[k], n)
            assert np.array_equal(single.probabilities, scan.probabilities[k]), (n, k)
            assert single.visibility == scan.visibility[k]


def test_stacked_sweep_equals_per_state_scans_on_the_verify_sweep_grid():
    rho = np.concatenate([chunk.rho for chunk in _grid(SWEEP_RESOLUTION, *_AXES)])
    assert rho.shape == (200, 4, 4)
    probabilities = visibility_sweep(rho).probabilities
    for k in range(len(rho)):
        assert visibility_sweep(rho[k]).probabilities.tobytes() == probabilities[k].tobytes(), k


def test_stacked_sweep_of_dense_states_equals_per_state_scans():
    # the scenario states have structural zeros; these have no zero entry
    rng = np.random.default_rng(24)
    g = rng.standard_normal((5, 4, 4))
    rho = g @ g.swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
    scan = visibility_sweep(rho, 64)
    for k in range(len(rho)):
        assert np.array_equal(visibility_sweep(rho[k], 64).probabilities, scan.probabilities[k])


def test_sweep_phases_are_read_only_and_shared():
    rho = scenario_density(ScenarioParams(d=0.3), Scenario.FREE)
    scan = visibility_sweep(rho, 16)
    with pytest.raises(ValueError, match="read-only"):
        scan.phases[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        visibility._readout(16)[1][0, 0] = 1.0
    again = visibility_sweep(rho, 16)
    assert again.phases is scan.phases
    assert np.array_equal(again.phases, 2.0 * np.pi * np.arange(16) / 16)
    assert again.probabilities.tobytes() == scan.probabilities.tobytes()


# Prints a digest of one numpy complex product, then the probability bytes of the
# verify sweep grid as one stack and of each of its states alone.
_SWEEP_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from qdl.verify import _AXES, SWEEP_RESOLUTION, _grid
from qdl.visibility import visibility_sweep
rng = np.random.default_rng(17)
g = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
print(hashlib.sha256((g[0] * g[1]).tobytes()).hexdigest())
rho = np.concatenate([chunk.rho for chunk in _grid(SWEEP_RESOLUTION, *_AXES)])
digest = hashlib.sha256(visibility_sweep(rho).probabilities.tobytes())
for state in rho:
    digest.update(visibility_sweep(state).probabilities.tobytes())
print(digest.hexdigest())
"""


def sweep_digests(disabled_features):
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if disabled_features:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled_features
    src = str(Path(visibility.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", _SWEEP_DIGEST_SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_sweep_bits_do_not_depend_on_numpy_simd_dispatch():
    default, reduced = sweep_digests(None), sweep_digests("X86_V4 X86_V3")
    if default[0] == reduced[0]:
        pytest.skip("NPY_DISABLE_CPU_FEATURES does not change numpy's complex product on this host")
    assert len(default) == 2
    assert reduced[1] == default[1]


def test_analytic_zero_for_maximally_mixed():
    assert visibility_analytic(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-14)


def test_analytic_free_point():
    rho = scenario_density(ScenarioParams(r=0.5, d=0.6), Scenario.FREE)
    assert visibility_analytic(rho) == pytest.approx(0.8, abs=1e-12)


def test_analytic_matches_sweep_on_random_points():
    rng = np.random.default_rng(21)
    for scenario in Scenario:
        for _ in range(4):
            params = ScenarioParams(
                r=0.5 if scenario is not Scenario.FREE else rng.uniform(0, 1),
                d=rng.uniform(0, 1),
                r_s=rng.uniform(0, 1),
                r_m=rng.uniform(0, 1),
            )
            rho = scenario_density(params, scenario)
            v_scan = visibility_sweep(rho, 4096).visibility
            assert abs(v_scan - visibility_analytic(rho)) < 1e-5


def test_predictability_values():
    assert predictability(ScenarioParams(r=0.5)) == 0.0
    assert predictability(ScenarioParams(r=1.0)) == 1.0
    assert predictability(ScenarioParams(r=0.25)) == pytest.approx(0.5)


def test_predictability_guard():
    # the knob functions take checked params, so an out-of-range knob is refused where the params are built
    with pytest.raises(ValueError, match="r must lie in"):
        predictability(ScenarioParams(r=-0.2))
    with pytest.raises(ValueError, match="d must lie in"):
        overlap(ScenarioParams(d=1.2))


def test_check_identity_examples():
    assert check_identity(Scenario.FREE, ScenarioParams(r=0.3, d=0.5)) < 1e-10
    assert check_identity(Scenario.METER, ScenarioParams(d=0.9, r_m=0.2)) < 1e-10
    assert check_identity(Scenario.COMBINED, ScenarioParams(d=0.5, r_s=0.7, r_m=0.3)) < 1e-10


def test_check_identity_degenerate_denominators():
    # r in {0, 1} makes 1 - p^2 vanish; r_s = 0 kills the quotient form
    assert check_identity(Scenario.FREE, ScenarioParams(r=0.0, d=0.4)) < 1e-10
    assert check_identity(Scenario.SYSTEM, ScenarioParams(d=0.4, r_s=0.0)) < 1e-10


def test_identity_grid():
    line = np.linspace(0, 1, 9)
    for scenario in Scenario:
        for d in line:
            for r in line:
                params = (
                    ScenarioParams(r=r, d=d)
                    if scenario is Scenario.FREE
                    else ScenarioParams(d=d, r_s=r, r_m=1 - r / 2)
                )
                assert check_identity(scenario, params) < 1e-9


def test_visibility_monotone_in_d_and_p():
    ds = np.linspace(0, 1, 11)
    vs = [
        visibility_analytic(scenario_density(ScenarioParams(r=0.3, d=d), Scenario.FREE)) for d in ds
    ]
    assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vs, vs[1:]))
    rs = np.linspace(0.5, 1.0, 11)  # predictability grows with r above 1/2
    vs = [
        visibility_analytic(scenario_density(ScenarioParams(r=r, d=0.4), Scenario.FREE)) for r in rs
    ]
    assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vs, vs[1:]))


def test_visibility_ratio_recovers_robustness():
    for d in (0.0, 0.3, 0.9):
        v0 = visibility_analytic(scenario_density(ScenarioParams(r=0.5, d=d), Scenario.FREE))  # decoherence-free
        for r in (0.1, 0.5, 0.9):
            v = visibility_analytic(scenario_density(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM))
            assert abs(v / v0 - r) < 1e-10


def test_visibility_in_unit_interval():
    rng = np.random.default_rng(22)
    for _ in range(30):
        params = ScenarioParams(d=rng.uniform(0, 1), r_s=rng.uniform(0, 1), r_m=rng.uniform(0, 1))
        v = visibility_analytic(scenario_density(params, Scenario.COMBINED))
        assert -1e-12 <= v <= 1 + 1e-12


def test_derived_quantities():
    assert overlap(ScenarioParams(d=0.6)) == pytest.approx(0.8)
    assert unpredictability(ScenarioParams(r=0.5)) == pytest.approx(1.0)
    assert unpredictability(ScenarioParams(r=0.0)) == pytest.approx(0.0)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="2 sqrt(1/2) sqrt(1/2) rounds to 1.0000000000000002 at d = 0; the fix flips the (d = 0, r = 1) cell of "
    "figure 3 and the benchmark's recorded analyze outputs, so it waits for a change to the benchmark",
)
def test_visibility_is_at_most_one_at_d_zero_in_every_scenario():
    v = {s.value: visibility_analytic(scenario_density(ScenarioParams(d=0.0), s)) for s in Scenario}
    assert all(value <= 1.0 for value in v.values()), v
