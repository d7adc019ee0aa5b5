import math

import numpy as np
import pytest

from qdl.linalg import PureState
from qdl.states import (
    Scenario,
    ScenarioParams,
    build_joint_state,
    couple_meter,
    decohere_meter,
    decohere_system,
    input_state,
    interference_rotation,
    phase_shift,
    reduce_to_ab,
    scenario_densities,
    scenario_density,
)

SQ2 = math.sqrt(2.0)


def amp(state: PureState, bits: str) -> complex:
    """Amplitude of a basis label like 'du' (A=down, B=up, ...); u=up, d=down."""
    idx = 0
    for ch in bits:
        idx = idx * 2 + (0 if ch == "u" else 1)
    return state.amps[idx]


def test_input_state_degenerate():
    assert np.allclose(input_state(1.0).amps, [1, 0])


def test_input_state_balanced():
    assert np.allclose(input_state(0.5).amps, [1 / SQ2, -1 / SQ2])


def test_input_state_quarter():
    psi = input_state(0.25)
    assert abs(np.linalg.norm(psi.amps) - 1) < 1e-12
    assert psi.amps[0] == pytest.approx(0.5)


def test_input_state_range_guard():
    with pytest.raises(ValueError):
        input_state(1.2)


def test_couple_meter_no_monitoring():
    psi = couple_meter(input_state(0.5), 0.0)
    # product state, B stays |down>
    assert amp(psi, "uu") == 0 and amp(psi, "du") == 0
    assert amp(psi, "ud") == pytest.approx(1 / SQ2)
    assert amp(psi, "dd") == pytest.approx(-1 / SQ2)


def test_couple_meter_perfect_tagging():
    psi = couple_meter(input_state(0.5), 1.0)
    assert amp(psi, "ud") == pytest.approx(1 / SQ2)
    assert amp(psi, "du") == pytest.approx(-1 / SQ2)
    assert abs(amp(psi, "dd")) < 1e-15


def test_couple_meter_partial():
    psi = couple_meter(input_state(0.5), 0.6)
    assert amp(psi, "dd") == pytest.approx(-0.8 / SQ2)


def test_couple_meter_is_isometry():
    rng = np.random.default_rng(8)
    for _ in range(10):
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw /= np.linalg.norm(raw)
        psi = couple_meter(PureState(raw, ("A",)), rng.uniform(0, 1))
        assert abs(np.linalg.norm(psi.amps) - 1) < 1e-12


def test_decohere_system_factorizes_at_full_robustness():
    psi = decohere_system(couple_meter(input_state(0.5), 0.7), 1.0)
    # ES stays |down>: every ES=up amplitude vanishes
    for a in "ud":
        for b in "ud":
            assert abs(amp(psi, a + b + "u")) < 1e-15


def test_decohere_system_kills_visibility_at_zero_robustness():
    rho = scenario_density(ScenarioParams(d=0.0, r_s=0.0), Scenario.SYSTEM)
    rho_a = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))
    assert abs(rho_a[0, 1]) < 1e-14


def test_decohere_system_amplitudes():
    # balanced source, d=0, r_s=0.5: amplitudes expand term by term
    psi = decohere_system(couple_meter(input_state(0.5), 0.0), 0.5)
    assert amp(psi, "udd") == pytest.approx(1 / SQ2)
    assert amp(psi, "ddd") == pytest.approx(-0.5 / SQ2)
    assert amp(psi, "ddu") == pytest.approx(-math.sqrt(0.75) / SQ2)


def test_decohere_meter_factorizes_at_full_robustness():
    psi = decohere_meter(couple_meter(input_state(0.5), 0.7), 1.0)
    for a in "ud":
        for b in "ud":
            assert abs(amp(psi, a + b + "u")) < 1e-15


def test_decohere_meter_classical_mixture():
    rho = scenario_density(ScenarioParams(d=1.0, r_m=0.0), Scenario.METER)
    expected = np.zeros((4, 4))
    expected[1, 1] = 0.5  # |ud><ud|
    expected[2, 2] = 0.5  # |du><du|
    assert np.allclose(rho, expected, atol=1e-14)


def test_decohere_meter_amplitudes():
    psi = decohere_meter(couple_meter(input_state(0.5), 0.8), 0.5)
    assert amp(psi, "duu") == pytest.approx(-0.8 * math.sqrt(0.75) / SQ2)


def test_environment_couplings_are_isometries():
    rng = np.random.default_rng(9)
    for _ in range(10):
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        raw /= np.linalg.norm(raw)
        base = PureState(raw, ("A", "B"))
        for op, r in ((decohere_system, rng.uniform(0, 1)), (decohere_meter, rng.uniform(0, 1))):
            out = op(base, r)
            assert abs(np.linalg.norm(out.amps) - 1) < 1e-12


def test_build_joint_state_free_trivial():
    psi = build_joint_state(ScenarioParams(r=0.5, d=0.0), Scenario.FREE)
    assert psi.labels == ("A", "B")
    assert amp(psi, "ud") == pytest.approx(1 / SQ2)
    assert amp(psi, "dd") == pytest.approx(-1 / SQ2)


def test_build_joint_state_system_matches_published_amplitudes():
    d, r = 0.6, 0.3
    psi = build_joint_state(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM)
    o, leak = math.sqrt(1 - d * d), math.sqrt(1 - r * r)
    assert amp(psi, "udd") == pytest.approx(1 / SQ2)
    assert amp(psi, "ddd") == pytest.approx(-o * r / SQ2)
    assert amp(psi, "ddu") == pytest.approx(-o * leak / SQ2)
    assert amp(psi, "dud") == pytest.approx(-d * r / SQ2)
    assert amp(psi, "duu") == pytest.approx(-d * leak / SQ2)


def test_build_joint_state_rejects_biased_r_with_decoherence():
    with pytest.raises(ValueError):
        build_joint_state(ScenarioParams(r=0.3, d=0.5), Scenario.SYSTEM)


def test_build_joint_state_norm():
    rng = np.random.default_rng(10)
    for scenario in Scenario:
        for _ in range(5):
            params = ScenarioParams(
                r=0.5, d=rng.uniform(0, 1), r_s=rng.uniform(0, 1), r_m=rng.uniform(0, 1)
            )
            psi = build_joint_state(params, scenario)
            assert abs(np.linalg.norm(psi.amps) - 1) < 1e-12


def test_scenario_embedding_consistency():
    # full-robustness decoherence scenarios reduce to the free-scenario state
    for d in (0.0, 0.3, 0.8, 1.0):
        base = scenario_density(ScenarioParams(d=d), Scenario.FREE)
        for scenario, params in (
            (Scenario.SYSTEM, ScenarioParams(d=d, r_s=1.0)),
            (Scenario.METER, ScenarioParams(d=d, r_m=1.0)),
            (Scenario.COMBINED, ScenarioParams(d=d, r_s=1.0, r_m=1.0)),
        ):
            assert np.max(np.abs(scenario_density(params, scenario) - base)) < 1e-12


def test_combined_reduces_to_single_environment_cases():
    for d in (0.2, 0.7):
        for r in (0.0, 0.4, 1.0):
            sys_rho = scenario_density(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM)
            comb = scenario_density(ScenarioParams(d=d, r_s=r, r_m=1.0), Scenario.COMBINED)
            assert np.max(np.abs(comb - sys_rho)) < 1e-12
            met_rho = scenario_density(ScenarioParams(d=d, r_m=r), Scenario.METER)
            comb = scenario_density(ScenarioParams(d=d, r_s=1.0, r_m=r), Scenario.COMBINED)
            assert np.max(np.abs(comb - met_rho)) < 1e-12


def test_reduce_to_ab_free_is_pure():
    rho = scenario_density(ScenarioParams(r=0.5, d=0.37), Scenario.FREE)
    assert abs(np.trace(rho @ rho).real - 1) < 1e-12


def test_reduce_to_ab_fully_decohered_diagonal():
    rho = scenario_density(ScenarioParams(d=0.0, r_s=0.0), Scenario.SYSTEM)
    assert np.allclose(rho, np.diag([0.0, 0.5, 0.0, 0.5]), atol=1e-14)


def test_reduce_to_ab_system_full_tagging_is_bell_projector():
    psi = build_joint_state(ScenarioParams(d=1.0, r_s=1.0), Scenario.SYSTEM)
    rho = reduce_to_ab(psi)
    evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
    assert np.allclose(evals, [1, 0, 0, 0], atol=1e-12)


def test_phase_shift_identity_and_period():
    psi = build_joint_state(ScenarioParams(d=0.4), Scenario.FREE)
    assert np.max(np.abs(phase_shift(psi, 0.0).amps - psi.amps)) < 1e-15
    assert np.max(np.abs(phase_shift(psi, 2 * math.pi).amps - psi.amps)) < 1e-12


def test_phase_shift_half_turn():
    psi = PureState(np.array([1, -1]) / SQ2, ("A",))
    out = phase_shift(psi, math.pi)
    assert np.allclose(out.amps, np.array([-1, -1]) / SQ2, atol=1e-15)


def test_interference_rotation_matrix_action():
    down = PureState(np.array([0.0, 1.0]), ("A",))
    out = interference_rotation(down)
    assert np.allclose(out.amps, np.array([-1, 1]) / SQ2, atol=1e-15)


def test_interference_rotation_twice_is_quarter_turn():
    up = PureState(np.array([1.0, 0.0]), ("A",))
    out = interference_rotation(interference_rotation(up))
    assert np.allclose(out.amps, np.array([0.0, 1.0]), atol=1e-14)
    from qdl.states import ROTATION_A

    assert np.max(np.abs(ROTATION_A.conj().T @ ROTATION_A - np.eye(2))) < 1e-14


def test_interference_rotation_fixes_maximally_mixed():
    rho = np.kron(np.eye(2) / 2, np.diag([0.3, 0.7])).astype(complex)
    out = interference_rotation(rho)
    assert np.max(np.abs(out - rho)) < 1e-14


def test_params_validation():
    with pytest.raises(ValueError):
        ScenarioParams(d=-0.1)
    with pytest.raises(ValueError):
        ScenarioParams(r_m=1.0001)


EDGE_LINE = np.array([0.0, 1e-15, 1e-8, 0.25, 0.5, 0.7, 1.0 - 1e-10, 1.0 - 1e-15, 1.0])
OUTER, INNER = np.repeat(EDGE_LINE, EDGE_LINE.size), np.tile(EDGE_LINE, EDGE_LINE.size)
STACKED_CASES = [
    (Scenario.FREE, {"r": OUTER, "d": INNER}),
    (Scenario.SYSTEM, {"d": OUTER, "r_s": INNER}),
    (Scenario.METER, {"d": OUTER, "r_m": INNER}),
    (Scenario.COMBINED, {"d": OUTER, "r_s": INNER, "r_m": INNER[::-1]}),
]


@pytest.mark.parametrize("scenario, knobs", STACKED_CASES)
def test_scenario_densities_equal_single_point_states(scenario, knobs):
    stack = scenario_densities(scenario, **knobs)
    assert stack.shape == (OUTER.size, 4, 4)
    for k in range(OUTER.size):
        params = ScenarioParams(**{name: float(values[k]) for name, values in knobs.items()})
        assert np.array_equal(stack[k], scenario_density(params, scenario))


@pytest.mark.parametrize(
    "scenario, knobs",
    [
        (Scenario.SYSTEM, {"d": [0.2, 1.5]}),
        (Scenario.METER, {"r_m": [0.5, np.nan]}),
        (Scenario.FREE, {"d": [-1e-3]}),
        (Scenario.SYSTEM, {"r": [0.5, 0.3]}),
    ],
)
def test_scenario_densities_reject_bad_knobs(scenario, knobs):
    with pytest.raises(ValueError):
        scenario_densities(scenario, **knobs)
