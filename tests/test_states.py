import math

import numpy as np
import pytest

from qdl.analysis import analyze
from qdl.bell import chsh_brute_force, chsh_value, correlation_tensor, horodecki_bmax, horodecki_m
from qdl.infotheory import info_threshold, mutual_information, ppt_check, von_neumann_entropy
from qdl.linalg import hermitian_eigenvalues, partial_trace, partial_transpose
from qdl.states import (
    Scenario,
    ScenarioParams,
    _decohere,
    _meter_rotation,
    scenario_amplitudes,
    scenario_densities,
    scenario_density,
)
from qdl.visibility import ROTATION_A, check_identity, visibility_analytic, visibility_sweep

SQ2 = math.sqrt(2.0)
EDGE_KNOBS = np.array([0.0, 1e-15, 1e-8, 0.3, 0.5, 1 / SQ2, 1.0 - 1e-15, 1.0])


def amplitudes(scenario, **knobs) -> np.ndarray:
    """The pure state of one point, indexed [A, B, (ES), (EM)]."""
    return scenario_amplitudes(scenario, ScenarioParams(**knobs))[0]


def amp(psi: np.ndarray, bits: str) -> float:
    """Amplitude of a basis label like 'du' (A=down, B=up, ...); u=up, d=down."""
    return psi[tuple(0 if ch == "u" else 1 for ch in bits)]


def test_input_state_degenerate():
    psi = amplitudes(Scenario.FREE, r=1.0)
    assert np.allclose(psi[:, 1], [1, 0]) and np.all(psi[:, 0] == 0)  # B starts in |down>


def test_input_state_balanced():
    assert np.allclose(amplitudes(Scenario.FREE, r=0.5)[:, 1], [1 / SQ2, -1 / SQ2])


def test_input_state_quarter():
    psi = amplitudes(Scenario.FREE, r=0.25)
    assert abs(np.linalg.norm(psi) - 1) < 1e-12
    assert amp(psi, "ud") == pytest.approx(0.5)


def test_input_state_range_guard():
    with pytest.raises(ValueError, match=r"^r must lie in \[0, 1\], got 1.2$"):
        scenario_amplitudes(Scenario.FREE, ScenarioParams(r=1.2))


def test_couple_meter_no_monitoring():
    psi = amplitudes(Scenario.FREE, r=0.5, d=0.0)
    # product state, B stays |down>
    assert amp(psi, "uu") == 0 and amp(psi, "du") == 0
    assert amp(psi, "ud") == pytest.approx(1 / SQ2)
    assert amp(psi, "dd") == pytest.approx(-1 / SQ2)


def test_couple_meter_perfect_tagging():
    psi = amplitudes(Scenario.FREE, r=0.5, d=1.0)
    assert amp(psi, "ud") == pytest.approx(1 / SQ2)
    assert amp(psi, "du") == pytest.approx(-1 / SQ2)
    assert abs(amp(psi, "dd")) < 1e-15


def test_couple_meter_partial():
    psi = amplitudes(Scenario.FREE, r=0.5, d=0.6)
    assert amp(psi, "dd") == pytest.approx(-0.8 / SQ2)


def test_couple_meter_is_isometry():
    # The meter coupling rotates B on the A=down branch: unitary for every d, edges included.
    d = np.concatenate([EDGE_KNOBS, np.random.default_rng(8).uniform(0, 1, 10)])
    u = _meter_rotation(d)
    assert u.shape == (d.size, 2, 2)
    assert np.max(np.abs(u.swapaxes(-1, -2) @ u - np.eye(2))) < 1e-15


def test_decohere_system_factorizes_at_full_robustness():
    psi = amplitudes(Scenario.SYSTEM, d=0.7, r_s=1.0)
    # ES stays |down>: every ES=up amplitude vanishes
    assert np.max(np.abs(psi[:, :, 0])) < 1e-15


def test_decohere_system_kills_visibility_at_zero_robustness():
    rho = scenario_density(ScenarioParams(d=0.0, r_s=0.0), Scenario.SYSTEM)
    rho_a = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))
    assert abs(rho_a[0, 1]) < 1e-14


def test_decohere_system_amplitudes():
    # balanced source, d=0, r_s=0.5: amplitudes expand term by term
    psi = amplitudes(Scenario.SYSTEM, d=0.0, r_s=0.5)
    assert amp(psi, "udd") == pytest.approx(1 / SQ2)
    assert amp(psi, "ddd") == pytest.approx(-0.5 / SQ2)
    assert amp(psi, "ddu") == pytest.approx(-math.sqrt(0.75) / SQ2)


def test_decohere_meter_factorizes_at_full_robustness():
    psi = amplitudes(Scenario.METER, d=0.7, r_m=1.0)
    assert np.max(np.abs(psi[:, :, 0])) < 1e-15


def test_decohere_meter_classical_mixture():
    rho = scenario_density(ScenarioParams(d=1.0, r_m=0.0), Scenario.METER)
    expected = np.zeros((4, 4))
    expected[1, 1] = 0.5  # |ud><ud|
    expected[2, 2] = 0.5  # |du><du|
    assert np.allclose(rho, expected, atol=1e-14)


def test_decohere_meter_amplitudes():
    psi = amplitudes(Scenario.METER, d=0.8, r_m=0.5)
    assert amp(psi, "duu") == pytest.approx(-0.8 * math.sqrt(0.75) / SQ2)


def _unit_stack(rng, shape):
    psi = rng.normal(size=shape)
    return psi / np.sqrt(np.sum(psi * psi, axis=tuple(range(1, psi.ndim)), keepdims=True))


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2)], ids=["a-b", "a-b-es"])
def test_decohere_is_an_isometry_that_leaves_the_environment_down_at_r_1(shape):
    rng = np.random.default_rng(9)
    r = np.concatenate([EDGE_KNOBS, rng.uniform(0, 1, 10)])
    a, b = (_unit_stack(rng, (r.size,) + shape) for _ in range(2))
    leak = np.sqrt(1.0 - r * r)
    for factor, axis in (("A", 1), ("B", 2)):
        out_a, out_b = _decohere(a, factor, r), _decohere(b, factor, r)
        assert out_a.shape == a.shape + (2,)
        # every norm and every inner product of two states at the same r is kept
        norms = np.sqrt(np.sum(out_a * out_a, axis=tuple(range(1, out_a.ndim))))
        assert np.max(np.abs(norms - 1.0)) < 1e-15, factor
        inner = np.sum((out_a * out_b).reshape(r.size, -1), axis=-1) - np.sum((a * b).reshape(r.size, -1), axis=-1)
        assert np.max(np.abs(inner)) < 1e-15, factor
        # the inert branch (up on A, down on B) leaves the environment in |down>; the other
        # branch sends it to sqrt(1 - r^2)|up> + r|down>
        inert, coupled = (0, 1) if factor == "A" else (1, 0)
        out, psi = np.moveaxis(out_a, axis, 1), np.moveaxis(a, axis, 1)
        assert np.all(out[:, inert, ..., 0] == 0.0) and np.all(out[:, inert, ..., 1] == psi[:, inert]), factor
        weights = np.stack((leak, r), axis=-1).reshape((r.size,) + (1,) * (len(shape) - 1) + (2,))
        assert np.allclose(out[:, coupled], psi[:, coupled, ..., None] * weights, rtol=0.0, atol=1e-16), factor
        at_1 = r == 1.0
        assert np.all(out_a[at_1][..., 0] == 0.0) and np.all(out_a[at_1][..., 1] == a[at_1]), factor


def test_decohere_refuses_a_stack_that_is_not_unit():
    psi = _unit_stack(np.random.default_rng(10), (3, 2, 2)) * 1.1
    for factor in ("A", "B"):
        with pytest.raises(ValueError, match="state norm"):
            _decohere(psi, factor, np.full(3, 0.5))


def test_build_joint_state_free_trivial():
    psi = scenario_amplitudes(Scenario.FREE, ScenarioParams(r=0.5, d=0.0))
    assert psi.shape == (1, 2, 2)  # A and B only
    assert amp(psi[0], "ud") == pytest.approx(1 / SQ2)
    assert amp(psi[0], "dd") == pytest.approx(-1 / SQ2)


def test_build_joint_state_system_matches_published_amplitudes():
    d, r = 0.6, 0.3
    psi = amplitudes(Scenario.SYSTEM, d=d, r_s=r)
    o, leak = math.sqrt(1 - d * d), math.sqrt(1 - r * r)
    assert amp(psi, "udd") == pytest.approx(1 / SQ2)
    assert amp(psi, "ddd") == pytest.approx(-o * r / SQ2)
    assert amp(psi, "ddu") == pytest.approx(-o * leak / SQ2)
    assert amp(psi, "dud") == pytest.approx(-d * r / SQ2)
    assert amp(psi, "duu") == pytest.approx(-d * leak / SQ2)


def test_combined_amplitudes_in_factor_order_a_b_es_em():
    d, r_s, r_m = 0.6, 0.3, 0.8
    psi = amplitudes(Scenario.COMBINED, d=d, r_s=r_s, r_m=r_m)
    o, leak_s, leak_m = math.sqrt(1 - d * d), math.sqrt(1 - r_s * r_s), math.sqrt(1 - r_m * r_m)
    assert psi.shape == (2, 2, 2, 2)
    assert amp(psi, "uddd") == pytest.approx(1 / SQ2)
    assert amp(psi, "ddud") == pytest.approx(-o * leak_s / SQ2)
    assert amp(psi, "dudd") == pytest.approx(-d * r_s * r_m / SQ2)
    assert amp(psi, "duuu") == pytest.approx(-d * leak_s * leak_m / SQ2)
    assert np.all(psi[:, 1, :, 0] == 0)  # on B=down, EM stays |down>


def test_build_joint_state_rejects_biased_r_with_decoherence():
    with pytest.raises(ValueError, match="^scenario system requires the balanced path weight r = 1/2$"):
        scenario_amplitudes(Scenario.SYSTEM, ScenarioParams(r=0.3, d=0.5))


def test_build_joint_state_norm():
    rng = np.random.default_rng(10)
    factors = {Scenario.FREE: 2, Scenario.SYSTEM: 3, Scenario.METER: 3, Scenario.COMBINED: 4}
    for scenario in Scenario:
        knobs = {name: rng.uniform(0, 1, 5) for name in ("d", "r_s", "r_m")}
        psi = scenario_amplitudes(scenario, ScenarioParams(**knobs))
        assert psi.shape == (5,) + (2,) * factors[scenario]
        assert np.max(np.abs(np.linalg.norm(psi.reshape(5, -1), axis=-1) - 1)) < 1e-12


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
    assert abs(np.trace(rho @ rho) - 1) < 1e-12


def test_reduce_to_ab_fully_decohered_diagonal():
    rho = scenario_density(ScenarioParams(d=0.0, r_s=0.0), Scenario.SYSTEM)
    assert np.allclose(rho, np.diag([0.0, 0.5, 0.0, 0.5]), atol=1e-14)


def test_reduce_to_ab_system_full_tagging_is_bell_projector():
    rho = scenario_density(ScenarioParams(d=1.0, r_s=1.0), Scenario.SYSTEM)
    evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
    assert np.allclose(evals, [1, 0, 0, 0], atol=1e-12)


# The recombination rotation that the phase sweep applies on A.


def test_interference_rotation_matrix_action():
    assert np.allclose(ROTATION_A @ [0.0, 1.0], np.array([-1, 1]) / SQ2, atol=1e-15)


def test_interference_rotation_twice_is_quarter_turn():
    assert np.allclose(ROTATION_A @ ROTATION_A @ [1.0, 0.0], [0.0, 1.0], atol=1e-14)


def test_interference_rotation_fixes_maximally_mixed():
    rho = np.kron(np.eye(2) / 2, np.diag([0.3, 0.7]))
    full = np.kron(ROTATION_A, np.eye(2))
    assert np.max(np.abs(full @ rho @ full.T - rho)) < 1e-14


def test_params_validation():
    with pytest.raises(ValueError):
        ScenarioParams(d=-0.1)
    with pytest.raises(ValueError):
        ScenarioParams(r_m=1.0001)


def test_array_knobs_become_new_arrays_of_one_shape():
    d, r_s = np.array([[0.3], [0.6]]), np.array([0.2, 0.5, 1.0])
    params = ScenarioParams(d=d, r_s=r_s)
    for name, expected in (("r", 0.5), ("d", d), ("r_s", r_s), ("r_m", 1.0)):
        value = getattr(params, name)
        assert value.shape == (2, 3) and value.dtype == float, name
        assert np.array_equal(value, np.broadcast_to(expected, (2, 3))), name
        assert not np.shares_memory(value, d) and not np.shares_memory(value, r_s), name
    assert all(type(getattr(ScenarioParams(d=0.3), name)) is float for name in ("r", "d", "r_s", "r_m"))


def test_knob_arrays_that_do_not_broadcast_are_refused_at_construction():
    with pytest.raises(ValueError, match=r"knob shapes .*'d': \(3,\), 'r_s': \(2,\).* do not broadcast together"):
        ScenarioParams(d=np.zeros(3), r_s=np.zeros(2))


@pytest.mark.parametrize("knobs", [{"d": np.array([0.1, 0.2])}, {"r_s": np.array([0.5])}, {"r_m": np.zeros((2, 2))}])
def test_one_point_entry_points_reject_array_knobs(knobs):
    params = ScenarioParams(**knobs)
    message = "scenario_density takes one point; use scenario_densities"
    with pytest.raises(ValueError, match=message):
        scenario_density(params, Scenario.COMBINED)
    with pytest.raises(ValueError, match=message):
        analyze(Scenario.COMBINED, params)
    with pytest.raises(ValueError, match=message):
        check_identity(Scenario.COMBINED, params)


def reference_density(scenario, r=0.5, d=0.0, r_s=1.0, r_m=1.0):
    """The per-point builder the stacked route replaced, for one point.

    It grows one pure state a factor at a time (A, then B, then each
    environment appended last) and traces the environments out of it.
    """
    o = math.sqrt(1.0 - d * d)
    psi = np.zeros((2, 2), dtype=complex)
    psi[:, 1] = [math.sqrt(r), -math.sqrt(1.0 - r)]  # source on A, B in |down>
    psi[1] = np.array([[o, d], [-d, o]], dtype=complex) @ psi[1]  # rotate B on the A=down branch
    couplings = []
    if scenario in (Scenario.SYSTEM, Scenario.COMBINED):
        leak = math.sqrt(1.0 - r_s * r_s)
        couplings.append((0, [[0.0, 1.0], [leak, r_s]]))  # ES leaks on A=down
    if scenario in (Scenario.METER, Scenario.COMBINED):
        leak = math.sqrt(1.0 - r_m * r_m)
        couplings.append((1, [[leak, r_m], [0.0, 1.0]]))  # EM leaks on B=up
    for axis, weights in couplings:
        grown = np.einsum("k...,ke->k...e", np.moveaxis(psi, axis, 0), np.array(weights, dtype=complex))
        psi = np.moveaxis(grown, 0, axis)
    psi = psi.reshape(4, -1)
    return psi @ psi.conj().T


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
    stack = scenario_densities(scenario, ScenarioParams(**knobs))
    assert stack.shape == (OUTER.size, 4, 4) and stack.dtype == np.float64
    for k in range(OUTER.size):
        point = {name: float(values[k]) for name, values in knobs.items()}
        rho = reference_density(scenario, **point)
        assert rho.imag.tobytes() == bytes(rho.imag.nbytes)  # all +0.0
        assert stack[k].tobytes() == rho.real.tobytes()
        assert scenario_density(ScenarioParams(**point), scenario).tobytes() == rho.real.tobytes()


@pytest.mark.parametrize("scenario, knobs", STACKED_CASES)
def test_scenario_densities_are_density_matrices_on_the_edge_line(scenario, knobs):
    stack = scenario_densities(scenario, ScenarioParams(**knobs))
    assert np.max(np.abs(stack - stack.swapaxes(-1, -2))) < 1e-12
    assert np.max(np.abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0)) < 1e-12
    assert np.min(hermitian_eigenvalues(stack)) >= -1e-10


CHSH_SETTINGS = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.0, 0.8], [0.0, 0.8, 0.6])  # a, a', b, b'
COMPLEX_INPUT_ROUTES = {
    "correlation_tensor": correlation_tensor,
    "horodecki_bmax": horodecki_bmax,
    "ppt_spectrum": lambda rho: ppt_check(rho).ppt_spectrum,
    "i_ab": lambda rho: mutual_information(rho).i_ab,
    "visibility_analytic": visibility_analytic,
    "visibility_sweep": lambda rho: visibility_sweep(rho).probabilities,
    "chsh_value": lambda rho: chsh_value(rho, *(np.broadcast_to(v, rho.shape[:-2] + (3,)) for v in CHSH_SETTINGS)),
}


@pytest.mark.parametrize("scenario, knobs", STACKED_CASES)
def test_complex_copies_of_the_states_give_the_same_bits(scenario, knobs):
    # the states are float64; a caller's complex128 copy, exactly real, is taken as its real part on every route
    rho = scenario_densities(scenario, ScenarioParams(**knobs))
    twin = rho.astype(complex)
    for name, route in COMPLEX_INPUT_ROUTES.items():
        assert route(twin).tobytes() == route(rho).tobytes(), name
    for keep in ("A", "B"):
        assert partial_trace(twin, keep).tobytes() == partial_trace(rho, keep).tobytes()
    assert partial_transpose(twin).tobytes() == partial_transpose(rho).tobytes()
    for k in range(0, len(rho), 10):
        assert repr(chsh_brute_force(twin[k], restarts=4)) == repr(chsh_brute_force(rho[k], restarts=4))


@pytest.mark.parametrize(
    "scenario, knobs, message",
    [
        (Scenario.SYSTEM, {"d": [0.2, 1.5]}, r"d must lie in \[0, 1\], got 1.5"),
        (Scenario.METER, {"r_m": [0.5, np.nan]}, r"r_m must lie in \[0, 1\], got nan"),
        (Scenario.FREE, {"d": [-1e-3]}, r"d must lie in \[0, 1\], got -0.001"),
        (Scenario.SYSTEM, {"r": [0.5, 0.3]}, "scenario system requires the balanced path weight r = 1/2"),
    ],
)
def test_scenario_densities_reject_bad_knobs(scenario, knobs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        scenario_densities(scenario, ScenarioParams(**knobs))


NO_STATES = np.zeros((0, 4, 4))


@pytest.mark.parametrize(
    "call, shape",
    [
        *((lambda s=s: scenario_amplitudes(s, ScenarioParams(d=np.array([]))), (0,) + (2,) * n)
          for s, n in zip(Scenario, (2, 3, 3, 4))),
        *((lambda s=s: scenario_densities(s, ScenarioParams(r_m=np.array([]))), (0, 4, 4)) for s in Scenario),
        (lambda: info_threshold(Scenario.METER, ScenarioParams(r_m=np.array([]))), (0,)),
        (lambda: info_threshold(Scenario.SYSTEM, ScenarioParams(r_s=np.array([]))), (0,)),
        (lambda: hermitian_eigenvalues(NO_STATES), (0, 4)),
        (lambda: von_neumann_entropy(NO_STATES), (0,)),
        (lambda: mutual_information(NO_STATES).i_ab, (0,)),
        (lambda: ppt_check(NO_STATES).ppt_spectrum, (0, 4)),
        (lambda: horodecki_bmax(NO_STATES), (0,)),
        (lambda: visibility_analytic(NO_STATES), (0,)),
        (lambda: visibility_sweep(NO_STATES).visibility, (0,)),
    ],
    ids=[f"amplitudes-{s.value}" for s in Scenario] + [f"densities-{s.value}" for s in Scenario]
    + ["info_threshold-meter", "info_threshold-system", "eigenvalues", "entropy", "mutual_information", "ppt",
       "bmax", "visibility_analytic", "visibility_sweep"],
)
def test_no_points_give_empty_results(call, shape):
    assert np.shape(call()) == shape


_X, _Z = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
STATE_FUNCTIONS = {
    "correlation_tensor": correlation_tensor,
    "horodecki_m": horodecki_m,
    "horodecki_bmax": horodecki_bmax,
    "chsh_value": lambda rho: chsh_value(rho, _Z, _X, _Z, _X),
    "chsh_brute_force": lambda rho: chsh_brute_force(rho, restarts=1),
    "visibility_sweep": visibility_sweep,
    "visibility_analytic": visibility_analytic,
    "partial_trace": lambda rho: partial_trace(rho, "A"),
    "partial_transpose": partial_transpose,
    "mutual_information": mutual_information,
    "ppt_check": ppt_check,
}


def _bad_state(kind: str) -> np.ndarray:
    if kind == "3x3":
        return np.eye(3) / 3.0
    rho = np.eye(4) / 4.0
    if kind == "non-Hermitian":  # trace 1 and positive marginals, but rho[3, 0] = 0
        rho[0, 3] = 0.4
    else:
        rho[1, 2] = rho[2, 1] = math.nan if kind == "nan" else math.inf
    return rho


# the partial trace and transpose take any finite 4x4 operator
_OPERATOR_FUNCTIONS = ("partial_trace", "partial_transpose")


@pytest.mark.parametrize("kind", ["3x3", "nan", "inf", "non-Hermitian"])
@pytest.mark.parametrize("name", list(STATE_FUNCTIONS))
def test_state_functions_name_rho_for_a_wrong_size_or_non_finite_input(name, kind):
    # one check for every state entry point: neither numpy's broadcast error, nor the name
    # of an internal matrix, nor a silent NaN or a number for a matrix that is not a state
    function, rho = STATE_FUNCTIONS[name], _bad_state(kind)
    if kind != "non-Hermitian":
        with pytest.raises(ValueError, match=r"^rho (must be a 4x4|contains NaN/Inf)"):
            function(rho)
    elif name in _OPERATOR_FUNCTIONS:
        assert np.isfinite(function(rho)).all()
    else:
        with pytest.raises(ValueError, match=r"^rho is not Hermitian"):
            function(rho)
