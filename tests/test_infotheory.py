import math
import warnings

import numpy as np
import pytest

from qdl.infotheory import (
    _xlogx,
    binary_entropy,
    entropy_closed_form,
    info_threshold,
    mutual_information,
    ppt_check,
    printed_meter_info_threshold,
    printed_meter_s_b,
    von_neumann_entropy,
)
from qdl import linalg, states
from qdl.bell import violation_threshold
from qdl.states import Scenario, ScenarioParams, environment_densities, scenario_densities, scenario_density
from qdl.verify import ENTROPY_TOL
from qdl.visibility import _identity_residual
from test_edge_tables import EDGE_GRIDS

LN2 = math.log(2.0)
SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)


def test_ppt_product_state_separable():
    rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4]))
    rep = ppt_check(rho)
    assert rep.separable
    assert rep.negativity == pytest.approx(0.0, abs=1e-14)


def test_ppt_singlet():
    rep = ppt_check(np.outer(SINGLET, SINGLET))
    assert np.allclose(rep.ppt_spectrum, [0.5, 0.5, 0.5, -0.5], atol=1e-12)
    assert rep.negativity == pytest.approx(0.5, abs=1e-12)
    assert not rep.separable


def test_ppt_system_point_single_negative_eigenvalue():
    rep = ppt_check(scenario_density(ScenarioParams(d=0.5, r_s=0.5), Scenario.SYSTEM))
    assert not rep.separable
    assert int(np.sum(rep.ppt_spectrum < -1e-10)) == 1


def test_ppt_spectrum_is_descending():
    rep = ppt_check(scenario_density(ScenarioParams(d=0.7, r_m=0.4), Scenario.METER))
    assert np.all(np.diff(rep.ppt_spectrum) <= 1e-15)


def test_entropy_pure_state():
    rho = np.outer(SINGLET, SINGLET)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)


def test_entropy_maximally_mixed_qubit():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(LN2, abs=1e-12)


def test_entropy_maximally_mixed_two_qubits():
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2 * LN2, abs=1e-12)


def test_entropy_rejects_negative_spectrum():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.1, -0.1, 0.0, 0.0]))


def test_entropy_tolerates_rounding_dips():
    rho = np.diag([1.0 + 5e-10, -5e-10, 0.0, 0.0])
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-8)


def test_entropy_refuses_a_vector_naming_rho():
    with pytest.raises(ValueError, match="^rho must be a square matrix"):
        von_neumann_entropy(np.ones(3))


def test_mutual_information_checks_each_matrix_once(monkeypatch):
    # rho, then its two marginals: analyze and verify pay one Hermiticity check per matrix
    checked, check = [], linalg._check_hermitian
    monkeypatch.setattr(linalg, "_check_hermitian", lambda m, name: checked.append((m.shape, name)) or check(m, name))
    mutual_information(scenario_densities(Scenario.COMBINED, ScenarioParams(d=np.array([0.3, 0.6]))))
    assert checked == [((2, 4, 4), "rho"), ((2, 2, 2), "rho"), ((2, 2, 2), "rho")]


@pytest.mark.parametrize("p", [0.0, 5e-324, 1.0 - 2.0**-53, 1.0])
def test_xlogx_and_binary_entropy_at_the_edges_of_the_unit_interval(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # log(0) warns even where its product is masked out
        values = [float(_xlogx(p)), float(_xlogx(1.0 - p)), binary_entropy(p)]
        values += [*_xlogx(np.array([p, 1.0 - p])), *binary_entropy(np.array([p, 1.0 - p]))]
    assert all(math.isfinite(v) for v in values)
    if p in (0.0, 1.0):
        assert values == [0.0] * len(values)


def test_mutual_information_range_endpoints():
    rho = scenario_density(ScenarioParams(d=1.0, r_s=1.0), Scenario.SYSTEM)
    assert mutual_information(rho).i_ab == pytest.approx(2 * LN2, abs=1e-9)
    rho = scenario_density(ScenarioParams(d=1.0, r_s=0.0), Scenario.SYSTEM)
    assert mutual_information(rho).i_ab == pytest.approx(LN2, abs=1e-9)


def test_mutual_information_product_states():
    for scenario, params in (
        (Scenario.FREE, ScenarioParams(d=0.0)),
        (Scenario.SYSTEM, ScenarioParams(d=0.0, r_s=0.3)),
        (Scenario.METER, ScenarioParams(d=0.0, r_m=0.3)),
        (Scenario.COMBINED, ScenarioParams(d=0.0, r_s=0.4, r_m=0.8)),
    ):
        rho = scenario_density(params, scenario)
        assert mutual_information(rho).i_ab == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_bounds():
    rng = np.random.default_rng(41)
    for _ in range(20):
        params = ScenarioParams(d=rng.uniform(0, 1), r_s=rng.uniform(0, 1), r_m=rng.uniform(0, 1))
        rep = mutual_information(scenario_density(params, Scenario.COMBINED))
        assert rep.i_ab >= -1e-10
        assert rep.i_ab <= 2 * LN2 + 1e-10


def test_mutual_information_continuity():
    line = np.linspace(0, 1, 21)
    prev_row = None
    for d in line:
        row = [
            mutual_information(scenario_density(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM)).i_ab
            for r in line
        ]
        for a, b in zip(row, row[1:]):
            assert abs(a - b) < 0.2
        if prev_row is not None:
            for a, b in zip(prev_row, row):
                assert abs(a - b) < 0.2
        prev_row = row


def test_closed_form_system_limits():
    rep = entropy_closed_form(Scenario.SYSTEM, ScenarioParams(d=0.0, r_s=1.0))
    assert rep.s_ab == pytest.approx(0.0, abs=1e-12)
    assert rep.s_a == pytest.approx(0.0, abs=1e-12)
    assert rep.s_b == pytest.approx(0.0, abs=1e-12)
    rep = entropy_closed_form(Scenario.SYSTEM, ScenarioParams(d=1.0, r_s=0.0))
    for value in (rep.s_ab, rep.s_a, rep.s_b, rep.i_ab):
        assert value == pytest.approx(LN2, abs=1e-12)


def test_closed_form_meter_limits():
    rep = entropy_closed_form(Scenario.METER, ScenarioParams(d=1.0, r_m=1.0))
    assert rep.s_ab == pytest.approx(0.0, abs=1e-12)
    assert rep.s_a == pytest.approx(LN2, abs=1e-12)
    assert rep.s_b == pytest.approx(LN2, abs=1e-12)
    assert rep.i_ab == pytest.approx(2 * LN2, abs=1e-12)


def test_closed_form_matches_matrix_route():
    line = np.linspace(0, 1, 9)
    for scenario in (Scenario.SYSTEM, Scenario.METER):
        for d in line:
            for r in line:
                params = (
                    ScenarioParams(d=d, r_s=r)
                    if scenario is Scenario.SYSTEM
                    else ScenarioParams(d=d, r_m=r)
                )
                closed = entropy_closed_form(scenario, params)
                matrix = mutual_information(scenario_density(params, scenario))
                assert abs(closed.s_a - matrix.s_a) < 1e-9
                assert abs(closed.s_b - matrix.s_b) < 1e-9
                assert abs(closed.s_ab - matrix.s_ab) < 1e-9


def test_closed_form_rejects_other_scenarios():
    with pytest.raises(ValueError):
        entropy_closed_form(Scenario.FREE, ScenarioParams(d=0.5))


def test_printed_meter_s_b_disagrees_with_state():
    # the published meter-case S_B is inconsistent with the constructed state;
    # at full robustness the state is pure, so S_B must equal S_A
    params = ScenarioParams(d=0.6, r_m=1.0)
    matrix = mutual_information(scenario_density(params, Scenario.METER))
    assert abs(printed_meter_s_b(params) - matrix.s_b) > 0.3
    # the published S_A and S_AB, which the closed form adopts, agree with the state
    adopted = entropy_closed_form(Scenario.METER, params)
    assert abs(adopted.s_a - matrix.s_a) < 1e-12
    assert abs(adopted.s_ab - matrix.s_ab) < 1e-12


def test_info_threshold_system_endpoints():
    # published expression evaluated at r = 1 gives 0, matching boundary I_AB at d = 0
    assert info_threshold(Scenario.SYSTEM, ScenarioParams(r_s=1.0)) == pytest.approx(0.0, abs=1e-12)
    assert info_threshold(Scenario.SYSTEM, ScenarioParams(r_s=0.0)) == pytest.approx(LN2, abs=1e-12)


def test_info_threshold_system_equals_boundary_information():
    for r in np.linspace(0.0, 1.0, 11):
        d = math.sqrt(1 - r * r)
        rho = scenario_density(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM)
        assert abs(info_threshold(Scenario.SYSTEM, ScenarioParams(r_s=r)) - mutual_information(rho).i_ab) < 1e-9


def test_info_threshold_meter_numeric():
    # the closed form against the eigenvalue route on the boundary state
    for r in (0.1, 0.4, 0.6):
        thr = info_threshold(Scenario.METER, ScenarioParams(r_m=r))
        d = violation_threshold(Scenario.METER, ScenarioParams(r_m=r))
        i_ab = mutual_information(scenario_density(ScenarioParams(d=d, r_m=r), Scenario.METER)).i_ab
        assert thr == pytest.approx(i_ab, abs=1e-9)


@pytest.mark.parametrize("r_m", [0.3, 0.9, np.array([0.0, 0.3, 0.7, 0.9, 1.0])], ids=["0.3", "0.9", "array"])
def test_info_threshold_meter_builds_no_state_and_solves_no_spectrum(r_m, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("info_threshold built a state or solved a spectrum")

    for module, name in ((states, "scenario_densities"), (states, "scenario_density"), (linalg, "hermitian_eigensystem")):
        monkeypatch.setattr(module, name, refused)
    info_threshold(Scenario.METER, ScenarioParams(r_m=r_m))


def test_info_threshold_meter_none_above_sqrt_half():
    # 1 / math.sqrt(2) rounds below 1/sqrt2 and squares to below 1/2: its boundary d is 2.1e-8, not 0
    assert info_threshold(Scenario.METER, ScenarioParams(r_m=math.nextafter(1 / math.sqrt(2), 1.0))) is None
    assert info_threshold(Scenario.METER, ScenarioParams(r_m=0.9)) is None
    assert info_threshold(Scenario.METER, ScenarioParams(r_m=1.0)) is None


def test_info_threshold_unsupported_scenario():
    with pytest.raises(ValueError):
        info_threshold(Scenario.FREE, ScenarioParams(r=0.5))


def test_printed_meter_threshold_differs_from_numeric():
    for r in (0.2, 0.5):
        params = ScenarioParams(r_m=r)
        assert abs(printed_meter_info_threshold(params) - info_threshold(Scenario.METER, params)) > 0.1


# r_m about the meter domain edge r_m^2 = 1/2; 1 / math.sqrt(2) rounds below 1/sqrt2, its next float above
PRINTED_METER_ROBUSTNESS = [0.7, 1 / math.sqrt(2), math.nextafter(1 / math.sqrt(2), 1.0), 0.75, 0.8, 0.95, 1.0]


def test_printed_meter_threshold_is_nan_exactly_where_the_numeric_threshold_is_none():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by zero at r_m = 1, no log of a negative argument
        printed = [printed_meter_info_threshold(ScenarioParams(r_m=r)) for r in PRINTED_METER_ROBUSTNESS]
        numeric = [info_threshold(Scenario.METER, ScenarioParams(r_m=r)) for r in PRINTED_METER_ROBUSTNESS]
        array = printed_meter_info_threshold(ScenarioParams(r_m=np.array(PRINTED_METER_ROBUSTNESS)))
        numeric_array = info_threshold(Scenario.METER, ScenarioParams(r_m=np.array(PRINTED_METER_ROBUSTNESS)))
    assert all(type(x) is float for x in printed)
    assert [math.isnan(x) for x in printed] == [x is None for x in numeric] == [False, False] + [True] * 5
    assert np.array_equal(np.isnan(array), np.isnan(numeric_array))
    assert array.tobytes() == np.array(printed).tobytes()
    # inside the domain the published expression is still evaluated verbatim
    r2 = 0.7 * 0.7
    arg = 0.5 + 0.5 * math.sqrt(2.0) * r2 / math.sqrt(1.0 - r2)
    assert printed[0] == pytest.approx(arg * math.log(arg) - (1.0 - arg) * math.log(1.0 - arg), rel=1e-15)
    assert printed[1] == 0.0  # the argument rounds to 1


def test_printed_meter_threshold_domain_edge_is_the_numeric_one_to_the_last_bit():
    edge = [1 / math.sqrt(2)]
    for _ in range(16):
        edge = [math.nextafter(edge[0], 0.0), *edge, math.nextafter(edge[-1], 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        printed = printed_meter_info_threshold(ScenarioParams(r_m=np.array(edge)))
        numeric = [info_threshold(Scenario.METER, ScenarioParams(r_m=r)) for r in edge]
    assert np.isnan(printed).tolist() == [x is None for x in numeric] == [False] * 17 + [True] * 16


def test_negativity_zero_iff_separable_on_grid():
    line = np.linspace(0, 1, 9)
    for scenario in (Scenario.SYSTEM, Scenario.METER):
        for d in line:
            for r in line:
                params = (
                    ScenarioParams(d=d, r_s=r)
                    if scenario is Scenario.SYSTEM
                    else ScenarioParams(d=d, r_m=r)
                )
                rep = ppt_check(scenario_density(params, scenario))
                assert rep.separable == (rep.negativity <= 1e-10)
                assert rep.separable == (d < 1e-9 or r < 1e-9)


# Array knobs of each kind: a live one, an empty one, robustness only, a 2-D broadcast, ones no meter form reads.
ARRAY_KNOBS = [
    {"d": np.array([0.1, 0.2])},
    {"d": np.array([])},
    {"r_s": np.array([0.3, 0.9]), "r_m": np.array([0.4, 0.8])},
    {"d": np.array([[0.3], [0.6]]), "r_s": np.array([0.2, 0.5, 1.0]), "r_m": np.array([0.2, 0.5, 1.0])},
    {"r": np.array([0.5, 0.5, 0.5])},
    {"r_s": np.array([0.3, 0.9])},
]


def _entropies(scenario):
    return lambda params: {f: getattr(entropy_closed_form(scenario, params), f) for f in ("s_a", "s_b", "s_ab", "i_ab")}


# Each closed form of the knobs as a dict of its values; the identity residual at the visibility 0.6.
KNOB_FORMS = {
    "system_entropies": _entropies(Scenario.SYSTEM),
    "meter_entropies": _entropies(Scenario.METER),
    "printed_meter_s_b": lambda params: {"s_b": printed_meter_s_b(params)},
    "meter_identity_residual": lambda params: {"residual": _identity_residual(Scenario.METER, params, 0.6)},
}


@pytest.mark.parametrize("form", KNOB_FORMS)
@pytest.mark.parametrize("knobs", ARRAY_KNOBS, ids=lambda k: ",".join(f"{n}{np.shape(v)}" for n, v in k.items()))
def test_entropy_and_identity_closed_forms_take_the_knobs_shape_when_any_knob_is_an_array(form, knobs):
    shape = np.broadcast_shapes(*(np.shape(v) for v in knobs.values()))
    values = KNOB_FORMS[form](ScenarioParams(**knobs))
    for field, value in values.items():
        assert isinstance(value, np.ndarray) and value.shape == shape, field
        for index in np.ndindex(shape):  # each point is its one-point call, a float of the same bits
            point = ScenarioParams(**{k: float(np.broadcast_to(v, shape)[index]) for k, v in knobs.items()})
            single = KNOB_FORMS[form](point)[field]
            assert type(single) is float and single == value[index], (field, index)


ENVIRONMENT_SIZE = {Scenario.FREE: 1, Scenario.SYSTEM: 2, Scenario.METER: 2, Scenario.COMBINED: 4}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scenario", list(EDGE_GRIDS), ids=lambda s: s.value)
def test_environment_entropy_equals_the_state_entropy_on_the_edge_grids(scenario):
    # A(x)B and its environments split a pure state, so their densities share the nonzero spectrum (Schmidt)
    knobs = EDGE_GRIDS[scenario]
    params, k = ScenarioParams(**knobs), ENVIRONMENT_SIZE[scenario]
    rho_e = environment_densities(scenario, params)
    assert rho_e.shape == (len(knobs["d"]), k, k) and rho_e.dtype == np.float64
    assert np.max(np.abs(np.trace(rho_e, axis1=-2, axis2=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(rho_e - rho_e.swapaxes(-1, -2))) < 1e-12
    s_e = von_neumann_entropy(rho_e)
    assert np.max(np.abs(s_e - von_neumann_entropy(scenario_densities(scenario, params)))) < ENTROPY_TOL
    if scenario is Scenario.FREE:  # no environment: the state is pure
        assert np.max(s_e) < ENTROPY_TOL
    for n in range(0, len(s_e), 3):  # a stack gives the bits of its one-point calls
        point = environment_densities(scenario, ScenarioParams(**{name: float(v[n]) for name, v in knobs.items()}))
        assert point.tobytes() == rho_e[n : n + 1].tobytes()
        assert von_neumann_entropy(point[0]) == s_e[n], n
