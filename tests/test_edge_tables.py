"""Violation thresholds and closed forms on an enumerated table of knob values at the edges of [0, 1].

The table is fixed, so every checkout and every run evaluates the same points:
0 and 1, 10^-k and 1 - 10^-k for k = 1..15, and 1/sqrt2 with the 8 floats on
each side of it, where the meter threshold switches to d = 0.  At each table
value of a robustness, the system and meter thresholds in d are also probed
8 floats to either side.
"""

import itertools
import math
from functools import partial

import numpy as np
import pytest

from qdl.bell import bell_closed_form, horodecki_bmax, violation_threshold
from qdl.infotheory import entropy_closed_form, info_threshold, mutual_information
from qdl.states import Scenario, ScenarioParams, scenario_densities, scenario_density
from qdl.verify import BOUNDARY_TOL, CLOSED_FORM_TOL, ENTROPY_TOL
from qdl.visibility import _ratio_residual, check_identity, overlap, predictability, unpredictability
from qdl.visibility import visibility_analytic


def _ulps_from(x: float, k: int) -> float:
    """The float k steps above x (below for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


EDGE_TABLE = sorted(
    {0.0, 1.0}
    | {10.0**-k for k in range(1, 16)}
    | {1.0 - 10.0**-k for k in range(1, 16)}
    | {_ulps_from(1.0 / math.sqrt(2.0), k) for k in range(-8, 9)}
)
ROBUSTNESS_KNOB = {Scenario.SYSTEM: "r_s", Scenario.METER: "r_m"}


@pytest.mark.parametrize("r", EDGE_TABLE)
@pytest.mark.parametrize("scenario", list(ROBUSTNESS_KNOB), ids=lambda s: s.value)
def test_b_max_is_two_at_the_violation_threshold_on_the_edge_table(scenario, r):
    knob = ROBUSTNESS_KNOB[scenario]
    d = violation_threshold(scenario, ScenarioParams(**{knob: r}))
    b_max = horodecki_bmax(scenario_density(ScenarioParams(d=d, **{knob: r}), scenario))
    assert abs(b_max - 2.0) < BOUNDARY_TOL


@pytest.mark.parametrize("scenario", list(ROBUSTNESS_KNOB), ids=lambda s: s.value)
def test_b_max_is_two_within_8_ulps_of_the_violation_threshold_on_the_edge_table(scenario):
    # d = threshold +- 1..8 floats at every table value of the robustness; a d past
    # [0, 1] (next to a threshold of 0 or 1) is no state and is left out
    knob = ROBUSTNESS_KNOB[scenario]
    steps = [k for k in range(-8, 9) if k != 0]
    thresholds = [(violation_threshold(scenario, ScenarioParams(**{knob: r})), r) for r in EDGE_TABLE]
    points = [(_ulps_from(d, k), r) for d, r in thresholds for k in steps]
    d, r = np.array([(d, r) for d, r in points if 0.0 <= d <= 1.0]).T
    closed = bell_closed_form(scenario, ScenarioParams(d=d, **{knob: r}))
    horodecki = horodecki_bmax(scenario_densities(scenario, ScenarioParams(d=d, **{knob: r})))
    assert len(d) >= 8 * len(EDGE_TABLE)  # one side of each threshold at least
    assert np.max(np.abs(closed - 2.0)) < BOUNDARY_TOL
    assert np.max(np.abs(horodecki - 2.0)) < BOUNDARY_TOL


def test_array_meter_info_threshold_equals_its_one_value_calls_on_the_edge_table():
    # None <-> NaN; the table straddles r^2 = 1/2, where the one-value call switches to None
    single = [info_threshold(Scenario.METER, ScenarioParams(r_m=r)) for r in EDGE_TABLE]
    assert None in single and any(value is not None and value > 0.0 for value in single)
    expected = np.array([math.nan if value is None else value for value in single])
    stacked = info_threshold(Scenario.METER, ScenarioParams(r_m=np.array(EDGE_TABLE)))
    assert stacked.tobytes() == expected.tobytes()
    grid = info_threshold(Scenario.METER, ScenarioParams(r_m=np.array(EDGE_TABLE[:48]).reshape(6, 8)))
    assert grid.tobytes() == expected[:48].reshape(6, 8).tobytes()
    assert info_threshold(Scenario.METER, ScenarioParams(r_m=list(EDGE_TABLE))).tobytes() == expected.tobytes()


def test_meter_info_threshold_is_none_exactly_where_r_m_squared_reaches_one_half():
    # The rule r_m * r_m >= 1/2 agrees with violation_threshold's d = 0 on every float: below 1/2,
    # fl(1 - r_m^2) >= 1/2 > r_m^2, so the quotient r_m^2 / (1 - r_m^2) rounds below 1 and d > 0; from 1/2 on,
    # 1 - r_m^2 is exact and at most r_m^2, so d = 0.  Checked 64 floats to either side of 1/sqrt2.
    edge = [_ulps_from(1.0 / math.sqrt(2.0), k) for k in range(-64, 65)]
    r = sorted({0.0, 1.0, *edge, *EDGE_TABLE})
    rule = [x * x >= 0.5 for x in r]
    assert True in rule and False in rule
    single = [info_threshold(Scenario.METER, ScenarioParams(r_m=x)) for x in r]
    single_d = [violation_threshold(Scenario.METER, ScenarioParams(r_m=x)) for x in r]
    stacked = info_threshold(Scenario.METER, ScenarioParams(r_m=np.array(r)))
    stacked_d = violation_threshold(Scenario.METER, ScenarioParams(r_m=np.array(r)))
    assert [x is None for x in single] == [d == 0.0 for d in single_d] == rule
    assert np.isnan(stacked).tolist() == (stacked_d == 0.0).tolist() == rule


@pytest.mark.xfail(
    raises=AssertionError,
    reason="_combined_threshold_sq cancels as r_m -> 1: |B_max - 2| reaches 3.05e-5 at r_s = 0.5, r_m = 1 - 1e-12",
)
def test_combined_b_max_is_two_at_the_violation_threshold_on_the_edge_table():
    r_s, r_m = (a.ravel() for a in np.meshgrid([0.0, 0.5, 1.0], EDGE_TABLE, indexing="ij"))
    d = violation_threshold(Scenario.COMBINED, ScenarioParams(r_s=r_s, r_m=r_m))
    b_max = horodecki_bmax(scenario_densities(Scenario.COMBINED, ScenarioParams(d=d, r_s=r_s, r_m=r_m)))
    assert np.max(np.abs(b_max - 2.0)) < BOUNDARY_TOL


def _edge_grid(axes, *lines):
    """The knobs `axes` over the product of `lines`, in row-major order."""
    return dict(zip(axes, (a.ravel() for a in np.meshgrid(*lines, indexing="ij"))))


# The live knobs of each scenario over EDGE_TABLE x EDGE_TABLE; combined also takes r_s in {0, 0.5, 1}.
EDGE_GRIDS = {
    Scenario.FREE: _edge_grid(("r", "d"), EDGE_TABLE, EDGE_TABLE),
    Scenario.SYSTEM: _edge_grid(("d", "r_s"), EDGE_TABLE, EDGE_TABLE),
    Scenario.METER: _edge_grid(("d", "r_m"), EDGE_TABLE, EDGE_TABLE),
    Scenario.COMBINED: _edge_grid(("r_s", "d", "r_m"), [0.0, 0.5, 1.0], EDGE_TABLE, EDGE_TABLE),
}


@pytest.mark.parametrize("scenario", list(EDGE_GRIDS), ids=lambda s: s.value)
def test_bell_closed_form_matches_horodecki_on_the_edge_table(scenario):
    knobs = EDGE_GRIDS[scenario]
    closed = bell_closed_form(scenario, ScenarioParams(**knobs))
    b_max = horodecki_bmax(scenario_densities(scenario, ScenarioParams(**knobs)))
    assert np.max(np.abs(closed - b_max)) < CLOSED_FORM_TOL


@pytest.mark.parametrize("scenario", [Scenario.SYSTEM, Scenario.METER], ids=lambda s: s.value)
def test_entropy_closed_form_matches_the_eigenvalue_route_on_the_edge_table(scenario):
    knobs = EDGE_GRIDS[scenario]
    closed = entropy_closed_form(scenario, ScenarioParams(**knobs))
    matrix = mutual_information(scenario_densities(scenario, ScenarioParams(**knobs)))
    for field in ("s_a", "s_b", "s_ab", "i_ab"):
        assert np.max(np.abs(getattr(closed, field) - getattr(matrix, field))) < ENTROPY_TOL, field


@pytest.mark.parametrize("scenario", list(EDGE_GRIDS), ids=lambda s: s.value)
def test_array_closed_forms_equal_their_one_point_calls_on_the_edge_grids(scenario):
    # numpy's SIMD sqrt and log loops must give the bits of the one-value calls
    forms = {"bell_closed_form": bell_closed_form, "violation_threshold": violation_threshold}
    forms = {name: partial(form, scenario) for name, form in forms.items()}
    if scenario in ROBUSTNESS_KNOB:
        for field in ("s_a", "s_b", "s_ab", "i_ab"):
            forms[field] = lambda params, field=field: getattr(entropy_closed_form(scenario, params), field)
    knobs = EDGE_GRIDS[scenario]
    points = [ScenarioParams(**{name: float(values[k]) for name, values in knobs.items()}) for k in range(len(knobs["d"]))]
    for name, form in forms.items():
        single = np.array([form(params) for params in points])
        assert form(ScenarioParams(**knobs)).tobytes() == single.tobytes(), name


@pytest.mark.parametrize(
    ("form", "knob"),
    [(predictability, "r"), (unpredictability, "r"), (overlap, "d"), (partial(info_threshold, Scenario.SYSTEM), "r_s")],
    ids=["predictability", "unpredictability", "overlap", "info_threshold-system"],
)
def test_array_knob_forms_equal_their_one_value_calls_on_the_edge_table(form, knob):
    single = np.array([form(ScenarioParams(**{knob: x})) for x in EDGE_TABLE])
    assert form(ScenarioParams(**{knob: np.array(EDGE_TABLE)})).tobytes() == single.tobytes()


def test_system_identity_equals_its_two_step_value_on_the_edge_grid():
    # the decoherence-free visibility taken from the one-point free state at the same d,
    # and the ratio V / V_free = r_s skipped at d = 1, where V_free = 0
    for d, r_s in itertools.product(EDGE_TABLE, EDGE_TABLE):
        params = ScenarioParams(d=d, r_s=r_s)
        v = visibility_analytic(scenario_density(params, Scenario.SYSTEM))
        expected = _ratio_residual(v, r_s * r_s, d)
        if d < 1.0:
            v_free = visibility_analytic(scenario_density(ScenarioParams(r=0.5, d=d), Scenario.FREE))
            expected = float(np.maximum(expected, np.abs(v / v_free - r_s)))
        residual = check_identity(Scenario.SYSTEM, params)
        assert type(residual) is float and np.float64(residual).tobytes() == np.float64(expected).tobytes(), (d, r_s)
