import itertools

import numpy as np
import pytest

from qdl import figures
from qdl.bell import bell_closed_form, horodecki_bmax
from qdl.states import Scenario, ScenarioParams, scenario_densities
from qdl.verify import _AXES, CLOSED_FORM_TOL, IDENTITY_TOL, run_suites, suite_identities
from qdl.visibility import _identity_residual, check_identity, visibility_analytic


def test_suite_results_do_not_depend_on_the_chunk_size(monkeypatch):
    default = run_suites(resolution=5)
    monkeypatch.setattr(figures, "CHUNK_POINTS", 7)  # ragged chunks on every grid
    assert run_suites(resolution=5) == default


def test_identities_suite_is_the_worst_single_point_check():
    line = np.linspace(0.0, 1.0, 5)
    worst = 0.0
    for scenario, axes in _AXES.items():
        for point in itertools.product(line, repeat=len(axes)):
            worst = max(worst, check_identity(scenario, ScenarioParams(**dict(zip(axes, point)))))
    assert suite_identities(5).max_residual == worst


def test_ppt_region_passes_on_the_coarsest_grid():
    (result,) = run_suites(resolution=2, names=["ppt"])
    assert result.passed and result.max_residual == 0.0


hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Exactly 0 or 1, within 10^-k of either edge, or uniform on [0, 1].
_near_zero = st.builds(lambda u, k: u * 10.0**-k, st.floats(0.0, 1.0), st.integers(1, 15))
EDGE_BIASED = st.one_of(st.sampled_from((0.0, 1.0)), _near_zero, _near_zero.map(lambda x: 1.0 - x), st.floats(0.0, 1.0))


@st.composite
def scenario_points(draw):
    scenario = draw(st.sampled_from(list(_AXES)))
    axes = _AXES[scenario]
    points = draw(st.lists(st.tuples(*(EDGE_BIASED for _ in axes)), min_size=1, max_size=8))
    return scenario, [ScenarioParams(**dict(zip(axes, point))) for point in points]


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(scenario_points())
def test_closed_forms_match_the_stacked_route_at_edge_biased_points(case):
    scenario, params = case
    knobs = {axis: [getattr(p, axis) for p in params] for axis in _AXES[scenario]}
    rho = scenario_densities(scenario, **knobs)
    v_free = visibility_analytic(scenario_densities(Scenario.FREE, r=0.5, d=[p.d for p in params]))
    for p, b_max, v, v0 in zip(params, horodecki_bmax(rho), visibility_analytic(rho), v_free):
        assert abs(bell_closed_form(scenario, p) - b_max) < CLOSED_FORM_TOL
        assert _identity_residual(scenario, p, v, v0) < IDENTITY_TOL
