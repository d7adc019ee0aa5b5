import itertools
import math

import numpy as np
import pytest

from qdl import figures, linalg, verify, visibility
from qdl.bell import _combined_threshold_sq, _seesaw, bell_closed_form, chsh_value, horodecki_bmax, violates_chsh
from qdl.bell import violation_threshold
from qdl.infotheory import binary_entropy, entropy_closed_form, info_threshold
from qdl.infotheory import SEPARABILITY_TOL, mutual_information
from qdl.infotheory import printed_meter_s_b
from qdl.states import Scenario, ScenarioParams, scenario_densities
from qdl.verify import _AXES, BOUNDARY_TOL, BRUTE_TOL, CLOSED_FORM_TOL, ENTROPY_TOL, IDENTITY_TOL, SUITES, _reduce
from qdl.verify import _Chunk, _distinct, _grid, run_suites, suite_brute, suite_identities, suite_sweep_agreement
from qdl.visibility import _identity_residual, check_identity, overlap, predictability, unpredictability
from qdl.visibility import visibility_analytic, visibility_sweep

from edge_classes import EDGE_BIASED, METER_ROBUSTNESS, SQRT_HALF, mixed


def test_suite_results_do_not_depend_on_the_chunk_size(monkeypatch):
    default = run_suites(resolution=5)
    monkeypatch.setattr(figures, "CHUNK_POINTS", 7)  # ragged chunks on every grid
    assert run_suites(resolution=5) == default


@pytest.mark.parametrize("resolution", [2, 3, 13])
def test_each_suite_alone_equals_its_entry_of_the_full_run(resolution):
    full = run_suites(resolution=resolution)
    assert all(entry.passed for entry in full)  # as `qdl verify --resolution N` exits 0
    for name, entry in zip(SUITES, full):
        (alone,) = run_suites(resolution=resolution, names=[name])
        assert repr(alone) == repr(entry)  # every field, floats to the last bit


def _record_calls(monkeypatch) -> list:
    """Record (name, arguments) of every state build and matrix-route solve that qdl.verify makes,
    the decoherence-free states its identity residuals build in qdl.visibility included."""
    calls = []

    def recorded(name, fn, key):
        def wrapper(*args, **kwargs):
            calls.append((name, key(*args, **kwargs)))
            return fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, wrapper)

    stack = lambda rho: (rho.shape, rho.tobytes())  # noqa: E731
    recorded("scenario_densities", verify.scenario_densities,
             lambda scenario, params: (scenario, *((k, np.shape(v), np.asarray(v).tobytes()) for k, v in vars(params).items())))
    monkeypatch.setattr(visibility, "scenario_densities", verify.scenario_densities)
    for name in ("horodecki_bmax", "mutual_information", "ppt_check"):
        recorded(name, getattr(verify, name), stack)
    return calls


@pytest.mark.parametrize("resolution", [2, 3, 13])
def test_one_run_builds_each_state_stack_and_solves_each_spectrum_once(resolution, monkeypatch):
    calls = _record_calls(monkeypatch)
    run_suites(resolution=resolution)
    assert {name for name, _ in calls} == {"scenario_densities", "horodecki_bmax", "mutual_information", "ppt_check"}
    assert len(set(calls)) == len(calls)


def test_a_second_run_makes_the_same_calls_as_the_first(monkeypatch):
    calls = _record_calls(monkeypatch)
    run_suites()
    first = list(calls)
    assert first
    calls.clear()
    run_suites()
    assert calls == first


def test_the_run_table_is_dropped_when_a_suite_raises(monkeypatch):
    def broken(resolution):
        assert verify._TABLE.get()  # the suites before this one left chunks
        raise RuntimeError("broken suite")

    monkeypatch.setitem(SUITES, "ppt", broken)
    with pytest.raises(RuntimeError, match="broken suite"):
        run_suites()
    assert verify._TABLE.get() is None


def test_the_run_table_and_each_batched_solve_hold_at_most_two_chunks_of_points(monkeypatch):
    monkeypatch.setattr(figures, "CHUNK_POINTS", 7)
    kept, states, chunk = [], [], verify._chunk

    def counted(*args, **kwargs):
        found = chunk(*args, **kwargs)
        kept.append(sum(c.points for c in verify._TABLE.get().values()))
        return found

    monkeypatch.setattr(verify, "_chunk", counted)
    for name in ("horodecki_bmax", "mutual_information", "ppt_check", "_seesaw", "visibility_sweep"):
        solve = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda rho, *args, solve=solve: states.append(len(rho)) or solve(rho, *args))
    run_suites(resolution=5)
    assert 0 < max(kept) <= 2 * 7
    assert 7 < max(states) <= 2 * 7  # runs of chunks are solved together, within the same budget


def test_a_default_run_makes_eleven_eigen_solves(monkeypatch):
    # one per layer and run of chunks: B_max of the four 13-step grids, of the 5-step brute grids, of the boundaries
    # and of the flipped threshold surface; PPT of the system and meter grids; S_AB, S_A and S_B of the entropy
    # suite's grids and boundary, and of the meter threshold probe's boundary.  Each run's states are solved as
    # built, repeated states included
    calls, solve = [], linalg.hermitian_eigensystem
    monkeypatch.setattr(linalg, "hermitian_eigensystem", lambda m, *args: calls.append(len(m)) or solve(m, *args))
    run_suites()
    assert (len(calls), sum(calls)) == (11, 4526)


def test_only_the_see_saw_and_the_phase_sweep_sort_their_states(monkeypatch):
    calls, distinct = [], verify._distinct
    monkeypatch.setattr(verify, "_distinct", lambda rho: calls.append(len(rho)) or distinct(rho))
    run_suites()
    assert calls == [200, 200]  # the four 5-step grids of the sweep, then of the brute suite


def test_a_repeated_suite_name_runs_once_in_the_order_first_named(monkeypatch):
    ran = []
    for name in ("brute", "identities"):
        suite = SUITES[name]
        monkeypatch.setitem(SUITES, name, lambda *args, name=name, suite=suite: ran.append(name) or suite(*args))
    results = run_suites(resolution=2, names=["brute", "identities", "brute", "identities"])
    assert ran == ["brute", "identities"]
    assert [res.name for res in results] == ["chsh_brute_force", "identities"]
    assert results == run_suites(resolution=2, names=["brute", "identities"])


def _assert_distinct_rebuilds(rho):
    distinct, inverse = _distinct(rho)
    rows = [row.tobytes() for row in distinct]
    assert len(set(rows)) == len(rows)
    assert distinct[inverse].tobytes() == rho.tobytes()
    return distinct


def test_the_distinct_states_of_the_verify_grids_rebuild_them_byte_for_byte():
    for resolution, count in ((2, 7), (3, 20), (5, 110)):
        rho = np.concatenate([chunk.rho for chunk in _grid(resolution, *_AXES)])
        assert len(_assert_distinct_rebuilds(rho)) == count, resolution


def test_states_that_differ_only_in_the_sign_of_a_zero_stay_apart():
    rho = np.stack([np.eye(4) / 4] * 4)
    rho[1, 0, 3] = rho[3, 0, 3] = -0.0  # 0.0 == -0.0 as floats, not as bytes
    distinct = _assert_distinct_rebuilds(rho)
    assert len(distinct) == 2 and sorted(np.signbit(distinct[:, 0, 3]).tolist()) == [False, True]


@pytest.mark.parametrize("resolution, distinct, points", [(13, 110, 200), (2, 7, 20), (3, 20, 54)])
def test_the_see_saw_and_the_phase_sweep_run_once_on_the_distinct_states(resolution, distinct, points, monkeypatch):
    calls = {"_seesaw": [], "visibility_sweep": []}
    for name, states in calls.items():
        solve = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda rho, *args, solve=solve, states=states: states.append(len(rho))
                            or solve(rho, *args))
    results = {res.name: res for res in run_suites(resolution=resolution)}
    assert calls == {"_seesaw": [distinct], "visibility_sweep": [distinct]}
    assert results["chsh_brute_force"].points == results["visibility_sweep"].points == points


def _whole_grid_brute(resolution, restarts, seed):
    """The whole-grid route of suite_brute: all 3 * resolution**2 + resolution**3 states in one see-saw, then split."""
    chunks = list(_grid(resolution, *_AXES))
    rho = np.concatenate([chunk.rho for chunk in chunks])
    settings, _ = _seesaw(rho, restarts, seed)
    b_brute = chsh_value(rho, *np.moveaxis(settings, 1, 0))
    b_h = horodecki_bmax(rho)
    gaps = np.split(np.maximum(b_h - b_brute, b_brute - b_h - 1e-6), np.cumsum([c.points for c in chunks[:-1]]))
    return _reduce("chsh_brute_force", BRUTE_TOL, zip(chunks, gaps))


def _whole_grid_sweep(resolution):
    """The whole-grid route of suite_sweep_agreement: every chunk's states swept, repeated states included."""
    gaps = ((c, np.abs(visibility_sweep(c.rho).visibility - c.visibility)) for c in _grid(resolution, *_AXES))
    return _reduce("visibility_sweep", 1e-5, gaps)


@pytest.mark.parametrize("resolution", [2, 3, 5])
def test_distinct_state_suites_equal_the_whole_grid_route(resolution):
    assert repr(suite_sweep_agreement(resolution)) == repr(_whole_grid_sweep(resolution))
    for restarts, seed in itertools.product((1, 32, 1024), (0, 3)):
        expected = _whole_grid_brute(resolution, restarts, seed)
        result = suite_brute(resolution, restarts, seed)
        assert repr(result) == repr(expected), (restarts, seed)
        assert result.passed, (restarts, seed)  # as `qdl verify --suite brute --restarts R` exits 0 at 5 steps


@pytest.mark.parametrize("tolerance", ["1e-3", True, False, math.nan, math.inf, -0.5], ids=repr)
def test_run_suites_rejects_a_tolerance_that_is_not_a_finite_non_negative_number(tolerance):
    with pytest.raises(ValueError, match="tolerance must be a finite non-negative number"):
        run_suites(names=["identities"], tolerance_override=tolerance)


def test_run_suites_takes_an_integer_or_numpy_tolerance():
    for tolerance in (1, np.float64(1.0)):
        (res,) = run_suites(resolution=2, names=["identities"], tolerance_override=tolerance)
        assert res.tolerance == tolerance and res.passed


def test_identities_suite_is_the_worst_single_point_check():
    line = np.linspace(0.0, 1.0, 5)
    worst = 0.0
    for scenario, axes in _AXES.items():
        for point in itertools.product(line, repeat=len(axes)):
            worst = max(worst, check_identity(scenario, ScenarioParams(**dict(zip(axes, point)))))
    assert suite_identities(5).max_residual == worst


def test_reducer_reports_the_first_worst_point_and_fails_on_nan():
    # the scenario and the knobs of the worst point are read off its own chunk
    free = _Chunk(Scenario.FREE, {"r": np.array([0.1, 0.2, 0.3]), "d": np.array([0.4, 0.5, 0.6])})
    meter = _Chunk(Scenario.METER, {"d": np.array([0.7, 0.8]), "r_m": np.array([0.9, 1.0])})
    pairs = [(free, np.array([0.25, 0.5, 0.5])), (meter, np.array([0.5, 0.1])), (free, np.array([0.5, 0.0, 0.1]))]
    res = _reduce("s", 1.0, pairs)
    assert (res.max_residual, res.passed, res.points) == (0.5, True, 8)
    assert res.worst_point == {"scenario": "free", "r": 0.2, "d": 0.5}
    nan = _reduce("s", 1.0, [pairs[0], (meter, np.array([0.1, np.nan])), (free, np.array([np.nan, 0.9, 0.9]))])
    assert math.isnan(nan.max_residual) and not nan.passed
    assert nan.worst_point == {"scenario": "meter", "d": 0.8, "r_m": 1.0}


def test_meter_threshold_probe_fails_on_a_nan_gap(monkeypatch):
    monkeypatch.setattr(verify, "info_threshold", lambda scenario, params: params.r_m * math.nan)
    (result,) = run_suites(names=["meter_threshold"])
    assert math.isnan(result.max_residual) and not result.passed
    assert result.lines[-1].endswith(" to nan)")


def test_meter_s_b_probe_reports_a_nan_printed_form(monkeypatch):
    (adopted,) = run_suites(names=["meter_entropy"])
    monkeypatch.setattr(verify, "printed_meter_s_b", lambda coords: coords.d * math.nan)
    (res,) = run_suites(names=["meter_entropy"])
    assert res.lines[2].endswith("max |S_B - matrix| = nan  (rejected)")
    assert res.lines[3].startswith("  worst point d=0.000 r_m=0.000:") and " printed=nan " in res.lines[3]
    assert (res.max_residual, res.passed) == (adopted.max_residual, True)  # the verdict rests on the adopted form


def test_threshold_sign_probe_reports_a_nan_flipped_form(monkeypatch):
    (adopted,) = run_suites(names=["threshold_sign"])

    def bmax(rho):  # NaN wherever B_max misses 2: on this grid only at states of the flipped threshold
        b = horodecki_bmax(rho)
        return np.where(np.abs(b - 2.0) > 1e-6, math.nan, b)

    monkeypatch.setattr(verify, "horodecki_bmax", bmax)
    (res,) = run_suites(names=["threshold_sign"])
    assert res.lines[2].endswith(" where admissible = nan  (rejected)")
    assert res.lines[2].split(",")[0] == adopted.lines[2].split(",")[0]  # the same admissible count
    assert (res.max_residual, res.passed) == (adopted.max_residual, True)


# The verdicts of the full run at resolution 3; `qdl verify` exits 0 exactly when they are all PASS.  Every
# residual is below 1 and none below 0; three (brute force, entropy forms, meter threshold) are not below 1e-15.
VERDICTS_AT_3 = {None: {True}, 0: {False}, 0.5: {True}, 1e-15: {True, False}, 1: {True}}


@pytest.mark.parametrize("tolerance", [None, 0, 0.5, 1e-15, 1])
def test_a_verdict_is_the_residual_below_the_tolerance(tolerance):
    results = run_suites(resolution=3, tolerance_override=tolerance)
    assert len(results) == len(SUITES)
    assert {res.passed for res in results} == VERDICTS_AT_3[tolerance]
    for res in results:
        assert tolerance is None or res.tolerance == tolerance
        assert res.passed == (res.max_residual < res.tolerance)
        res.max_residual = math.nan
        assert not res.passed


def test_ppt_region_passes_on_the_coarsest_grid():
    (result,) = run_suites(resolution=2, names=["ppt"])
    assert result.passed and result.max_residual == 0.0


@pytest.mark.parametrize("resolution", [2, 3, 13])
def test_negativity_above_the_separability_tolerance_is_exactly_the_ppt_entangled_verdict(resolution):
    # the ppt suites' reading (negativity > tol) against ppt_check's (smallest PT eigenvalue < -tol)
    points, entangled = 0, 0
    for chunk in _grid(resolution, *_AXES):
        rep = chunk.ppt
        assert np.array_equal(rep.negativity > SEPARABILITY_TOL, ~rep.separable), chunk.scenario
        points, entangled = points + chunk.points, entangled + int(np.sum(~rep.separable))
    assert points == 3 * resolution**2 + resolution**3
    assert 0 < entangled < points


@pytest.mark.parametrize("kwargs, name", [({"restarts": 2.0}, "restarts"), ({"seed": 1.5}, "seed")])
def test_run_suites_rejects_non_integral_optimizer_arguments_before_any_suite(kwargs, name):
    with pytest.raises(ValueError, match=name):
        run_suites(resolution=2, names=["identities"], **kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"resolution": 5.0}, "resolution must be an integer"),
     ({"resolution": np.float64(5.0)}, "resolution must be an integer"),
     ({"resolution": "5"}, "resolution must be an integer"),
     ({"resolution": 2, "restarts": True}, "restarts must be an integer"),
     ({"names": []}, r"names must be a non-empty collection of suite names, got \[\]"),
     ({"names": "brute"}, "names must be a non-empty collection of suite names, got 'brute'"),
     ({"names": ["identities", "bogus"]}, "unknown suite 'bogus'")],
    ids=["float", "float64", "str", "restarts-bool", "names-empty", "names-str", "names-unknown"],
)
def test_run_suites_rejects_a_non_integral_resolution_before_any_suite(kwargs, message, monkeypatch):
    ran = []
    monkeypatch.setitem(SUITES, "identities", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match=message):
        run_suites(**{"names": ["identities"], **kwargs})
    assert ran == []


def scenario_points(rng, scenarios=tuple(_AXES)):
    """A scenario and 1 to 8 points of it, each live knob drawn from EDGE_BIASED."""
    scenario = scenarios[rng.integers(len(scenarios))]
    axes = _AXES[scenario]
    points = mixed(rng, (rng.integers(1, 9), len(axes)), EDGE_BIASED)
    return scenario, [ScenarioParams(**dict(zip(axes, point.tolist()))) for point in points]


@pytest.mark.parametrize("seed", range(200))
def test_closed_forms_match_the_stacked_route_at_edge_biased_points(seed):
    scenario, params = scenario_points(np.random.default_rng(seed))
    knobs = {axis: [getattr(p, axis) for p in params] for axis in _AXES[scenario]}
    rho = scenario_densities(scenario, ScenarioParams(**knobs))
    for p, b_max, v in zip(params, horodecki_bmax(rho), visibility_analytic(rho)):
        assert abs(bell_closed_form(scenario, p) - b_max) < CLOSED_FORM_TOL
        assert _identity_residual(scenario, p, v) < IDENTITY_TOL


def _array_knobs(params):
    """The points as one ScenarioParams of knob arrays."""
    return ScenarioParams(**{k: np.array([getattr(p, k) for p in params]) for k in ("r", "d", "r_s", "r_m")})


def _bits(values):
    """The IEEE bit patterns, so that -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_array_closed_forms_equal_their_scalar_calls_on_uniform_draws():
    # The closed forms square, take roots and logs through numpy ufuncs; an
    # array call must give each point the bits of its one-point call.
    x, y = (np.random.default_rng(seed).random(20_000).tolist() for seed in (7, 8))
    draws = list(zip(x, y))
    meter = [ScenarioParams(d=a, r_m=b) for a, b in draws]
    combined = [ScenarioParams(r_s=a, r_m=b) for a, b in draws]
    checks = [
        (meter, lambda q: binary_entropy(q.d)),
        (meter, lambda q: bell_closed_form(Scenario.METER, q)),
        (meter, lambda q: violation_threshold(Scenario.METER, q)),
        (combined, lambda q: violation_threshold(Scenario.COMBINED, q)),
        (meter, printed_meter_s_b),
    ]
    for params, closed_form in checks:
        assert _bits(closed_form(_array_knobs(params))) == _bits([closed_form(p) for p in params])


@pytest.mark.parametrize("seed", range(800, 1000))
def test_array_closed_forms_equal_their_scalar_calls_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    scenario = list(_AXES)[rng.integers(len(_AXES))]
    rows = mixed(rng, (rng.integers(1, 9), 4), EDGE_BIASED).tolist()  # all four knobs of each point
    params = [ScenarioParams(r=r, d=d, r_s=r_s, r_m=r_m) for r, d, r_s, r_m in rows]
    knobs = _array_knobs(params)

    def same_bits(closed_form):
        scalars = [closed_form(p) for p in params]
        assert all(type(x) is float for x in scalars)
        assert _bits(closed_form(knobs)) == _bits(scalars)

    same_bits(lambda q: bell_closed_form(scenario, q))
    same_bits(lambda q: violation_threshold(scenario, q))
    same_bits(lambda q: _combined_threshold_sq(q.r_s, q.r_m))
    same_bits(unpredictability)
    same_bits(predictability)
    same_bits(overlap)
    same_bits(lambda q: binary_entropy(q.r))
    same_bits(lambda q: info_threshold(Scenario.SYSTEM, q))
    for field in ("s_a", "s_b", "s_ab", "i_ab"):
        same_bits(lambda q: getattr(entropy_closed_form(Scenario.SYSTEM, q), field))
        same_bits(lambda q: getattr(entropy_closed_form(Scenario.METER, q), field))
    same_bits(printed_meter_s_b)
    violates = violates_chsh(bell_closed_form(scenario, knobs)).tolist()
    assert violates == [violates_chsh(bell_closed_form(scenario, p)) for p in params]
    # a visibility for each point: a system point's decoherence-free visibility is the free state's at its d
    v = rng.uniform(0.01, 1.0, len(rows)).tolist()
    residuals = [_identity_residual(scenario, p, a) for p, a in zip(params, v)]
    assert all(type(x) is float for x in residuals)
    assert _bits(_identity_residual(scenario, knobs, np.array(v))) == _bits(residuals)


@pytest.mark.parametrize("seed", range(200, 400))
def test_entropy_closed_forms_match_the_stacked_route_at_edge_biased_points(seed):
    scenario, params = scenario_points(np.random.default_rng(seed), (Scenario.SYSTEM, Scenario.METER))
    knobs = _array_knobs(params)
    closed = entropy_closed_form(scenario, knobs)
    matrix = mutual_information(scenario_densities(scenario, knobs))
    for field in ("s_a", "s_b", "s_ab", "i_ab"):
        assert np.max(np.abs(getattr(closed, field) - getattr(matrix, field))) < ENTROPY_TOL, field


# The combined scenario is left out: its threshold cancels as r_m -> 1 until the
# stable root of ROADMAP item 1 replaces it.
@pytest.mark.parametrize("seed", range(400, 600))
def test_b_max_is_two_at_the_violation_threshold_at_edge_biased_points(seed):
    rng = np.random.default_rng(seed)
    scenario = (Scenario.SYSTEM, Scenario.METER)[rng.integers(2)]
    knob, robustness = _AXES[scenario][1], mixed(rng, rng.integers(1, 9), EDGE_BIASED)
    d = violation_threshold(scenario, ScenarioParams(**{knob: robustness}))
    b_max = horodecki_bmax(scenario_densities(scenario, ScenarioParams(d=d, **{knob: robustness})))
    assert np.max(np.abs(b_max - 2.0)) < BOUNDARY_TOL


@pytest.mark.parametrize("seed", range(600, 800))
def test_meter_info_threshold_is_the_information_at_the_boundary_at_edge_biased_points(seed):
    (r,) = mixed(np.random.default_rng(seed), 1, METER_ROBUSTNESS).tolist()
    boundary = ScenarioParams(d=violation_threshold(Scenario.METER, ScenarioParams(r_m=r)), r_m=r)
    i_ab = mutual_information(scenario_densities(Scenario.METER, boundary)).i_ab
    assert abs(info_threshold(Scenario.METER, ScenarioParams(r_m=r)) - i_ab) < ENTROPY_TOL


@pytest.mark.parametrize("r", [SQRT_HALF, math.nextafter(SQRT_HALF, 1.0)])
def test_meter_info_threshold_is_none_exactly_where_the_violation_boundary_is_zero(r):
    # 1/sqrt2 rounded down squares to below 1/2, so its boundary d is 2.1e-8, not 0; the next float up squares past 1/2.
    d = violation_threshold(Scenario.METER, ScenarioParams(r_m=r))
    threshold = info_threshold(Scenario.METER, ScenarioParams(r_m=r))
    assert (threshold is None) == (d == 0.0)
    if threshold is not None:
        i_ab = mutual_information(scenario_densities(Scenario.METER, ScenarioParams(d=d, r_m=r))).i_ab
        assert abs(threshold - i_ab) < ENTROPY_TOL
