import math

import numpy as np
import pytest

from qdl import bell
from qdl.bell import (
    _PLAIN_SWEEPS,
    _VALUE_STALL_TOL,
    MAX_RESTARTS,
    SEESAW_SWEEPS,
    _seesaw,
    _start_vectors,
    bell_closed_form,
    chsh_brute_force,
    chsh_value,
    correlation_tensor,
    horodecki_bmax,
    violates_chsh,
    violation_threshold,
)
from qdl.states import Scenario, ScenarioParams, scenario_densities, scenario_density
from qdl.verify import _AXES, BRUTE_RESOLUTION, BRUTE_TOL, _grid

SQ2 = math.sqrt(2.0)
SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / SQ2


def singlet_rho():
    return np.outer(SINGLET, SINGLET)


def test_tensor_maximally_mixed():
    assert np.allclose(correlation_tensor(np.eye(4) / 4), np.zeros((3, 3)), atol=1e-14)


def test_tensor_singlet():
    assert np.allclose(correlation_tensor(singlet_rho()), np.diag([-1, -1, -1]), atol=1e-12)


def test_tensor_combined_full_tagging():
    # d = 1: T = diag(-r_s r_m, -r_s r_m, -1); the diagonal y entry carries the
    # same sign as the x entry (the r_s = r_m = 1 point is the singlet).
    for r_s, r_m in ((1.0, 1.0), (0.8, 0.6), (0.5, 0.25)):
        rho = scenario_density(ScenarioParams(d=1.0, r_s=r_s, r_m=r_m), Scenario.COMBINED)
        t = correlation_tensor(rho)
        assert np.allclose(t, np.diag([-r_s * r_m, -r_s * r_m, -1.0]), atol=1e-12)


def test_tensor_entries_bounded():
    rng = np.random.default_rng(31)
    for _ in range(20):
        params = ScenarioParams(d=rng.uniform(0, 1), r_s=rng.uniform(0, 1), r_m=rng.uniform(0, 1))
        t = correlation_tensor(scenario_density(params, Scenario.COMBINED))
        assert np.max(np.abs(t)) <= 1 + 1e-12


def test_horodecki_maximally_mixed():
    assert horodecki_bmax(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)


def test_horodecki_tsirelson_point():
    rho = scenario_density(ScenarioParams(r=0.5, d=1.0), Scenario.FREE)
    assert horodecki_bmax(rho) == pytest.approx(2 * SQ2, abs=1e-12)


def test_horodecki_on_system_boundary():
    rho = scenario_density(ScenarioParams(d=0.8, r_s=0.6), Scenario.SYSTEM)
    assert horodecki_bmax(rho) == pytest.approx(2.0, abs=1e-10)


def test_closed_form_free_no_monitoring():
    for r in (0.0, 0.3, 0.5):
        assert bell_closed_form(Scenario.FREE, ScenarioParams(r=r, d=0.0)) == pytest.approx(2.0)


def test_closed_form_meter_points():
    assert bell_closed_form(Scenario.METER, ScenarioParams(d=0.5, r_m=1.0)) == pytest.approx(
        2 * math.sqrt(1.25), abs=1e-12
    )
    assert bell_closed_form(
        Scenario.METER, ScenarioParams(d=math.sqrt(0.5), r_m=0.0)
    ) == pytest.approx(2 * math.sqrt(0.75), abs=1e-12)


def test_closed_form_matches_horodecki_on_grid():
    line = np.linspace(0, 1, 7)
    for scenario in Scenario:
        for d in line:
            for r in line:
                params = (
                    ScenarioParams(r=r, d=d)
                    if scenario is Scenario.FREE
                    else ScenarioParams(d=d, r_s=r, r_m=1 - 0.6 * r)
                )
                rho = scenario_density(params, scenario)
                assert abs(bell_closed_form(scenario, params) - horodecki_bmax(rho)) < 1e-10


def test_chsh_value_canonical_settings():
    a = np.array([0.0, 0.0, 1.0])
    a2 = np.array([1.0, 0.0, 0.0])
    b = -(a + a2) / SQ2
    b2 = (a2 - a) / SQ2
    assert chsh_value(singlet_rho(), a, a2, b, b2) == pytest.approx(2 * SQ2, abs=1e-12)


def test_chsh_value_degenerate_settings():
    rng = np.random.default_rng(32)
    for _ in range(5):
        params = ScenarioParams(d=rng.uniform(0, 1), r_s=rng.uniform(0, 1))
        rho = scenario_density(params, Scenario.SYSTEM)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        val = chsh_value(rho, v, v, w, w)
        assert abs(val) <= 2 + 1e-12


def test_chsh_value_product_state_bound():
    rho = np.kron(np.diag([0.2, 0.8]), np.diag([0.9, 0.1]))
    rng = np.random.default_rng(33)
    for _ in range(20):
        vs = rng.standard_normal((4, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        assert abs(chsh_value(rho, *vs)) <= 2 + 1e-12


def test_chsh_value_consistent_with_tensor_route():
    rng = np.random.default_rng(34)
    params = ScenarioParams(d=0.7, r_s=0.6, r_m=0.9)
    rho = scenario_density(params, Scenario.COMBINED)
    t = correlation_tensor(rho)
    for _ in range(10):
        vs = rng.standard_normal((4, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        a, a2, b, b2 = vs
        via_t = a @ t @ b + a @ t @ b2 + a2 @ t @ b - a2 @ t @ b2
        assert chsh_value(rho, a, a2, b, b2) == pytest.approx(via_t, abs=1e-12)


def test_chsh_value_rejects_non_unit_vectors():
    with pytest.raises(ValueError):
        chsh_value(singlet_rho(), [1, 1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1])


def test_brute_force_singlet():
    res = chsh_brute_force(singlet_rho(), restarts=32)
    assert res.b_brute == pytest.approx(2 * SQ2, abs=1e-5)


def test_brute_force_maximally_mixed():
    res = chsh_brute_force(np.eye(4) / 4, restarts=32)
    assert res.b_brute == pytest.approx(0.0, abs=1e-6)


def test_brute_force_system_point():
    rho = scenario_density(ScenarioParams(d=0.9, r_s=0.9), Scenario.SYSTEM)
    res = chsh_brute_force(rho, restarts=32)
    assert res.b_brute == pytest.approx(2 * math.sqrt(1.62), abs=1e-5)


def test_brute_force_never_exceeds_horodecki():
    rng = np.random.default_rng(35)
    for _ in range(6):
        params = ScenarioParams(d=rng.uniform(0, 1), r_s=rng.uniform(0, 1), r_m=rng.uniform(0, 1))
        rho = scenario_density(params, Scenario.COMBINED)
        res = chsh_brute_force(rho, restarts=16)
        assert res.b_brute <= res.b_horodecki + 1e-6
        assert res.b_brute >= res.b_horodecki - 1e-5


def test_brute_force_deterministic():
    rho = scenario_density(ScenarioParams(d=0.6, r_s=0.7), Scenario.SYSTEM)
    r1 = chsh_brute_force(rho, restarts=8, seed=3)
    r2 = chsh_brute_force(rho, restarts=8, seed=3)
    assert r1.b_brute == r2.b_brute
    assert np.array_equal(r1.settings, r2.settings)


def test_brute_force_settings_are_unit_vectors():
    res = chsh_brute_force(singlet_rho(), restarts=8)
    assert res.settings.shape == (4, 3)
    assert np.allclose(np.linalg.norm(res.settings, axis=1), 1.0, atol=1e-12)


def test_brute_force_near_degenerate_singular_values():
    # sigma_2 ~ sigma_3 here, where the see-saw converges slowly
    rho = scenario_density(ScenarioParams(d=0.9999557243204511, r_s=0.9995418905310595), Scenario.SYSTEM)
    res = chsh_brute_force(rho)
    assert -1e-6 <= res.b_horodecki - res.b_brute <= BRUTE_TOL


def test_brute_force_settings_reproduce_value():
    rho = scenario_density(ScenarioParams(d=0.7, r_s=0.5, r_m=0.4), Scenario.COMBINED)
    res = chsh_brute_force(rho)
    assert res.brute_converged
    assert chsh_value(rho, *res.settings) == pytest.approx(res.b_brute, abs=1e-12)


def test_brute_force_sweep_budget_flags_unconverged(monkeypatch):
    rho = scenario_density(ScenarioParams(d=0.7, r_s=0.5, r_m=0.4), Scenario.COMBINED)
    assert chsh_brute_force(rho).brute_converged
    monkeypatch.setattr(bell, "SEESAW_SWEEPS", 1)
    assert not chsh_brute_force(rho).brute_converged


def test_seesaw_with_no_sweeps_returns_the_first_start_unconverged(monkeypatch):
    monkeypatch.setattr(bell, "SEESAW_SWEEPS", 0)
    settings, converged = _seesaw(_mixed_optimizer_stack(), 8, 3)
    start = _start_vectors(8, 3)[:, 0]
    assert all(np.array_equal(row, start / np.linalg.norm(start, axis=-1, keepdims=True)) for row in settings)
    assert not converged.any()


def test_brute_force_rank_one_tensor():
    # |00><00| has T = diag(0, 0, 1): a and a' end up along +-z, so one of
    # T^T(a + a'), T^T(a - a') is the zero vector
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0
    res = chsh_brute_force(rho, restarts=8)
    assert res.b_brute == pytest.approx(2.0, abs=1e-9)


def test_brute_force_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        chsh_brute_force(singlet_rho(), seed=-1)


def _mixed_optimizer_stack():
    """Fast points, a rank-one tensor and an analyze-pool point near sigma_2 ~ sigma_3 that
    plain sweeps leave unconverged after the whole budget, so states leave the active set
    at different sweeps, in the plain phase and in the extrapolated one."""
    rank_one = np.zeros((4, 4))
    rank_one[0, 0] = 1.0
    return np.array(
        [
            scenario_density(ScenarioParams(d=0.7, r_s=0.5, r_m=0.4), Scenario.COMBINED),
            singlet_rho(),
            scenario_density(ScenarioParams(d=0.9999557243204511, r_s=0.9995418905310595), Scenario.SYSTEM),
            np.eye(4) / 4,
            rank_one,
            scenario_density(ScenarioParams(d=0.3, r_m=0.8), Scenario.METER),
        ]
    )


@pytest.mark.parametrize("sweeps", [SEESAW_SWEEPS, 40, 1])
def test_stacked_seesaw_equals_per_point_calls(sweeps, monkeypatch):
    monkeypatch.setattr(bell, "SEESAW_SWEEPS", sweeps)
    rho = _mixed_optimizer_stack()
    settings, converged = _seesaw(rho, 32, 0)
    b_brute = chsh_value(rho, *np.moveaxis(settings, 1, 0))
    for k, state in enumerate(rho):
        single = chsh_brute_force(state)
        assert single.b_brute == b_brute[k]
        assert np.array_equal(single.settings, settings[k])
        assert single.brute_converged == converged[k]
    if sweeps == SEESAW_SWEEPS:
        assert converged.all()
    if sweeps == 1:
        assert not converged.any()


def test_stacked_chsh_value_equals_per_state_calls():
    rng = np.random.default_rng(37)
    params = ScenarioParams(d=rng.uniform(0, 1, 12), r_s=rng.uniform(0, 1, 12), r_m=0.3)
    rho = scenario_densities(Scenario.COMBINED, params)
    vs = rng.standard_normal((4, 12, 3))
    vs /= np.linalg.norm(vs, axis=-1, keepdims=True)
    stacked = chsh_value(rho, *vs)
    assert stacked.shape == (12,)
    for k in range(12):
        assert chsh_value(rho[k], *vs[:, k]) == stacked[k]


def _four_correlator_chsh_value(rho, a, a2, b, b2):
    """The CHSH value as four separate correlator calls, each building its own spin operators in real arithmetic.

    Re(x.sigma) = [[x_z, x_x], [x_x, -x_z]] and Im(x.sigma) = x_y J, J = [[0, -1], [1, 0]], so the real part of
    x.sigma (x) y.sigma is Re(x.sigma) (x) Re(y.sigma) - Im(x.sigma) (x) Im(y.sigma), entry by entry.
    """
    j = np.array([[0.0, -1.0], [1.0, 0.0]])

    def kron(x, y):  # over the last two axes of each
        return (x[..., :, None, :, None] * y[..., None, :, None, :]).reshape(x.shape[:-2] + (4, 4))

    def correlator(rho, a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        re_a, re_b = (np.stack([v[..., 2], v[..., 0], v[..., 0], -v[..., 2]], -1).reshape(v.shape[:-1] + (2, 2))
                      for v in (a, b))
        im_a, im_b = a[..., 1, None, None] * j, b[..., 1, None, None] * j
        value = np.einsum("...kl,...lk->...", rho, kron(re_a, re_b) - kron(im_a, im_b))
        return float(value) if np.ndim(value) == 0 else value

    return correlator(rho, a, b) + correlator(rho, a, b2) + correlator(rho, a2, b) - correlator(rho, a2, b2)


def test_chsh_value_equals_the_four_correlator_form_bit_for_bit():
    rho = _mixed_optimizer_stack()
    settings, _ = _seesaw(rho, 32, 0)
    vs = np.moveaxis(settings, 1, 0)
    stacked = chsh_value(rho, *vs)
    assert stacked.tobytes() == _four_correlator_chsh_value(rho, *vs).tobytes()
    for k, state in enumerate(rho):
        single = chsh_value(state, *vs[:, k])
        reference = _four_correlator_chsh_value(state, *vs[:, k])
        assert type(single) is float and np.float64(single).tobytes() == np.float64(reference).tobytes()


def test_start_vectors_are_cached_read_only():
    start = _start_vectors(8, 3)
    assert start is _start_vectors(8, 3)
    assert not start.flags.writeable
    assert start.shape == (4, 8, 3)
    before = start.copy()
    rho = _mixed_optimizer_stack()
    first = _seesaw(rho, 8, 3)
    second = _seesaw(rho, 8, 3)
    # the sweeps update their vectors in place; none of it may reach the cache
    assert np.array_equal(start, before)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def _reference_seesaw_half(fixed, matrix, prev):
    pair = np.empty_like(fixed)
    np.add(fixed[:, 0], fixed[:, 1], out=pair[:, 0])
    np.subtract(fixed[:, 0], fixed[:, 1], out=pair[:, 1])
    raw = pair @ matrix
    norm = np.sqrt(np.einsum("...pmi,...pmi->...pm", raw, raw))
    live = norm > 0.0
    unit = raw / np.where(live, norm, 1.0)[..., None]
    return np.where(live[..., None], unit, prev), norm


def _reference_seesaw(rho, restarts, seed, iterations):
    """The plain see-saw, with no extrapolation, written with a fresh array per step.

    Returns the settings, the convergence flags and the number of sweeps each state ran.
    """
    t = correlation_tensor(rho)[:, None]
    t_t = np.swapaxes(t, -1, -2)
    n = t.shape[0]
    start = _start_vectors(restarts, seed)
    alice = np.repeat(start[None, :2], n, axis=0)
    bob = np.repeat(start[None, 2:], n, axis=0)
    values = np.zeros((n, restarts))
    converged = np.zeros(n, dtype=bool)
    final_alice, final_bob, final_values = np.empty_like(alice), np.empty_like(bob), np.empty_like(values)
    sweeps = np.full(n, iterations)
    active = np.arange(n)
    prev_best = np.full(n, -np.inf)
    for sweep in range(iterations):
        alice, _ = _reference_seesaw_half(bob, t_t, alice)
        bob, norms = _reference_seesaw_half(alice, t, bob)
        values = np.add(norms[:, 0], norms[:, 1])
        best_now = values.max(axis=1)
        stalled = best_now - prev_best < _VALUE_STALL_TOL
        if stalled.any():
            done = active[stalled]
            final_alice[done], final_bob[done], final_values[done] = alice[stalled], bob[stalled], values[stalled]
            converged[done] = True
            sweeps[done] = sweep + 1
            keep = ~stalled
            if not keep.any():
                break
            active, alice, bob, values, t = (a[keep] for a in (active, alice, bob, values, t))
            t_t = np.swapaxes(t, -1, -2)
            best_now = best_now[keep]
        prev_best = best_now
    else:
        final_alice[active], final_bob[active], final_values[active] = alice, bob, values
    best = np.argmax(final_values, axis=1)
    rows = np.arange(n)
    settings = np.concatenate((final_alice[rows, :, best], final_bob[rows, :, best]), axis=1)
    settings /= np.linalg.norm(settings, axis=-1, keepdims=True)
    return settings, converged, sweeps


def _assert_plain_phase_bits_and_no_loss(rho, restarts, seed):
    """States the plain loop finishes within _PLAIN_SWEEPS sweeps return its settings and flag
    bit for bit; every state reaches at least the plain loop's CHSH value, less 1e-15.
    Both loops run the budget bell.SEESAW_SWEEPS holds at the call."""
    settings, converged = _seesaw(rho, restarts, seed)
    ref_settings, ref_converged, ref_sweeps = _reference_seesaw(rho, restarts, seed, bell.SEESAW_SWEEPS)
    plain = ref_sweeps <= _PLAIN_SWEEPS
    assert np.array_equal(settings[plain], ref_settings[plain])
    assert np.array_equal(converged[plain], ref_converged[plain])
    value = chsh_value(rho, *np.moveaxis(settings, 1, 0))
    ref_value = chsh_value(rho, *np.moveaxis(ref_settings, 1, 0))
    assert np.all(value >= ref_value - 1e-15)
    return plain, converged


@pytest.mark.parametrize("sweeps", [SEESAW_SWEEPS, 40, 1])
@pytest.mark.parametrize("restarts", [1, 8, 32])
@pytest.mark.parametrize("seed", [0, 3])
def test_seesaw_equals_reference_bit_for_bit(sweeps, restarts, seed, monkeypatch):
    """Bit identity with the plain loop holds for the states that stop in the plain phase;
    the others, which extrapolate, must end no lower than the plain loop."""
    # the stack holds zero-norm rows (zero and rank-one tensors), all-live sweeps and compaction;
    # past _PLAIN_SWEEPS the near-degenerate state runs the extrapolated phase
    monkeypatch.setattr(bell, "SEESAW_SWEEPS", sweeps)
    plain, _ = _assert_plain_phase_bits_and_no_loss(_mixed_optimizer_stack(), restarts, seed)
    assert plain.all() == (sweeps <= _PLAIN_SWEEPS)


def test_seesaw_equals_reference_on_the_brute_grid():
    """As above, over the whole brute-suite grid at the default budget."""
    rho = np.concatenate([chunk.rho for chunk in _grid(BRUTE_RESOLUTION, *_AXES)])
    plain, converged = _assert_plain_phase_bits_and_no_loss(rho, 32, 0)
    assert plain.any() and not plain.all()
    assert converged.all()


@pytest.mark.parametrize(
    "scenario, params",
    [
        (Scenario.SYSTEM, ScenarioParams(d=0.9999557243204511, r_s=0.9995418905310595)),
        (Scenario.METER, ScenarioParams(d=0.7387126869164424, r_m=0.9994977530794785)),
    ],
)
def test_brute_force_converges_where_plain_sweeps_exhaust_the_budget(scenario, params):
    # sigma_2 ~ sigma_3: the plain loop ran all 3000 sweeps here and ended 4.6e-7 and 3.2e-8 low
    res = chsh_brute_force(scenario_density(params, scenario))
    assert res.brute_converged
    assert 0.0 <= res.b_horodecki - res.b_brute <= 1e-9


@pytest.mark.parametrize(
    "scenario, params",
    [
        (Scenario.SYSTEM, ScenarioParams(d=0.9923654627945088, r_s=0.7194443005884364)),
        (Scenario.COMBINED, ScenarioParams(d=0.069897370734194, r_s=1.0, r_m=0.4425796625277897)),
    ],
)
def test_extrapolated_phase_stops_after_two_slow_sweeps(scenario, params):
    # stopping on the first slow sweep of the extrapolated phase leaves 3.5e-13 and 1.4e-12 here
    res = chsh_brute_force(scenario_density(params, scenario))
    assert res.brute_converged
    assert abs(res.b_horodecki - res.b_brute) <= 1e-13


def test_stacked_seesaw_budget_ending_on_a_stop_sweep(monkeypatch):
    # with 8 restarts and seed 3 the last mixed-stack state stops on sweep 40 while the
    # near-degenerate one runs on, so the stack is compacted on the budget's last sweep
    rho = _mixed_optimizer_stack()
    for sweeps in (39, 40, 41):
        monkeypatch.setattr(bell, "SEESAW_SWEEPS", sweeps)
        settings, converged = _seesaw(rho, 8, 3)
        for k, state in enumerate(rho):
            single, single_converged = _seesaw(state[None], 8, 3)
            assert np.array_equal(single[0], settings[k])
            assert single_converged[0] == converged[k]


def _buffered_seesaw_half(fixed, matrix, vectors, pair, raw, norm):
    """The see-saw half step with caller-owned scratch buffers, which `_seesaw_half` replaced."""
    n = fixed.shape[0]
    np.matmul(bell._PAIR_SIGNS, fixed.reshape(n, 2, -1), out=pair.reshape(n, 2, -1))
    np.matmul(pair, matrix, out=raw)
    np.einsum("...pmi,...pmi->...pm", raw, raw, out=norm)
    np.sqrt(norm, out=norm)
    if norm.all():
        np.divide(raw, norm[..., None], out=vectors)
    else:
        live = norm > 0.0
        vectors[...] = np.where(live[..., None], raw / np.where(live, norm, 1.0)[..., None], vectors)


def _buffered_extrapolate(t_t, alice, bob, values, old_bob, step, pair, raw, norm):
    trial = bob - old_bob
    trial *= step[:, None, :, None]
    trial += bob
    np.einsum("...pmi,...pmi->...pm", trial, trial, out=norm)
    np.sqrt(norm, out=norm)
    trial /= norm[..., None]
    trial_alice = alice.copy()
    _buffered_seesaw_half(trial, t_t, trial_alice, pair, raw, norm)
    trial_values = norm[:, 0] + norm[:, 1]
    kept = trial_values > values
    np.copyto(alice, trial_alice, where=kept[:, None, :, None])
    np.copyto(bob, trial, where=kept[:, None, :, None])
    np.maximum(values, trial_values, out=values)
    step *= np.where(kept, 2.0, 0.5)
    np.minimum(step, bell._STEP_CAP, out=step)


def _buffered_seesaw(rho, restarts, seed):
    """The see-saw, extrapolated phase included, with scratch buffers sliced on each compaction and
    Bob's history kept party-first, (2, N, 2, R, 3), and compacted on its own.  Reads
    bell.SEESAW_SWEEPS at the call."""
    t = correlation_tensor(rho)[:, None]
    t_t = np.swapaxes(t, -1, -2)
    n = t.shape[0]
    start = _start_vectors(restarts, seed)
    alice = np.repeat(start[None, :2], n, axis=0)
    bob = np.repeat(start[None, 2:], n, axis=0)
    values, norm = np.zeros((n, restarts)), np.empty((n, 2, restarts))
    pair, raw = np.empty_like(bob), np.empty_like(bob)
    old_bob, step, slow = np.empty((2,) + bob.shape), np.full((n, restarts), bell._STEP_START), np.zeros(n, dtype=int)
    settings, converged = np.empty((n, 4, 3)), np.zeros(n, dtype=bool)
    active, prev_best = np.arange(n), np.full(n, -np.inf)
    for sweep in range(bell.SEESAW_SWEEPS):
        _buffered_seesaw_half(bob, t_t, alice, pair, raw, norm)
        _buffered_seesaw_half(alice, t, bob, pair, raw, norm)
        np.add(norm[:, 0], norm[:, 1], out=values)
        if sweep >= _PLAIN_SWEEPS:
            _buffered_extrapolate(t_t, alice, bob, values, old_bob[sweep % 2], step, pair, raw, norm)
        if sweep >= _PLAIN_SWEEPS - 2:
            old_bob[sweep % 2] = bob
        best_now = values.max(axis=1)
        if sweep < _PLAIN_SWEEPS:
            tol, stalls = _VALUE_STALL_TOL, 1
        else:
            tol, stalls = bell._STEP_STALL_TOL, bell._STEP_STALLS
        slow = (slow + 1) * (best_now - prev_best < tol)
        stalled = slow >= stalls
        if stalled.any():
            done = active[stalled]
            settings[done], converged[done] = bell._best_settings(alice[stalled], bob[stalled], values[stalled]), True
            if stalled.all():
                return settings, converged
            keep = ~stalled
            active, alice, bob, values, t, step, slow, best_now = (
                a[keep] for a in (active, alice, bob, values, t, step, slow, best_now)
            )
            if sweep >= _PLAIN_SWEEPS - 2:
                old_bob[:, : len(active)] = old_bob[:, keep]
            t_t, old_bob = np.swapaxes(t, -1, -2), old_bob[:, : len(active)]
            pair, raw, norm = pair[: len(active)], raw[: len(active)], norm[: len(active)]
        prev_best = best_now
    settings[active] = bell._best_settings(alice, bob, values)
    return settings, converged


def _assert_equals_buffered_seesaw(rho, restarts, seed):
    settings, converged = _seesaw(rho, restarts, seed)
    ref_settings, ref_converged = _buffered_seesaw(rho, restarts, seed)
    assert np.array_equal(settings, ref_settings)
    assert np.array_equal(converged, ref_converged)


@pytest.mark.parametrize("sweeps", [SEESAW_SWEEPS, 40, 1])
@pytest.mark.parametrize("restarts", [1, 8, 32])
@pytest.mark.parametrize("seed", [0, 3])
def test_seesaw_equals_the_buffered_seesaw_on_the_mixed_stack(sweeps, restarts, seed, monkeypatch):
    """Bit identity with the buffered loop in both phases: the mixed stack stops states in the
    plain phase and in the extrapolated one, and compacts the history in each."""
    monkeypatch.setattr(bell, "SEESAW_SWEEPS", sweeps)
    _assert_equals_buffered_seesaw(_mixed_optimizer_stack(), restarts, seed)


@pytest.mark.parametrize("restarts", [32, MAX_RESTARTS])
def test_seesaw_equals_the_buffered_seesaw_on_the_brute_grid(restarts):
    rho = np.concatenate([chunk.rho for chunk in _grid(BRUTE_RESOLUTION, *_AXES)])
    _assert_equals_buffered_seesaw(rho, restarts, 0)


@pytest.mark.parametrize(
    "scenario, params",
    [
        (Scenario.SYSTEM, ScenarioParams(d=0.9999557243204511, r_s=0.9995418905310595)),
        (Scenario.METER, ScenarioParams(d=0.7387126869164424, r_m=0.9994977530794785)),
        (Scenario.SYSTEM, ScenarioParams(d=0.9923654627945088, r_s=0.7194443005884364)),
        (Scenario.COMBINED, ScenarioParams(d=0.069897370734194, r_s=1.0, r_m=0.4425796625277897)),
    ],
)
def test_seesaw_equals_the_buffered_seesaw_where_the_extrapolated_phase_runs_long(scenario, params):
    _assert_equals_buffered_seesaw(scenario_density(params, scenario)[None], 32, 0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"restarts": 2.0}, "restarts"),
        ({"seed": 1.5}, "seed"),
        ({"restarts": True}, "restarts"),
    ],
)
def test_brute_force_rejects_bad_counts(kwargs, name):
    with pytest.raises(ValueError, match=name):
        chsh_brute_force(singlet_rho(), **kwargs)


def test_tsirelson_bound_everywhere():
    rng = np.random.default_rng(36)
    for _ in range(30):
        g = rng.standard_normal((4, 4))
        rho = g @ g.T
        rho /= np.trace(rho)
        assert horodecki_bmax(rho) <= 2 * SQ2 + 1e-12


def test_gisin_property_on_free_grid():
    for d in np.linspace(0.05, 1, 8):
        for u in np.linspace(0.05, 1, 8):
            r = (1 - math.sqrt(1 - u * u)) / 2
            rho = scenario_density(ScenarioParams(r=r, d=d), Scenario.FREE)
            assert horodecki_bmax(rho) > 2.0


def test_violation_predicate_uses_strict_boundary():
    assert not violates_chsh(2.0)
    assert not violates_chsh(2.0 + 5e-10)
    assert violates_chsh(2.0 + 5e-9)


def test_boundary_system_full_robustness():
    for d in (0.01, 0.2, 0.9):
        params = ScenarioParams(d=d, r_s=1.0)
        assert violation_threshold(Scenario.SYSTEM, params) == pytest.approx(0.0)
        assert violates_chsh(bell_closed_form(Scenario.SYSTEM, params))


def test_boundary_meter_regimes():
    params = ScenarioParams(d=0.01, r_m=0.8)
    assert violation_threshold(Scenario.METER, params) == 0.0
    assert violates_chsh(bell_closed_form(Scenario.METER, params))
    params = ScenarioParams(d=0.9, r_m=0.0)
    assert violation_threshold(Scenario.METER, params) == pytest.approx(1.0)
    assert not violates_chsh(bell_closed_form(Scenario.METER, params))


def test_boundary_combined_example():
    d = violation_threshold(Scenario.COMBINED, ScenarioParams(r_s=1.0, r_m=0.5))
    assert d**2 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_boundary_combined_meter_limit():
    # r_m = 1 falls back to the system-decoherence boundary
    assert violation_threshold(Scenario.COMBINED, ScenarioParams(r_s=0.6, r_m=1.0)) == pytest.approx(0.8, abs=1e-12)


def test_boundary_thresholds_sit_on_b_equals_2():
    for r_s in np.linspace(0.1, 1, 5):
        for r_m in np.linspace(0.1, 1, 5):
            params = ScenarioParams(r_s=r_s, r_m=r_m)
            d = violation_threshold(Scenario.COMBINED, params)
            rho = scenario_density(ScenarioParams(d=d, r_s=r_s, r_m=r_m), Scenario.COMBINED)
            assert abs(horodecki_bmax(rho) - 2.0) < 1e-9


@pytest.mark.parametrize("closed_form", [violation_threshold, bell_closed_form], ids=lambda f: f.__name__)
@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
@pytest.mark.parametrize(
    "knobs",
    [
        {"d": np.array([0.1, 0.2])},  # no threshold reads d, every B_max does
        {"r_s": np.array([0.4, 0.9])},  # nothing of the free or meter scenario reads r_s
        {"d": np.array([])},
        {"r": np.array([0.5, 0.5]), "r_s": np.array([0.3, 0.9]), "r_m": np.array([0.4, 0.8])},
        {"d": np.array([[0.3], [0.6]]), "r_s": np.array([0.2, 0.5, 1.0]), "r_m": np.array([0.2, 0.71, 1.0])},
    ],
    ids=lambda k: ",".join(f"{n}{np.shape(v)}" for n, v in k.items()),
)
def test_closed_forms_take_the_knobs_shape_when_any_knob_is_an_array(closed_form, scenario, knobs):
    shape = np.broadcast_shapes(*(np.shape(v) for v in knobs.values()))
    values = closed_form(scenario, ScenarioParams(**knobs))
    assert isinstance(values, np.ndarray) and values.shape == shape
    for index in np.ndindex(shape):  # each point is its one-point call, a float of the same bits
        single = closed_form(
            scenario, ScenarioParams(**{k: float(np.broadcast_to(v, shape)[index]) for k, v in knobs.items()})
        )
        assert type(single) is float and single == values[index], index


def _system_threshold_sq_formula(r_s):
    """The system threshold d^2 = 1 - r_s^2 as its own formula, kept here to pin the combined route's bits."""
    return np.maximum(0.0, 1.0 - r_s * r_s)


def _meter_threshold_sq_formula(r_m):
    """The meter threshold d^2 = 1 - r_m^2/(1 - r_m^2), 0 from r_m^2 = 1/2 on, as its own formula."""
    rm2 = r_m * r_m
    below = rm2 < 0.5
    x = 1.0 - rm2 / np.where(below, 1.0 - rm2, 1.0)
    return np.where(below, np.minimum(1.0, np.maximum(0.0, x)), 0.0)


_THRESHOLD_EDGES = np.array(
    [*(10.0**-k for k in range(1, 17)), *(1.0 - 10.0**-k for k in range(1, 17)), 0.0, 1.0]
    + [math.nextafter(1.0 / SQ2, 0.0), 1.0 / SQ2, math.nextafter(1.0 / SQ2, 1.0)]
)


@pytest.mark.parametrize(
    ("scenario", "knob", "formula"),
    [(Scenario.SYSTEM, "r_s", _system_threshold_sq_formula), (Scenario.METER, "r_m", _meter_threshold_sq_formula)],
    ids=["system", "meter"],
)
def test_system_and_meter_thresholds_keep_the_bits_of_their_own_formulas(scenario, knob, formula):
    # System and meter go through the combined threshold at r_m = 1 and r_s = 1; that must
    # give the bits of their own formulas, scalar and array, and read no other robustness.
    other = "r_m" if knob == "r_s" else "r_s"
    r = np.concatenate([np.linspace(0.0, 1.0, 100_001), _THRESHOLD_EDGES])
    expected = np.sqrt(formula(r))
    for unread in ({}, {other: 0.3}):
        got = violation_threshold(scenario, ScenarioParams(**{knob: r}, **unread))
        assert got.tobytes() == expected.tobytes()
    scalars = r[::97].tolist() + _THRESHOLD_EDGES.tolist()  # one-point calls take ~15 us each: a sample of the grid
    for x in scalars:
        want = float(np.sqrt(formula(x)))
        for unread in ({}, {other: 0.3}):
            got = violation_threshold(scenario, ScenarioParams(**{knob: x}, **unread))
            assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes(), (x, unread)
