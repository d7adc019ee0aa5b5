import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qdl import linalg, states
from qdl.linalg import (
    _TAU_HUGE,
    _TINY,
    JACOBI_MAX_SWEEPS,
    JACOBI_OFFDIAG_TOL,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
)
from qdl.bell import _CORRELATION_TABLE, correlation_tensor
from qdl.states import Scenario, ScenarioParams, _checked_norms

from edge_classes import mixed

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# The complex Pauli matrices, against which the real table of the correlation tensor is checked.
PAULIS = (SIGMA_X.astype(complex), np.array([[0, -1j], [1j, 0]]), np.diag([1.0 + 0j, -1.0]))


def random_symmetric(rng, n):
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2


def table_operator(i, j):
    """Column 3i + j of the correlation tensor's table as a 4x4 matrix: Re(sigma_i (x) sigma_j)^T."""
    return _CORRELATION_TABLE[:, 3 * i + j].reshape(4, 4)


def test_table_zz_column_is_the_diagonal():
    assert np.array_equal(table_operator(2, 2), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_table_holds_no_imaginary_pauli_product():
    # hand expansion: block (0,1) of sigma_x (x) sigma_y is sigma_y, entry [0,3] = -i, so its real part is 0;
    # sigma_y (x) sigma_y has entry [0,3] = (-i)(-i) = -1
    assert not table_operator(0, 1).any() and not table_operator(1, 0).any()
    assert table_operator(1, 1)[0, 3] == -1.0


def test_table_is_the_real_part_of_every_pauli_product():
    for i, j in np.ndindex(3, 3):
        assert np.array_equal(table_operator(i, j), np.kron(PAULIS[i], PAULIS[j]).real.T)


def test_tensor_of_real_states_equals_the_complex_trace():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = rng.standard_normal((4, 4))
        rho = g @ g.T / np.trace(g @ g.T)
        t = correlation_tensor(rho)
        expected = [[np.trace(rho @ np.kron(PAULIS[i], PAULIS[j])).real for j in range(3)] for i in range(3)]
        assert t.dtype == np.float64 and np.max(np.abs(t - expected)) < 1e-14


def test_eigenvalues_pauli():
    assert np.allclose(hermitian_eigenvalues(SIGMA_X), [1, -1])


def test_eigenvalues_scalar_matrix():
    assert np.allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4)


def test_eigenvalues_bell_partial_transpose():
    rho = np.outer(PHI_PLUS, PHI_PLUS)
    spec = hermitian_eigenvalues(partial_transpose(rho))
    assert np.allclose(spec, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_eigenvalues_match_lapack_oracle():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 8, 16):
        for _ in range(10):
            m = random_symmetric(rng, n)
            ours = hermitian_eigenvalues(m)
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.max(np.abs(ours - ref)) < 1e-10


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_symmetric(rng, 4)
        assert abs(np.sum(hermitian_eigenvalues(m)) - np.trace(m)) < 1e-10


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_eigenvalues_reject_empty_matrices(shape):
    with pytest.raises(ValueError, match="n >= 1"):
        hermitian_eigenvalues(np.zeros(shape))


def test_partial_trace_maximally_entangled():
    rho = np.outer(PHI_PLUS, PHI_PLUS)
    assert np.allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    rho = np.diag([0.0, 1.0, 0.0, 0.0])  # |up>_A |down>_B
    assert np.allclose(partial_trace(rho, "A"), np.diag([1.0, 0.0]), atol=1e-14)
    assert np.allclose(partial_trace(rho, "B"), np.diag([0.0, 1.0]), atol=1e-14)


def test_partial_trace_bad_label():
    rho = np.outer(PHI_PLUS, PHI_PLUS)
    # one factor, named "A" or "B": no tuple of labels, no axis index, no keep-both
    for keep in (("A", "E"), ("A", "A"), (0, "A"), (2,), (), ("A",), ("A", "B"), 0, "C"):
        with pytest.raises(ValueError):
            partial_trace(rho, keep)


def test_partial_trace_of_pure_state_is_density_matrix():
    rng = np.random.default_rng(3)
    for _ in range(20):
        amps = rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        rho = np.outer(amps, amps)
        spectra = []
        for keep in ("A", "B"):
            reduced = partial_trace(rho, keep)
            assert np.max(np.abs(reduced - reduced.T)) < 1e-15
            assert abs(np.trace(reduced) - 1.0) < 1e-12
            spectra.append(hermitian_eigenvalues(reduced))
            assert spectra[-1][-1] >= -1e-10
        assert np.max(np.abs(spectra[0] - spectra[1])) < 1e-12  # Schmidt: both halves share a spectrum


def test_partial_transpose_product_state():
    rng = np.random.default_rng(4)
    a = random_symmetric(rng, 2)
    a = a @ a.T
    a /= np.trace(a)
    b = random_symmetric(rng, 2)
    b = b @ b.T
    b /= np.trace(b)
    rho = np.kron(a, b)
    assert np.allclose(partial_transpose(rho), np.kron(a, b.T), atol=1e-14)
    spec = hermitian_eigenvalues(partial_transpose(rho))
    assert spec[-1] > -1e-12


def test_partial_transpose_involution_and_structure():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = rng.standard_normal((4, 4))
        rho = g @ g.T
        rho /= np.trace(rho)
        pt = partial_transpose(rho)
        assert np.array_equal(partial_transpose(pt), rho)  # bit-exact involution
        assert abs(np.trace(pt) - np.trace(rho)) == 0.0
        assert np.max(np.abs(pt - pt.T)) < 1e-15


def test_pure_state_norm_guard():
    states = np.array([[1.0, 0.0], [0.6, -0.8]])
    assert _checked_norms(states) is states
    with pytest.raises(ValueError):
        _checked_norms(np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_norm_guard_on_strided_scaled_and_zero_states():
    unit = np.array([[0.6, 0.8], [-0.8, 0.6], [0.0, -1.0]])
    strided = unit.T.copy().T
    assert not strided.flags.c_contiguous
    assert _checked_norms(strided) is strided
    grown = np.full((3, 2, 2, 2), np.sqrt(0.125))[:, ::-1]  # stacked states of several factors, as a view
    assert _checked_norms(grown) is grown
    with pytest.raises(ValueError, match="not 1 within 1e-12"):
        _checked_norms(unit * (1.0 + 2e-12))
    with pytest.raises(ValueError, match="state norm 0.0 is not 1 within 1e-12"):
        _checked_norms(np.array([[0.6, 0.8], [0.0, 0.0]]))


def test_partial_trace_and_transpose_are_float64():
    rho = random_symmetric(np.random.default_rng(6), 4)
    for m in (rho, rho.astype(complex), np.eye(4, dtype=int)):
        pt = partial_transpose(m)
        assert pt.dtype == np.float64
        assert np.array_equal(pt, m.real.reshape(2, 2, 2, 2).swapaxes(1, 3).reshape(4, 4))
        for keep, subscripts in (("A", "ikjk->ij"), ("B", "kikj->ij")):
            reduced = partial_trace(m, keep)
            assert reduced.dtype == np.float64
            assert np.array_equal(reduced, np.einsum(subscripts, m.real.reshape(2, 2, 2, 2)))


def load_pool_points():
    """The recorded analyze pool of the benchmark harness, as (scenario, params) pairs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_pool_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    import qdl

    return [workloads.point_params(qdl, point) for point in workloads.make_pool()]


def test_stacked_equals_single_on_the_matrices_analyze_solves():
    # Physical states at knobs of exactly 0 and 1 have structural zeros (skipped
    # pivots, already diagonal blocks) that random stacks seldom reproduce.
    kinds = {"rho": [], "rho^T_B": [], "T^T T": [], "rho_A": [], "rho_B": []}
    for scenario, params in load_pool_points():
        rho = states.scenario_density(params, scenario)
        t = correlation_tensor(rho)
        solved = (rho, partial_transpose(rho), t.T @ t, partial_trace(rho, "A"), partial_trace(rho, "B"))
        for kind, m in zip(kinds, solved):
            kinds[kind].append(m)
    for kind, matrices in kinds.items():
        values = hermitian_eigenvalues(np.stack(matrices))
        for k, m in enumerate(matrices):
            assert values[k].tobytes() == hermitian_eigenvalues(m).tobytes(), (kind, k)


GRID_41 = np.linspace(0.0, 1.0, 41)


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_every_state_marginal_and_partial_transpose_the_package_builds_is_real(scenario):
    # the isometries are real, so the package solves every one of these on the real loop as it is
    axes = scenario.knobs
    knobs = dict(zip(axes, (a.ravel() for a in np.meshgrid(*[GRID_41] * len(axes), indexing="ij"))))
    params = ScenarioParams(**knobs)
    rho = states.scenario_densities(scenario, params)
    built = {"psi": states.scenario_amplitudes(scenario, params), "rho": rho, "rho^T_B": partial_transpose(rho),
             "rho_A": partial_trace(rho, "A"), "rho_B": partial_trace(rho, "B")}
    for kind, m in built.items():
        assert m.dtype == np.float64, kind


def test_eigensystem_tensor_and_chsh_bits_do_not_depend_on_numpy_simd_dispatch(simd_digests):
    # the Jacobi rotations, the correlation table and the real CHSH operators do no complex product,
    # and must not notice
    default, reduced = simd_digests
    if default["complex_product"] == reduced["complex_product"]:
        pytest.skip("NPY_DISABLE_CPU_FEATURES does not change numpy's complex product on this host")
    assert default["brute_states"] == "110"
    for name in ("eigenvalues", "correlation_tensor", "chsh_value", "b_brute_system", "b_brute_free"):
        assert reduced[name] == default[name], name


# Entries of the symmetric stacks, from five classes.  Three lie in [-1e3, 1e3]: uniform, whole numbers from
# -8 to 8, which repeat, and uniform ones scaled by 2^-k, k = 0..1074, so that every magnitude down to the
# subnormals occurs.  Two straddle the smallest normal float, so that pivots below it (skipped) and just above it
# (rotated, with tau past 1e154 or overflowing) meet ordinary ones in the same stack: 0, -0, the least and the
# largest subnormal, tiny and 2 tiny of either sign, or uniform on [-2 tiny, 2 tiny].
_STRADDLE_TINY = (0.0, -0.0, 5e-324, -5e-324, np.nextafter(_TINY, 0.0), -np.nextafter(_TINY, 0.0),
                  _TINY, -_TINY, 2 * _TINY, -2 * _TINY)
STACK_ENTRIES = (
    lambda rng, size: rng.uniform(-1e3, 1e3, size),
    lambda rng, size: rng.integers(-8, 9, size).astype(float),
    lambda rng, size: rng.uniform(-1e3, 1e3, size) * 2.0 ** -rng.integers(0, 1075, size),
    lambda rng, size: rng.choice(_STRADDLE_TINY, size),
    lambda rng, size: rng.uniform(-2 * _TINY, 2 * _TINY, size),
)


def symmetric_stack(rng):
    """1 to 8 symmetric n x n matrices, n = 2..16, one n for the whole stack."""
    n, batch = rng.integers(2, 17), rng.integers(1, 9)
    g = mixed(rng, (batch, n, n), STACK_ENTRIES)
    return (g + g.swapaxes(-1, -2)) / 2


def assert_matches_lapack(values, m):
    """Eigenvalues of one symmetric matrix against LAPACK's, within the solver's tolerance."""
    # LAPACK loses accuracy on entries whose squares are subnormal (one eigenvalue of 2.5 came back as
    # 2.49999999), so the reference solves m with every entry below sqrt(tiny) set to 0.  By Weyl's
    # inequality that moves each eigenvalue by at most n sqrt(tiny), about 1.5e-154 n.
    scale = max(1.0, float(np.max(np.abs(m))))
    ref = np.sort(np.linalg.eigvalsh(np.where(np.abs(m) < math.sqrt(_TINY), 0.0, m)))[::-1]
    assert np.max(np.abs(values - ref)) < 1e-10 * scale


def test_lapack_reference_on_a_pivot_among_entries_whose_squares_are_subnormal():
    # eigvalsh of this matrix as it is missed +-27.5 by 6.5e-9, and by 2.1e-8 scaled by 2^600
    m = np.full((4, 4), 9.594591049778737e-157)
    m[0, 1] = m[1, 0] = 27.5
    values = hermitian_eigenvalues(m)
    assert (values[0], values[-1]) == (27.5, -27.5)
    assert_matches_lapack(values, m)


@pytest.mark.parametrize("seed", range(60))
def test_stacked_eigensystem_equals_per_matrix_calls(seed):
    m = symmetric_stack(np.random.default_rng(seed))
    values = hermitian_eigenvalues(m)
    for k in range(m.shape[0]):
        assert np.array_equal(values[k], hermitian_eigenvalues(m[k]))
        assert_matches_lapack(values[k], m[k])


@pytest.mark.parametrize("seed", range(60, 90))
def test_stacked_eigensystem_rejects_one_bad_member(seed):
    rng = np.random.default_rng(seed)
    bad = symmetric_stack(rng)
    k = rng.integers(bad.shape[0])
    if rng.random() < 0.5:
        bad[k, 0, -1] += 1.0  # breaks Hermiticity of member k only
    else:
        bad[k, -1, 0] = rng.choice([np.nan, np.inf, -np.inf])
    with pytest.raises(ValueError):
        hermitian_eigenvalues(bad)


def test_stack_of_one_by_one_matrices():
    # no pivot at all: the stop test's sum must still be one value per matrix
    values = hermitian_eigenvalues(np.arange(3.0).reshape(3, 1, 1))
    assert np.array_equal(values, [[0.0], [1.0], [2.0]])


def test_stop_test_adds_left_to_right_in_the_one_matrix_loop_too():
    # From Python 3.12 on, sum() of floats is compensated, while the stacked loop adds
    # plainly.  This matrix's off-diagonal norm reaches the tolerance after plain adds
    # and stays below it after exact ones, so a compensated stop test would return the
    # diagonal at once where the stack rotates.
    m = np.diag([4e-15, 3e-15, 2e-15, 1e-15])
    upper = np.triu_indices(4, 1)  # the pivots, in the order a sweep visits them
    m[upper] = [2.6018749501803057e-15, 2.061367386746972e-15, 3.4925632294998443e-15,
                3.4543659706797114e-15, 2.7655309005433244e-15, 2.683692960674869e-15]
    m += np.triu(m, 1).T
    plain = 0.0
    for x in m[upper]:
        plain += x * x
    assert math.sqrt(2.0 * plain) >= JACOBI_OFFDIAG_TOL > math.sqrt(2.0 * math.fsum(m[upper] ** 2))
    single = hermitian_eigenvalues(m)
    assert not np.array_equal(single, np.sort(np.diag(m))[::-1])  # a sweep ran
    assert single.tobytes() == hermitian_eigenvalues(np.stack([m, np.eye(4)]))[0].tobytes()


@pytest.mark.parametrize("stack", [(1,), (1, 1)])
def test_one_matrix_in_a_stack_runs_the_one_matrix_loop(stack, monkeypatch):
    m = random_symmetric(np.random.default_rng(5), 4)
    single = hermitian_eigenvalues(m)

    def refuse(a):
        raise AssertionError(f"one matrix reached the stacked loop as a {a.shape} stack")

    monkeypatch.setattr(linalg, "_stacked_jacobi", refuse)
    values = hermitian_eigenvalues(m.reshape(stack + m.shape))
    assert values.shape == stack + (4,) and values.tobytes() == single.tobytes()


@pytest.mark.parametrize("count", [None, 3])
def test_a_stack_runs_the_stacked_loop_once_on_all_its_matrices(count, monkeypatch):
    # one (4, 4) matrix runs no stacked loop at all, a (3, 4, 4) stack runs it once, on the whole stack
    rng = np.random.default_rng(6)
    m = random_symmetric(rng, 4) if count is None else np.stack([random_symmetric(rng, 4) for _ in range(count)])
    singles = [hermitian_eigenvalues(x) for x in m.reshape(-1, 4, 4)]
    calls, stacked = [], linalg._stacked_jacobi
    monkeypatch.setattr(linalg, "_stacked_jacobi", lambda a: calls.append(a.shape) or stacked(a))
    values = hermitian_eigenvalues(m)
    assert calls == ([] if count is None else [(3, 4, 4)])
    assert values.shape == m.shape[:-1] and values.tobytes() == np.stack(singles).reshape(values.shape).tobytes()


def test_stacked_eigensystem_reports_non_convergence(monkeypatch):
    # the stacked loop, and the one-matrix loop on SIGMA_X alone
    m = np.stack([np.diag([1.0, 2.0]), SIGMA_X])
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    for matrix in (m, SIGMA_X):
        with pytest.raises(ArithmeticError, match="failed to converge in 0 sweeps"):
            hermitian_eigenvalues(matrix)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    assert np.array_equal(hermitian_eigenvalues(m), [[2.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(hermitian_eigenvalues(SIGMA_X), [1.0, -1.0])


@pytest.mark.parametrize("pivot", [1e-309, -4e-309, 5e-324])
def test_subnormal_pivot_gives_finite_eigenvalues(pivot):
    # a pivot below the smallest normal float is skipped by both loops
    m = np.array([[1.0, pivot, 0.5], [pivot, 2.0, 0.3], [0.5, 0.3, 3.0]])
    ref = np.sort(np.linalg.eigvalsh(m))[::-1]
    single = hermitian_eigenvalues(m)
    stacked = hermitian_eigenvalues(np.stack([m, np.diag([1.0, 2.0, 3.0])]))
    assert np.max(np.abs(single - ref)) < 1e-12
    assert np.array_equal(stacked[0], single)
    assert np.array_equal(stacked[1], [3.0, 2.0, 1.0])


@pytest.mark.parametrize(
    "pivot, a11",
    [(1e-200, 0.0), (-3e-250, 0.0), (2e-300, 0.0), (1e-300, 1e10)],
    ids=["1e-200", "-3e-250", "2e-300", "1e-300-gap-1e10"],
)
def test_huge_tau_rotates_without_overflow(pivot, a11):
    # tau = (a_qq - a_pp) / (2|z|) lies past 1e154 here, where tau * tau overflows;
    # with a gap of 1e10 over a pivot of 1e-300 the quotient itself overflows.
    m = np.array([[1.0, pivot, 0.5], [pivot, a11, 0.3], [0.5, 0.3, 3.0]])
    ref = np.sort(np.linalg.eigvalsh(m))[::-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = hermitian_eigenvalues(m)
        stacked = hermitian_eigenvalues(np.stack([m, np.diag([1.0, 2.0, 3.0])]))
    assert np.max(np.abs(single - ref)) < 1e-12 * np.max(np.abs(m))
    assert np.array_equal(stacked[0], single)
    assert np.array_equal(stacked[1], [3.0, 2.0, 1.0])


def reference_jacobi(a):
    """The real symmetric cyclic Jacobi over a stack (N, n, n) of exactly symmetric matrices, written plainly.

    It keeps converged matrices in the stack behind a mask, rotates whole
    columns and then whole rows, and sums the stop test's squares pivot by
    pivot in the order a sweep visits them.
    """
    a = np.array(a, dtype=float)
    assert np.array_equal(a, a.swapaxes(-1, -2))
    n = a.shape[-1]
    diag, pivots = np.arange(n), [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    live = np.ones(a.shape[0], dtype=bool)
    sweeps = 0
    while True:
        off = np.zeros(a.shape[0])
        for p, q in pivots:
            off = off + a[:, p, q] * a[:, p, q]
        live &= np.sqrt(2.0 * off) >= JACOBI_OFFDIAG_TOL
        if not live.any():
            break
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ArithmeticError("no convergence")
        for p, q in pivots:
            h = np.abs(a[:, p, q])
            idx = np.flatnonzero(live & (h >= _TINY))
            if idx.size == 0:
                continue
            h, sign = h[idx], a[idx, p, q] / h[idx]
            app, aqq = a[idx, p, p], a[idx, q, q]
            with np.errstate(over="ignore"):  # tau and |tau| + root may reach inf
                tau = (aqq - app) / (2.0 * h)
                tame = np.minimum(np.abs(tau), _TAU_HUGE)
                root = np.where(np.abs(tau) > _TAU_HUGE, np.abs(tau), np.sqrt(1.0 + tame * tame))
                t = np.where(tau != 0.0, np.sign(tau) / (np.abs(tau) + root), 1.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            cc, sc, sign = c[:, None], (t * c)[:, None], sign[:, None]
            x, w = a[idx, :, p], sign * a[idx, :, q]
            a[idx, :, p], a[idx, :, q] = cc * x - sc * w, sc * x + cc * w
            x, w = a[idx, p, :], sign * a[idx, q, :]
            a[idx, p, :], a[idx, q, :] = cc * x - sc * w, sc * x + cc * w
            a[idx, p, p], a[idx, q, q] = app - t * h, aqq + t * h
            a[idx, p, q] = a[idx, q, p] = 0.0
        sweeps += 1
    values = a[:, diag, diag]
    return np.take_along_axis(values, np.argsort(values, axis=-1)[:, ::-1], axis=-1)


@pytest.mark.parametrize("seed", range(90, 150))
def test_real_stacks_and_their_members_equal_the_reference_loop_bit_for_bit(seed):
    m = symmetric_stack(np.random.default_rng(seed))
    expected = reference_jacobi(m).tobytes()
    assert hermitian_eigenvalues(m).tobytes() == expected
    assert b"".join(hermitian_eigenvalues(member).tobytes() for member in m) == expected


def test_real_stack_converging_at_different_sweeps_with_skipped_pivots(monkeypatch):
    rng = np.random.default_rng(8)
    dense = random_symmetric(rng, 4)
    blocks = np.zeros((4, 4))  # pivots (0,2), (0,3), (1,2) and (1,3) stay exactly 0
    blocks[:2, :2] = random_symmetric(rng, 2)
    blocks[2:, 2:] = random_symmetric(rng, 2)
    diagonal = np.diag([0.5, -1.0, 2.0, 0.0])
    stack = np.stack([dense, blocks, diagonal, dense[::-1, ::-1]])
    # diagonal needs no sweep, blocks one, the dense members several
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
        hermitian_eigenvalues(stack[2:3])
        with pytest.raises(ArithmeticError):
            hermitian_eigenvalues(stack[1:3])
        patch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        hermitian_eigenvalues(stack[1:3])
        with pytest.raises(ArithmeticError):
            hermitian_eigenvalues(stack)
    values = hermitian_eigenvalues(stack)
    assert values.tobytes() == reference_jacobi(stack).tobytes()
    for k in range(stack.shape[0]):
        assert values[k].tobytes() == hermitian_eigenvalues(stack[k]).tobytes()
