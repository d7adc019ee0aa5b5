import importlib.util
import math
import os
import subprocess
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
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
)
from qdl.analysis import analyze
from qdl.bell import _PAULI_KRON, correlation_tensor
from qdl.figures import FIGURES, write_figure_csv
from qdl.states import Scenario, ScenarioParams, _checked_norms
from qdl.verify import _AXES, run_suites

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


# _PAULI_KRON[i, j] is the Kronecker product sigma_i (x) sigma_j the correlation tensor reads.


def test_kron_diagonal():
    assert np.allclose(_PAULI_KRON[2, 2], np.diag([1, -1, -1, 1]))


def test_kron_xy_corner():
    # hand expansion: block (0,1) of sigma_x (x) sigma_y is sigma_y, entry [0,1] = -i
    assert _PAULI_KRON[0, 1][0, 3] == pytest.approx(-1j)


def test_kron_mixed_product_identity():
    # (a x b)(c x d) = (ac) x (bd) over every pair of Pauli products
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    for i, j, k, l in np.ndindex(3, 3, 3, 3):
        lhs = _PAULI_KRON[i, j] @ _PAULI_KRON[k, l]
        rhs = np.kron(paulis[i] @ paulis[k], paulis[j] @ paulis[l])
        assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_eigenvalues_pauli():
    assert np.allclose(hermitian_eigenvalues(SIGMA_X), [1, -1])


def test_eigenvalues_scalar_matrix():
    assert np.allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4)


def test_eigenvalues_bell_partial_transpose():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    spec = hermitian_eigenvalues(partial_transpose(rho))
    assert np.allclose(spec, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_eigenvalues_match_lapack_oracle():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 8, 16):
        for _ in range(10):
            m = random_hermitian(rng, n)
            ours = hermitian_eigenvalues(m)
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.max(np.abs(ours - ref)) < 1e-10


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_hermitian(rng, 4)
        assert abs(np.sum(hermitian_eigenvalues(m)) - np.trace(m).real) < 1e-10


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_eigenvalues_reject_empty_matrices(shape):
    with pytest.raises(ValueError, match="n >= 1"):
        hermitian_eigenvalues(np.zeros(shape))


def test_partial_trace_maximally_entangled():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    assert np.allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    rho = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)  # |up>_A |down>_B
    assert np.allclose(partial_trace(rho, "A"), np.diag([1.0, 0.0]), atol=1e-14)
    assert np.allclose(partial_trace(rho, "B"), np.diag([0.0, 1.0]), atol=1e-14)


def test_partial_trace_bad_label():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    # one factor, named "A" or "B": no tuple of labels, no axis index, no keep-both
    for keep in (("A", "E"), ("A", "A"), (0, "A"), (2,), (), ("A",), ("A", "B"), 0, "C"):
        with pytest.raises(ValueError):
            partial_trace(rho, keep)


def test_partial_trace_of_pure_state_is_density_matrix():
    rng = np.random.default_rng(3)
    for _ in range(20):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        rho = np.outer(amps, amps.conj())
        spectra = []
        for keep in ("A", "B"):
            reduced = partial_trace(rho, keep)
            assert np.max(np.abs(reduced - reduced.conj().T)) < 1e-15
            assert abs(np.trace(reduced) - 1.0) < 1e-12
            spectra.append(hermitian_eigenvalues(reduced))
            assert spectra[-1][-1] >= -1e-10
        assert np.max(np.abs(spectra[0] - spectra[1])) < 1e-12  # Schmidt: both halves share a spectrum


def test_partial_transpose_product_state():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 2)
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = random_hermitian(rng, 2)
    b = b @ b.conj().T
    b /= np.trace(b).real
    rho = np.kron(a, b)
    assert np.allclose(partial_transpose(rho), np.kron(a, b.T), atol=1e-14)
    spec = hermitian_eigenvalues(partial_transpose(rho))
    assert spec[-1] > -1e-12


def test_partial_transpose_involution_and_structure():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        pt = partial_transpose(rho)
        assert np.array_equal(partial_transpose(pt), rho)  # bit-exact involution
        assert abs(np.trace(pt) - np.trace(rho)) == 0.0
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-15


def test_partial_transpose_of_a_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
    pt = partial_transpose(stack)
    assert pt.shape == stack.shape
    for index in np.ndindex(stack.shape[:2]):
        assert np.array_equal(pt[index], partial_transpose(stack[index]))


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


def test_partial_trace_and_transpose_keep_the_input_kind():
    rng = np.random.default_rng(6)
    rho = random_hermitian(rng, 4)
    assert rho.imag.any()
    for m, kind in ((rho, np.complex128), (rho.real, np.float64), (np.eye(4, dtype=int), np.float64)):
        pt = partial_transpose(m)
        assert pt.dtype == kind
        assert np.array_equal(pt, m.reshape(2, 2, 2, 2).swapaxes(1, 3).reshape(4, 4))
        for keep, subscripts in (("A", "ikjk->ij"), ("B", "kikj->ij")):
            reduced = partial_trace(m, keep)
            assert reduced.dtype == kind
            assert np.array_equal(reduced, np.einsum(subscripts, m.reshape(2, 2, 2, 2)))


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


@pytest.mark.parametrize("scenario", list(_AXES), ids=lambda s: s.value)
def test_every_state_marginal_and_partial_transpose_the_package_builds_is_real(scenario):
    # the isometries are real, so the package solves every one of these on the real loop as it is
    axes = _AXES[scenario]
    knobs = dict(zip(axes, (a.ravel() for a in np.meshgrid(*[GRID_41] * len(axes), indexing="ij"))))
    rho = states.scenario_densities(scenario, **knobs)
    built = {"psi": states.scenario_amplitudes(scenario, **knobs), "rho": rho, "rho^T_B": partial_transpose(rho),
             "rho_A": partial_trace(rho, "A"), "rho_B": partial_trace(rho, "B")}
    for kind, m in built.items():
        assert m.dtype == np.float64, kind


def test_no_complex_matrix_reaches_the_eigensolver(monkeypatch, tmp_path):
    # the package's own matrices are float64: none takes the complex route, let alone the 2n x 2n embedding
    solve, shapes = linalg.hermitian_eigensystem, []

    def real_only(m):
        assert not np.iscomplexobj(m), f"a complex {np.shape(m)} matrix sent to the eigensolver"
        shapes.append(np.shape(m))
        return solve(m)

    monkeypatch.setattr(linalg, "hermitian_eigensystem", real_only)
    assert all(result.passed for result in run_suites(resolution=3))
    for n in FIGURES:
        write_figure_csv(n, 11, str(tmp_path / f"fig{n}.csv"))
    edges = {
        Scenario.FREE: ScenarioParams(r=1.0, d=1.0),
        Scenario.SYSTEM: ScenarioParams(d=1.0, r_s=0.0),
        Scenario.METER: ScenarioParams(d=0.0, r_m=1.0),
        Scenario.COMBINED: ScenarioParams(d=1.0, r_s=1.0, r_m=0.0),
    }
    for scenario, params in edges.items():
        analyze(scenario, params)
    assert (4, 4) in shapes and (2, 2) in shapes and (3, 3) in shapes  # rho and rho^T_B, marginals, T^T T


# Prints a digest of one numpy complex product, then the eigenvalue bytes
# of a fixed stack and of each of its members alone.
_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from qdl.linalg import hermitian_eigenvalues, partial_transpose
rng = np.random.default_rng(17)
g = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
print(hashlib.sha256((g[0] * g[1]).tobytes()).hexdigest())
psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
bell = 0.7 * np.outer(psi, psi) + 0.3 * np.eye(4) / 4
stack = np.concatenate([(g + g.conj().swapaxes(-1, -2)) / 2, partial_transpose(bell)[None]])
for m in (stack, *stack):
    print(hashlib.sha256(hermitian_eigenvalues(m).tobytes()).hexdigest())
"""


def eigen_digests(disabled_features):
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if disabled_features:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled_features
    src = str(Path(linalg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_eigensystem_bits_do_not_depend_on_numpy_simd_dispatch():
    # numpy fuses the multiply-add of a complex product under AVX2 (X86_V3)
    # dispatch and not without it; the Jacobi rotations must not notice.
    default, reduced = eigen_digests(None), eigen_digests("X86_V4 X86_V3")
    if default[0] == reduced[0]:
        pytest.skip("NPY_DISABLE_CPU_FEATURES does not change numpy's complex product on this host")
    assert len(default) == 9
    assert reduced[1:] == default[1:]


hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
hnp = pytest.importorskip("hypothesis.extra.numpy")


@st.composite
def hermitian_stacks(draw, parts=2, max_n=16):
    n = draw(st.integers(2, max_n))
    batch = draw(st.integers(1, 8))
    # Half the entries straddle the smallest normal float, so that pivots below
    # it (skipped) and just above it (rotated, with tau past 1e154 or overflowing)
    # meet ordinary ones in the same stack.
    entries = st.floats(-1e3, 1e3) | st.floats(-2 * _TINY, 2 * _TINY)
    re, *im = draw(hnp.arrays(np.float64, (parts, batch, n, n), elements=entries))
    g = re + 1j * im[0] if im else re
    return (g + g.conj().swapaxes(-1, -2)) / 2


@st.composite
def mixed_stacks(draw):
    """Hermitian stacks in which some members have an all-zero imaginary part, n <= 8 (embedded, 16)."""
    m = draw(hermitian_stacks(max_n=8))
    real = draw(hnp.arrays(bool, m.shape[0]))
    return np.where(real[:, None, None], m.real, m)


def assert_matches_lapack(values, m):
    """Eigenvalues of one Hermitian matrix against LAPACK's, within the solver's tolerance."""
    # LAPACK loses accuracy on subnormal entries (one eigenvalue of 2.5 came
    # back as 2.49999999); scaling by 2**600 is exact here and makes them normal.
    # Scaled, it strays elsewhere: 0.5 came back as 0.499999 from a zero-diagonal
    # matrix with a 2.4e-160 pivot next to 0.5j, which it solves unscaled.  Both
    # solve the same spectrum, so the nearer of the two is the reference.
    scale = max(1.0, float(np.max(np.abs(m))))
    refs = [np.sort(np.linalg.eigvalsh(m * s))[::-1] / s for s in (1.0, 2.0**600)]
    assert min(np.max(np.abs(values - ref)) for ref in refs) < 1e-10 * scale


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(hermitian_stacks())
def test_stacked_eigensystem_equals_per_matrix_calls(m):
    values = hermitian_eigenvalues(m)
    for k in range(m.shape[0]):
        assert np.array_equal(values[k], hermitian_eigenvalues(m[k]))
        assert_matches_lapack(values[k], m[k])


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(hermitian_stacks(), st.data())
def test_stacked_eigensystem_rejects_one_bad_member(m, data):
    k = data.draw(st.integers(0, m.shape[0] - 1))
    bad = m.copy()
    if data.draw(st.booleans()):
        bad[k, 0, -1] += 1.0  # breaks Hermiticity of member k only
    else:
        bad[k, -1, 0] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
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
@pytest.mark.parametrize("kind", [float, complex])
def test_one_matrix_in_a_stack_runs_the_one_matrix_loop(stack, kind, monkeypatch):
    m = random_hermitian(np.random.default_rng(5), 4)
    m = m.real if kind is float else m
    single = hermitian_eigenvalues(m)

    def refuse(a):
        raise AssertionError(f"one matrix reached the stacked loop as a {a.shape} stack")

    monkeypatch.setattr(linalg, "_stacked_jacobi", refuse)
    values = hermitian_eigenvalues(m.reshape(stack + m.shape))
    assert values.shape == stack + (4,) and values.tobytes() == single.tobytes()


@pytest.mark.parametrize("count", [None, 3])
def test_all_complex_input_leaves_the_stacked_loop_no_real_stack(count, monkeypatch):
    # every matrix goes through its embedding: one (4, 4) matrix runs no stacked loop at all,
    # a (3, 4, 4) stack runs it once, on its (3, 8, 8) embeddings and not on an empty real stack
    rng = np.random.default_rng(6)
    m = random_hermitian(rng, 4) if count is None else np.stack([random_hermitian(rng, 4) for _ in range(count)])
    singles = [hermitian_eigenvalues(x) for x in m.reshape(-1, 4, 4)]
    calls, stacked = [], linalg._stacked_jacobi
    monkeypatch.setattr(linalg, "_stacked_jacobi", lambda a: calls.append(a.shape) or stacked(a))
    values = hermitian_eigenvalues(m)
    assert calls == ([] if count is None else [(3, 8, 8)])
    assert values.shape == m.shape[:-1] and values.tobytes() == np.stack(singles).reshape(values.shape).tobytes()


def test_stacked_eigensystem_reports_non_convergence(monkeypatch):
    m = np.stack([np.diag([1.0, 2.0]), SIGMA_X]).astype(complex)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ArithmeticError):
        hermitian_eigenvalues(m)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    assert np.array_equal(hermitian_eigenvalues(m), [[2.0, 1.0], [1.0, -1.0]])


@pytest.mark.parametrize("pivot", [1e-309, -4e-309, 5e-324, 1e-309j])
def test_subnormal_pivot_gives_finite_eigenvalues(pivot):
    # a pivot below the smallest normal float is skipped by both loops, in the real part or, embedded, the imaginary
    m = np.array([[1.0, pivot, 0.5], [np.conj(pivot), 2.0, 0.3], [0.5, 0.3, 3.0]], dtype=complex)
    ref = np.sort(np.linalg.eigvalsh(m))[::-1]
    single = hermitian_eigenvalues(m)
    stacked = hermitian_eigenvalues(np.stack([m, np.diag([1.0, 2.0, 3.0])]))
    assert np.max(np.abs(single - ref)) < 1e-12
    assert np.array_equal(stacked[0], single)
    assert np.array_equal(stacked[1], [3.0, 2.0, 1.0])


@pytest.mark.parametrize(
    "pivot, a11",
    [(1e-200, 0.0), (-3e-250j, 0.0), (2e-300, 0.0), (1e-300, 1e10)],
    ids=["1e-200", "(-0-3e-250j)", "2e-300", "1e-300-gap-1e10"],
)
def test_huge_tau_rotates_without_overflow(pivot, a11):
    # tau = (a_qq - a_pp) / (2|z|) lies past 1e154 here, where tau * tau overflows;
    # with a gap of 1e10 over a pivot of 1e-300 the quotient itself overflows.
    m = np.array([[1.0, pivot, 0.5], [np.conj(pivot), a11, 0.3], [0.5, 0.3, 3.0]], dtype=complex)
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


def reference_values(m):
    """``reference_jacobi`` on each member of a Hermitian stack as the solver routes it.

    The members are symmetrised as the solver does it, signed zeros included;
    a member whose imaginary part is then all zero is solved as it is, any
    other through its real embedding [[A, -B], [B, A]], taking every second
    value of the doubled spectrum.
    """
    h = ((m + m.conj().swapaxes(-1, -2)) / 2.0).reshape((-1,) + m.shape[-2:])
    embed = h.imag.any(axis=(-2, -1))
    values = np.empty(h.shape[:-1])
    values[~embed] = reference_jacobi(h.real[~embed])
    b = h[embed]
    values[embed] = reference_jacobi(np.block([[b.real, -b.imag], [b.imag, b.real]]))[:, ::2]
    return values.reshape(m.shape[:-1])


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(hermitian_stacks(parts=1))  # real symmetric
def test_real_stacks_and_their_members_equal_the_reference_loop_bit_for_bit(m):
    expected = reference_jacobi(m).tobytes()
    assert hermitian_eigenvalues(m).tobytes() == expected
    assert b"".join(hermitian_eigenvalues(member).tobytes() for member in m) == expected


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(mixed_stacks())
def test_complex_and_mixed_stacks_equal_the_embedded_reference_and_their_members(m):
    values = hermitian_eigenvalues(m)
    assert values.tobytes() == reference_values(m).tobytes()
    for k in range(m.shape[0]):
        assert values[k].tobytes() == hermitian_eigenvalues(m[k]).tobytes()
        assert_matches_lapack(values[k], m[k])


def test_real_stack_converging_at_different_sweeps_with_skipped_pivots(monkeypatch):
    rng = np.random.default_rng(8)
    dense = random_hermitian(rng, 4).real
    blocks = np.zeros((4, 4))  # pivots (0,2), (0,3), (1,2) and (1,3) stay exactly 0
    blocks[:2, :2] = random_hermitian(rng, 2).real
    blocks[2:, 2:] = random_hermitian(rng, 2).real
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
