import importlib.util
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
    HERMITICITY_TOL,
    JACOBI_MAX_SWEEPS,
    JACOBI_OFFDIAG_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
)
from qdl.bell import _PAULI_KRON, correlation_tensor
from qdl.states import _checked_norms

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
    states = np.array([[1.0, 0.0], [0.6, 0.8j]])
    assert _checked_norms(states) is states
    with pytest.raises(ValueError):
        _checked_norms(np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_norm_guard_counts_the_real_and_imaginary_parts():
    unit = np.array([[0.6, 0.8j], [0.6j, -0.8], [0.36 + 0.48j, 0.48 - 0.64j]])
    assert _checked_norms(unit) is unit
    strided = unit.T.copy().T  # a stack that is not C-contiguous
    assert _checked_norms(strided) is strided
    with pytest.raises(ValueError, match="not 1 within 1e-12"):
        _checked_norms(unit * (1.0 + 2e-12))
    with pytest.raises(ValueError, match="not 1 within 1e-12"):
        _checked_norms(np.array([[0.6 + 1e-5j, 0.8]]))  # unit norm in the real parts alone
    with pytest.raises(ValueError, match="not 1 within 1e-12"):
        _checked_norms(np.array([[0.6, 0.0]]))  # 0.8j would make it a unit vector


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
def hermitian_stacks(draw):
    n = draw(st.integers(2, 16))
    batch = draw(st.integers(1, 8))
    # Half the entries straddle the smallest normal float, so that pivots below
    # it (skipped) and just above it (rotated, with tau past 1e154 or overflowing)
    # meet ordinary ones in the same stack.
    entries = st.floats(-1e3, 1e3) | st.floats(-2 * _TINY, 2 * _TINY)
    parts = hnp.arrays(np.float64, (2, batch, n, n), elements=entries)
    re, im = draw(parts)
    g = re + 1j * im
    return (g + g.conj().swapaxes(-1, -2)) / 2


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(hermitian_stacks())
def test_stacked_eigensystem_equals_per_matrix_calls(m):
    values = hermitian_eigenvalues(m)
    scale = max(1.0, float(np.max(np.abs(m))))
    for k in range(m.shape[0]):
        assert np.array_equal(values[k], hermitian_eigenvalues(m[k]))
        # LAPACK loses accuracy on subnormal entries (one eigenvalue of 2.5 came
        # back as 2.49999999); scaling by 2**600 is exact here and makes them normal.
        # Scaled, it strays elsewhere: 0.5 came back as 0.499999 from a zero-diagonal
        # matrix with a 2.4e-160 pivot next to 0.5j, which it solves unscaled.  Both
        # solve the same spectrum, so the nearer of the two is the reference.
        refs = [np.sort(np.linalg.eigvalsh(m[k] * s))[::-1] / s for s in (1.0, 2.0**600)]
        assert min(np.max(np.abs(values[k] - ref)) for ref in refs) < 1e-10 * scale


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


def test_stacked_eigensystem_reports_non_convergence(monkeypatch):
    m = np.stack([np.diag([1.0, 2.0]), SIGMA_X]).astype(complex)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ArithmeticError):
        hermitian_eigenvalues(m)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    assert np.array_equal(hermitian_eigenvalues(m), [[2.0, 1.0], [1.0, -1.0]])


@pytest.mark.parametrize("pivot", [1e-309, -4e-309, 5e-324, 1e-309j])
def test_subnormal_pivot_gives_finite_eigenvalues(pivot):
    # 1/|z| overflows below about 5.6e-309: both loops must skip such a pivot, not rotate it.
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


def rotated(c, s, pr, pi, x, y):
    """(c x - s w, s x + c w) with w = (pr + i pi) y, in float arithmetic only, part by part."""
    wr, wi = pr * y.real - pi * y.imag, pr * y.imag + pi * y.real
    parts = (c * x.real - s * wr, c * x.imag - s * wi), (s * x.real + c * wr, s * x.imag + c * wi)
    out = np.empty((2,) + x.shape, dtype=complex)
    for k, (re, im) in enumerate(parts):
        out[k].real, out[k].imag = re, im
    return out


def reference_jacobi(m, offdiag_tol=JACOBI_OFFDIAG_TOL, max_sweeps=JACOBI_MAX_SWEEPS):
    """The stacked Jacobi as first written, for one matrix or a stack.

    It rotates the rows on their own after the columns, with the conjugate
    phase, keeps converged matrices in the stack behind a mask and updates
    whole columns.  Its products are float ones on the real and imaginary
    parts, never numpy complex products.
    """
    single = np.ndim(m) == 2
    a = np.array(m, dtype=complex).reshape((-1,) + np.shape(m)[-2:])
    n = a.shape[-1]
    assert np.max(np.abs(a - a.conj().swapaxes(-1, -2))) < HERMITICITY_TOL
    a = (a + a.conj().swapaxes(-1, -2)) / 2.0
    diag = np.arange(n)
    live = np.ones(a.shape[0], dtype=bool)
    sweeps = 0
    while True:
        off = a.copy()
        off[:, diag, diag] = 0.0
        live &= np.sqrt(np.sum(off.real**2 + off.imag**2, axis=(-2, -1))) >= offdiag_tol
        if not live.any():
            break
        if sweeps >= max_sweeps:
            raise ArithmeticError("no convergence")
        for p in range(n - 1):
            for q in range(p + 1, n):
                h = np.hypot(a[:, p, q].real, a[:, p, q].imag)
                idx = np.flatnonzero(live & (h >= _TINY))
                if idx.size == 0:
                    continue
                h = h[idx]
                pr, pi = a[idx, p, q].real / h, -a[idx, p, q].imag / h
                app, aqq = a[idx, p, p].real, a[idx, q, q].real
                with np.errstate(over="ignore"):  # tau and |tau| + root may reach inf
                    tau = (aqq - app) / (2.0 * h)
                    tame = np.minimum(np.abs(tau), _TAU_HUGE)
                    root = np.where(np.abs(tau) > _TAU_HUGE, np.abs(tau), np.sqrt(1.0 + tame * tame))
                    t = np.where(tau != 0.0, np.sign(tau) / (np.abs(tau) + root), 1.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                cc, sc, pr, pi = c[:, None], s[:, None], pr[:, None], pi[:, None]
                a[idx, :, p], a[idx, :, q] = rotated(cc, sc, pr, pi, a[idx, :, p], a[idx, :, q])
                a[idx, p, :], a[idx, q, :] = rotated(cc, sc, pr, -pi, a[idx, p, :], a[idx, q, :])
                a[idx, p, p] = app - t * h
                a[idx, q, q] = aqq + t * h
                a[idx, p, q] = 0.0
                a[idx, q, p] = 0.0
        sweeps += 1
    values = np.real(a[:, diag, diag])
    order = np.argsort(values, axis=-1)[:, ::-1]
    values = np.take_along_axis(values, order, axis=-1)
    return values[0] if single else values


def assert_same_as_reference(m):
    """The eigenvalues against ``reference_jacobi``, bit for bit."""
    assert hermitian_eigenvalues(m).tobytes() == reference_jacobi(m).tobytes()


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(hermitian_stacks())
def test_eigensystem_and_eigenvalues_equal_the_reference_loop_bit_for_bit(m):
    assert_same_as_reference(m)
    assert_same_as_reference(m[0])


def test_stack_converging_at_different_sweeps_with_skipped_pivots(monkeypatch):
    rng = np.random.default_rng(8)
    dense = random_hermitian(rng, 4)
    blocks = np.zeros((4, 4), dtype=complex)  # pivots (0,2), (0,3), (1,2) and (1,3) stay exactly 0
    blocks[:2, :2] = random_hermitian(rng, 2)
    blocks[2:, 2:] = random_hermitian(rng, 2)
    diagonal = np.diag([0.5, -1.0, 2.0, 0.0]).astype(complex)
    stack = np.stack([dense, blocks, diagonal, dense.conj()])
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
    assert_same_as_reference(stack)
    values = hermitian_eigenvalues(stack)
    for k in range(stack.shape[0]):
        assert np.array_equal(values[k], hermitian_eigenvalues(stack[k]))
