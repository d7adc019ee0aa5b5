import warnings

import numpy as np
import pytest

from qdl.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PureState,
    check_density_matrix,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
)

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def test_kron_diagonal():
    assert np.allclose(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))


def test_kron_identity():
    assert np.allclose(kron(IDENTITY_2, IDENTITY_2), np.eye(4))


def test_kron_xy_corner():
    # hand expansion: block (0,1) of sigma_x (x) sigma_y is sigma_y, entry [0,1] = -i
    assert kron(SIGMA_X, SIGMA_Y)[0, 3] == pytest.approx(-1j)


def test_kron_dimension_guard():
    with pytest.raises(ValueError):
        kron(np.eye(8), np.eye(4))


def test_kron_rejects_nan():
    bad = np.array([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        kron(bad, IDENTITY_2)


def test_kron_mixed_product_identity():
    # (a x b)(c x d) = (ac) x (bd)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_kron_associative():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-12


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


def test_eigenpairs_reconstruct():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = random_hermitian(rng, 6)
        vals, vecs = hermitian_eigensystem(m)
        for lam, v in zip(vals, vecs.T):
            assert np.linalg.norm(m @ v - lam * v) < 1e-8


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_partial_trace_maximally_entangled():
    state = PureState(PHI_PLUS, ("A", "B"))
    assert np.allclose(partial_trace(state, ("A",)), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0  # |up>_A |down>_B
    state = PureState(amps, ("A", "B"))
    assert np.allclose(partial_trace(state, ("A",)), np.diag([1.0, 0.0]), atol=1e-14)


def test_partial_trace_keeps_everything():
    state = PureState(PHI_PLUS, ("A", "B"))
    rho = partial_trace(state, ("A", "B"))
    assert np.allclose(rho, np.outer(PHI_PLUS, PHI_PLUS.conj()))


def test_partial_trace_bad_label():
    state = PureState(PHI_PLUS, ("A", "B"))
    with pytest.raises(ValueError):
        partial_trace(state, ("A", "E"))


def test_partial_trace_of_pure_state_is_density_matrix():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for _ in range(10):
            amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            amps /= np.linalg.norm(amps)
            state = PureState(amps, tuple(f"q{i}" for i in range(n)))
            rho = partial_trace(state, ("q0", "q1"))
            check_density_matrix(rho)


def test_partial_transpose_product_state():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 2)
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = random_hermitian(rng, 2)
    b = b @ b.conj().T
    b /= np.trace(b).real
    rho = kron(a, b)
    assert np.allclose(partial_transpose(rho), kron(a, b.T), atol=1e-14)
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
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), ("A",))


hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
hnp = pytest.importorskip("hypothesis.extra.numpy")


@st.composite
def hermitian_stacks(draw):
    n = draw(st.integers(2, 16))
    batch = draw(st.integers(1, 8))
    # Entries are 0 or at least 1e-100; subnormal pivots are covered by
    # test_subnormal_pivot_gives_finite_eigenvalues.
    entries = st.floats(-1e3, 1e3).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)
    parts = hnp.arrays(np.float64, (2, batch, n, n), elements=entries)
    re, im = draw(parts)
    g = re + 1j * im
    return (g + g.conj().swapaxes(-1, -2)) / 2


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(hermitian_stacks())
def test_stacked_eigensystem_equals_per_matrix_calls(m):
    values, vectors = hermitian_eigensystem(m)
    scale = max(1.0, float(np.max(np.abs(m))))
    for k in range(m.shape[0]):
        v1, w1 = hermitian_eigensystem(m[k])
        assert np.array_equal(values[k], v1)
        assert np.array_equal(vectors[k], w1)
        ref = np.sort(np.linalg.eigvalsh(m[k]))[::-1]
        assert np.max(np.abs(values[k] - ref)) < 1e-10 * scale


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
        hermitian_eigensystem(bad)


def test_stacked_eigensystem_reports_non_convergence():
    m = np.stack([np.diag([1.0, 2.0]), SIGMA_X]).astype(complex)
    with pytest.raises(ArithmeticError):
        hermitian_eigensystem(m, max_sweeps=0)
    values, _ = hermitian_eigensystem(m, max_sweeps=1)
    assert np.array_equal(values, [[2.0, 1.0], [1.0, -1.0]])


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


@pytest.mark.parametrize("pivot", [1e-200, -3e-250j, 2e-300])
def test_huge_tau_rotates_without_overflow(pivot):
    # tau = (a_qq - a_pp) / (2|z|) lies past 1e154 here, where tau * tau overflows.
    m = np.array([[1.0, pivot, 0.5], [np.conj(pivot), 0.0, 0.3], [0.5, 0.3, 3.0]], dtype=complex)
    ref = np.sort(np.linalg.eigvalsh(m))[::-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = hermitian_eigenvalues(m)
        stacked = hermitian_eigenvalues(np.stack([m, np.diag([1.0, 2.0, 3.0])]))
    assert np.max(np.abs(single - ref)) < 1e-12 * np.max(np.abs(m))
    assert np.array_equal(stacked[0], single)
    assert np.array_equal(stacked[1], [3.0, 2.0, 1.0])
