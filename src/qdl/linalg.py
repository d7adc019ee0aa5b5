"""Dense complex linear algebra for small multi-qubit operators (dims 2..16).

Everything here is a pure function of immutable inputs.  The eigensolver is a
cyclic complex Jacobi iteration, deliberately self-contained so the rest of
the package does not depend on LAPACK behaviour for its contractual results.
It, the density-matrix partial trace and the partial transpose also take
stacks (..., n, n) of matrices, which grid sweeps use to evaluate many
points per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 16

HERMITICITY_TOL = 1e-10
JACOBI_OFFDIAG_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100
_TINY = np.finfo(float).tiny  # smallest normal float
_TAU_HUGE = 1e154  # tau * tau overflows past ~1.3e154; from 2**27 on, sqrt(1 + tau * tau) rounds to |tau|

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

KET_UP = np.array([1, 0], dtype=complex)
KET_DOWN = np.array([0, 1], dtype=complex)


def _as_square(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Complex square matrix with finite entries; ``stack`` also admits (..., n, n)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        what = "a square matrix or a stack (..., n, n)" if stack else "square"
        raise ValueError(f"{name} must be {what}, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains NaN/Inf entries")
    return m


def _float_or_array(x) -> float | np.ndarray:
    """A float for a scalar or 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _libm_pow(x: float | np.ndarray, y: float) -> float | np.ndarray:
    """x ** y element-wise through the C library's pow, which numpy's SIMD pow can differ from in the last bit."""
    return _float_or_array(np.array([v**y for v in np.ravel(x).tolist()], dtype=float).reshape(np.shape(x)))


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i,j) of the result is a[i,j] * b."""
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    if a.shape[0] * b.shape[0] > MAX_DIM:
        raise ValueError(
            f"result dimension {a.shape[0] * b.shape[0]} exceeds supported maximum {MAX_DIM}"
        )
    return np.kron(a, b)


def hermitian_eigensystem(
    m,
    offdiag_tol: float = JACOBI_OFFDIAG_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Cyclic Jacobi with complex plane rotations; a sweep visits every
    off-diagonal pivot once and iteration stops when the off-diagonal
    Frobenius norm drops below ``offdiag_tol``.  Column k of the returned
    vector matrix is the eigenvector for the k-th eigenvalue.

    A stack of shape (..., n, n) returns values (..., n) and vectors
    (..., n, n), solved together by ``_stacked_jacobi``.  A single matrix
    keeps this scalar loop, which is faster for one matrix and is the
    reference the stacked loop is tested against.
    """
    if np.ndim(m) > 2:
        return _stacked_jacobi(_as_square(m, "m", stack=True), offdiag_tol, max_sweeps)
    a = _as_square(m, "m").copy()
    n = a.shape[0]
    dev = np.max(np.abs(a - a.conj().T))
    if dev >= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max |m - m^dag| = {dev:.3e})")
    a = (a + a.conj().T) / 2.0
    vecs = np.eye(n, dtype=complex)

    def offdiag_norm():
        off = a - np.diag(np.diag(a))
        return float(np.linalg.norm(off))

    sweeps = 0
    while offdiag_norm() >= offdiag_tol:
        if sweeps >= max_sweeps:
            raise ArithmeticError(
                f"Jacobi iteration failed to converge in {max_sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                z = a[p, q]
                if abs(z) < _TINY:  # conj(z)/|z| overflows for a subnormal pivot
                    continue
                # Absorb the phase of a[p,q] so the 2x2 pivot block is real,
                # then apply the standard symmetric Jacobi rotation.
                phase = z.conjugate() / abs(z)
                app, aqq, h = a[p, p].real, a[q, q].real, abs(z)
                tau = (aqq - app) / (2.0 * h)
                root = abs(tau) if abs(tau) > _TAU_HUGE else np.sqrt(1.0 + tau * tau)
                t = np.sign(tau) / (abs(tau) + root) if tau != 0.0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # Unitary columns: U[:,p] = (c, -s*phase), U[:,q] = (s, c*phase)
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * phase * col_q
                a[:, q] = s * col_p + c * phase * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase.conjugate() * row_q
                a[q, :] = s * row_p + c * phase.conjugate() * row_q
                a[p, p] = app - t * h
                a[q, q] = aqq + t * h
                a[p, q] = 0.0
                a[q, p] = 0.0
                vcol_p = vecs[:, p].copy()
                vcol_q = vecs[:, q].copy()
                vecs[:, p] = c * vcol_p - s * phase * vcol_q
                vecs[:, q] = s * vcol_p + c * phase * vcol_q
        sweeps += 1

    values = np.real(np.diag(a))
    order = np.argsort(values)[::-1]
    return values[order], vecs[:, order]


def _stacked_jacobi(m: np.ndarray, offdiag_tol: float, max_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic Jacobi of ``hermitian_eigensystem`` run over a stack of matrices at once.

    Every matrix visits the same pivots in the same order and gets the same
    rotation arithmetic as in the scalar loop, element-wise over the stack.
    Each matrix keeps its own convergence flag (a converged matrix is not
    rotated again) and skips a pivot whose |a[p, q]| is below the smallest
    normal float, so each result equals that of a separate call.  Only the
    off-diagonal norm that ends the iteration is summed in another order;
    that can change the sweep count only for a norm within rounding of
    ``offdiag_tol``.
    """
    batch, n = m.shape[:-2], m.shape[-1]
    a = m.reshape((-1, n, n)).copy()
    dev = np.max(np.abs(a - a.conj().swapaxes(-1, -2)), axis=(-2, -1))
    if np.any(dev >= HERMITICITY_TOL):
        k = int(np.argmax(dev >= HERMITICITY_TOL))
        raise ValueError(f"matrix {k} of the stack is not Hermitian (max |m - m^dag| = {dev[k]:.3e})")
    a = (a + a.conj().swapaxes(-1, -2)) / 2.0
    vecs = np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy()
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
            raise ArithmeticError(f"Jacobi iteration failed to converge in {max_sweeps} sweeps")
        for p in range(n - 1):
            for q in range(p + 1, n):
                # abs() of one complex scalar is C hypot; np.abs on a complex
                # array may round differently in the last bit, np.hypot does not.
                h = np.hypot(a[:, p, q].real, a[:, p, q].imag)
                idx = np.flatnonzero(live & (h >= _TINY))
                if idx.size == 0:
                    continue
                h = h[idx]
                phase = a[idx, p, q].conj() / h
                app, aqq = a[idx, p, p].real, a[idx, q, q].real
                tau = (aqq - app) / (2.0 * h)
                tame = np.minimum(np.abs(tau), _TAU_HUGE)  # |tau| wherever tau * tau is finite
                root = np.where(np.abs(tau) > _TAU_HUGE, np.abs(tau), np.sqrt(1.0 + tame * tame))
                t = np.where(tau != 0.0, np.sign(tau) / (np.abs(tau) + root), 1.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                cc, sc = c[:, None], s[:, None]
                sp, cp = (s * phase)[:, None], (c * phase)[:, None]
                spc, cpc = (s * phase.conj())[:, None], (c * phase.conj())[:, None]
                col_p, col_q = a[idx, :, p], a[idx, :, q]
                a[idx, :, p] = cc * col_p - sp * col_q
                a[idx, :, q] = sc * col_p + cp * col_q
                row_p, row_q = a[idx, p, :], a[idx, q, :]
                a[idx, p, :] = cc * row_p - spc * row_q
                a[idx, q, :] = sc * row_p + cpc * row_q
                a[idx, p, p] = app - t * h
                a[idx, q, q] = aqq + t * h
                a[idx, p, q] = 0.0
                a[idx, q, p] = 0.0
                vcol_p, vcol_q = vecs[idx, :, p], vecs[idx, :, q]
                vecs[idx, :, p] = cc * vcol_p - sp * vcol_q
                vecs[idx, :, q] = sc * vcol_p + cp * vcol_q
        sweeps += 1

    values = np.real(a[:, diag, diag])
    order = np.argsort(values, axis=-1)[:, ::-1]
    values = np.take_along_axis(values, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=-1)
    return values.reshape(batch + (n,)), vecs.reshape(batch + (n, n))


def hermitian_eigenvalues(m, **kwargs) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix (or of each in a stack), sorted descending."""
    values, _ = hermitian_eigensystem(m, **kwargs)
    return values


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over a labeled product of qubits.

    ``labels`` names the factors in tensor order, e.g. ("A", "B", "ES").
    """

    amps: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != 2 ** len(self.labels):
            raise ValueError(
                f"amplitude length {amps.size} does not match {len(self.labels)} qubit labels"
            )
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValueError("amplitudes contain NaN/Inf")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} is not 1 within 1e-12")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) * len(self.labels)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def axis_of(self, label) -> int:
        return _axes_of(self.labels, (label,))[0]


def _axes_of(labels: tuple[str, ...], keep) -> list[int]:
    """Tensor positions of the factors in ``keep`` (labels or axis indices), each at most once."""
    axes = []
    for label in keep:
        if isinstance(label, int):
            if not 0 <= label < len(labels):
                raise ValueError(f"subsystem index {label} out of range")
            axes.append(label)
        elif label in labels:
            axes.append(labels.index(label))
        else:
            raise ValueError(f"no subsystem labeled {label!r} in {labels}")
    if len(set(axes)) != len(axes):
        raise ValueError("duplicate subsystem in keep")
    return axes


def partial_trace(state, keep) -> np.ndarray:
    """Reduced density matrix on the kept factors.

    ``state`` is a PureState, a 4x4 density matrix on A (tensor) B or a stack
    (..., 4, 4) of them; ``keep`` is a sequence of labels or axis indices, in
    the order the kept factors should appear in the result.
    """
    if isinstance(state, PureState):
        axes = _axes_of(state.labels, keep)
        n = state.num_qubits
        rest = [i for i in range(n) if i not in axes]
        psi = state.amps.reshape((2,) * n).transpose(axes + rest).reshape(2 ** len(axes), -1)
        return psi @ psi.conj().T
    rho = _as_square(state, "rho", stack=True)
    if rho.shape[-1] != 4:
        raise ValueError("density-matrix partial trace expects a 4x4 A(x)B operator")
    axes = _axes_of(("A", "B"), keep)
    batch = rho.shape[:-2]
    r = rho.reshape(batch + (2, 2, 2, 2))
    if axes == [0, 1]:
        return rho.copy()
    if axes == [1, 0]:
        return np.einsum("...abcd->...badc", r).reshape(batch + (4, 4))
    if axes == [0]:
        return np.einsum("...ikjk->...ij", r)
    return np.einsum("...kikj->...ij", r)


def partial_transpose(rho) -> np.ndarray:
    """Transpose the second (B) factor in the computational product basis, of each matrix in a stack."""
    rho = _as_square(rho, "rho", stack=True)
    if rho.shape[-1] != 4:
        raise ValueError("partial transpose expects a 4x4 A(x)B operator")
    batch = rho.shape[:-2]
    return rho.reshape(batch + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(batch + (4, 4))


def check_density_matrix(rho, psd_tol: float = 1e-10) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; returns rho unchanged."""
    rho = _as_square(rho, "rho")
    dev = np.max(np.abs(rho - rho.conj().T))
    if dev >= 1e-12:
        raise ValueError(f"density matrix not Hermitian (max deviation {dev:.3e})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-12:
        raise ValueError(f"density matrix trace {tr} is not 1 within 1e-12")
    evals = hermitian_eigenvalues(rho)
    if evals[-1] < -psd_tol:
        raise ValueError(f"density matrix has eigenvalue {evals[-1]:.3e} below -{psd_tol:.0e}")
    return rho
