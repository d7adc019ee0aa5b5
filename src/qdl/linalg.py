"""Dense complex linear algebra for small Hermitian matrices and A(x)B operators.

Everything here is a pure function of immutable inputs.  The eigensolver is a
cyclic complex Jacobi iteration, deliberately self-contained so the rest of
the package does not depend on LAPACK behaviour for its contractual results.
It, the partial trace and the partial transpose of 4x4 A(x)B operators also
take stacks (..., n, n) of matrices, which grid sweeps use to evaluate many
points per call.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-10
JACOBI_OFFDIAG_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100
_TINY = np.finfo(float).tiny  # smallest normal float
_TAU_HUGE = 1e154  # tau * tau overflows past ~1.3e154; from 2**27 on, sqrt(1 + tau * tau) rounds to |tau|

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def _as_square(m, name: str = "matrix") -> np.ndarray:
    """Complex square matrix, or stack (..., n, n) of them, with finite entries."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack (..., n, n), got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains NaN/Inf entries")
    return m


def _float_or_array(x) -> float | np.ndarray:
    """A float for a scalar or 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def hermitian_eigensystem(m, *, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Cyclic Jacobi with complex plane rotations; a sweep visits every
    off-diagonal pivot once and iteration stops when the off-diagonal
    Frobenius norm drops below JACOBI_OFFDIAG_TOL (ArithmeticError after
    JACOBI_MAX_SWEEPS sweeps).  Column k of the returned vector matrix is the
    eigenvector for the k-th eigenvalue.  With ``vectors=False`` no rotation
    is accumulated, the vectors come back as None and the values are the same
    bit for bit; ``hermitian_eigenvalues`` takes that route, so it never
    builds a vector matrix.

    A stack of shape (..., n, n) returns values (..., n) and vectors
    (..., n, n), solved together by ``_stacked_jacobi``.  A single matrix
    keeps this scalar loop, which is faster for one matrix and is the
    reference the stacked loop is tested against.
    """
    m = _as_square(m, "m")
    if m.ndim > 2:
        return _stacked_jacobi(m, vectors)
    a = m.copy()
    n = a.shape[0]
    dev = np.max(np.abs(a - a.conj().T))
    if dev >= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max |m - m^dag| = {dev:.3e})")
    a = (a + a.conj().T) / 2.0
    vecs = np.eye(n, dtype=complex) if vectors else None

    def offdiag_norm():
        off = a - np.diag(np.diag(a))
        return float(np.linalg.norm(off))

    sweeps = 0
    while offdiag_norm() >= JACOBI_OFFDIAG_TOL:
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ArithmeticError(f"Jacobi iteration failed to converge in {JACOBI_MAX_SWEEPS} sweeps")
        for p in range(n - 1):
            for q in range(p + 1, n):
                z = a[p, q]
                h = float(abs(z))
                if h < _TINY:  # conj(z)/|z| overflows for a subnormal pivot
                    continue
                # Absorb the phase of a[p,q] so the 2x2 pivot block is real,
                # then apply the standard symmetric Jacobi rotation.
                phase = z.conjugate() / h
                app, aqq = float(a[p, p].real), float(a[q, q].real)
                # tau, and |tau| + root, pass the largest double once the gap is
                # about 1e308 x |a[p,q]|.  As Python floats they are then inf with
                # no overflow warning, and inf is their limit: t = 0.
                tau = (aqq - app) / (2.0 * h)
                root = abs(tau) if abs(tau) > _TAU_HUGE else math.sqrt(1.0 + tau * tau)
                t = math.copysign(1.0, tau) / (abs(tau) + root) if tau != 0.0 else 1.0
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # Unitary columns: U[:,p] = (c, -s*phase), U[:,q] = (s, c*phase).
                # a is exactly Hermitian, so rotating its rows gives the conjugates
                # of the rotated columns; at most the sign of a zero could differ,
                # and nothing reads that sign.
                col_p = c * a[:, p] - s * phase * a[:, q]
                col_q = s * a[:, p] + c * phase * a[:, q]
                a[:, p], a[:, q] = col_p, col_q
                a[p, :], a[q, :] = col_p.conj(), col_q.conj()
                a[p, p] = app - t * h
                a[q, q] = aqq + t * h
                a[p, q] = 0.0
                a[q, p] = 0.0
                if vectors:
                    vcol_p = c * vecs[:, p] - s * phase * vecs[:, q]
                    vcol_q = s * vecs[:, p] + c * phase * vecs[:, q]
                    vecs[:, p], vecs[:, q] = vcol_p, vcol_q
        sweeps += 1

    values = np.real(np.diag(a))
    order = np.argsort(values)[::-1]
    return values[order], (vecs[:, order] if vectors else None)


def _stacked_jacobi(m: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The cyclic Jacobi of ``hermitian_eigensystem`` run over a stack of matrices at once.

    Every matrix visits the same pivots in the same order and gets the same
    rotation arithmetic as in the scalar loop, element-wise over the stack;
    as there, the rotated rows are written as the conjugates of the rotated
    columns.  A matrix skips a pivot whose |a[p, q]| is below the smallest
    normal float, so each result equals that of a separate call.  At each
    sweep boundary the matrices whose off-diagonal norm has dropped below
    JACOBI_OFFDIAG_TOL are copied out to the result and the stack is compacted
    to the rest, so a converged matrix is not rotated again.  Only that norm
    is summed in another order than in the scalar loop; that can change the
    sweep count only for a norm within rounding of JACOBI_OFFDIAG_TOL.
    """
    batch, n = m.shape[:-2], m.shape[-1]
    a = m.reshape((-1, n, n))
    ah = a.conj().swapaxes(-1, -2)
    dev = np.max(np.abs(a - ah), axis=(-2, -1))
    if np.any(dev >= HERMITICITY_TOL):
        k = int(np.argmax(dev >= HERMITICITY_TOL))
        raise ValueError(f"matrix {k} of the stack is not Hermitian (max |m - m^dag| = {dev[k]:.3e})")
    a = (a + ah) / 2.0
    del ah
    diag = np.arange(n)
    values = np.empty(a.shape[:-1])
    vecs = np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy() if vectors else None
    vecs_out = np.empty_like(a) if vectors else None
    slot = np.arange(a.shape[0])  # the result row of each matrix left in the stack

    sweeps = 0
    while True:
        off = a.real**2 + a.imag**2
        off[:, diag, diag] = 0.0
        done = np.sqrt(np.sum(off, axis=(-2, -1))) < JACOBI_OFFDIAG_TOL
        if done.any():
            values[slot[done]] = a[done][:, diag, diag].real
            if vectors:
                vecs_out[slot[done]] = vecs[done]
                vecs = vecs[~done]
            a, slot = a[~done], slot[~done]
        if slot.size == 0:
            break
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ArithmeticError(f"Jacobi iteration failed to converge in {JACOBI_MAX_SWEEPS} sweeps")
        for p in range(n - 1):
            for q in range(p + 1, n):
                z = a[:, p, q]
                # abs() of one complex scalar is C hypot; np.abs on a complex
                # array may round differently in the last bit, np.hypot does not.
                h = np.hypot(z.real, z.imag)
                skip = h < _TINY
                if skip.any():  # gather the matrices that rotate this pivot
                    idx = np.flatnonzero(~skip)
                    if idx.size == 0:
                        continue
                    z, h = z[idx], h[idx]
                else:
                    idx = slice(None)
                # With idx a slice, z, app, aqq and the columns are views of a:
                # everything is read before the first write.
                phase = z.conj() / h
                app, aqq = a[idx, p, p].real, a[idx, q, q].real
                with np.errstate(over="ignore"):  # inf is the limit, as in the scalar loop
                    tau = (aqq - app) / (2.0 * h)
                    abs_tau = np.abs(tau)
                    tame = np.minimum(abs_tau, _TAU_HUGE)  # |tau| wherever tau * tau is finite
                    root = np.where(abs_tau > _TAU_HUGE, abs_tau, np.sqrt(1.0 + tame * tame))
                    t = np.where(tau != 0.0, np.sign(tau) / (abs_tau + root), 1.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                new_pp, new_qq = app - t * h, aqq + t * h
                cc, sc = c[:, None], s[:, None]
                sp, cp = (s * phase)[:, None], (c * phase)[:, None]
                col_p, col_q = a[idx, :, p], a[idx, :, q]
                new_p = cc * col_p - sp * col_q
                new_q = sc * col_p + cp * col_q
                a[idx, :, p], a[idx, :, q] = new_p, new_q
                a[idx, p, :], a[idx, q, :] = new_p.conj(), new_q.conj()
                a[idx, p, p], a[idx, q, q] = new_pp, new_qq
                a[idx, p, q] = 0.0
                a[idx, q, p] = 0.0
                if vectors:
                    vcol_p, vcol_q = vecs[idx, :, p], vecs[idx, :, q]
                    new_p = cc * vcol_p - sp * vcol_q
                    new_q = sc * vcol_p + cp * vcol_q
                    vecs[idx, :, p], vecs[idx, :, q] = new_p, new_q
        sweeps += 1

    order = np.argsort(values, axis=-1)[:, ::-1]
    values = np.take_along_axis(values, order, axis=-1).reshape(batch + (n,))
    if not vectors:
        return values, None
    vecs = np.take_along_axis(vecs_out, order[:, None, :], axis=-1)
    return values, vecs.reshape(batch + (n, n))


def hermitian_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix (or of each in a stack), sorted descending."""
    values, _ = hermitian_eigensystem(m, vectors=False)
    return values


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduced density matrix on factor ``keep`` ("A" or "B") of a 4x4 A(x)B density matrix or of each in a stack."""
    rho = _as_square(rho, "rho")
    if rho.shape[-1] != 4:
        raise ValueError("density-matrix partial trace expects a 4x4 A(x)B operator")
    if keep not in ("A", "B"):
        raise ValueError(f"no subsystem {keep!r} in A(x)B: keep names 'A' or 'B'")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...ikjk->...ij" if keep == "A" else "...kikj->...ij", r)


def partial_transpose(rho) -> np.ndarray:
    """Transpose the second (B) factor in the computational product basis, of each matrix in a stack."""
    rho = _as_square(rho, "rho")
    if rho.shape[-1] != 4:
        raise ValueError("partial transpose expects a 4x4 A(x)B operator")
    batch = rho.shape[:-2]
    return rho.reshape(batch + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(batch + (4, 4))
