"""Dense complex linear algebra for small Hermitian matrices and A(x)B operators.

Everything here is a pure function of immutable inputs.  The eigensolver is a
cyclic complex Jacobi iteration, deliberately self-contained so the rest of
the package does not depend on LAPACK behaviour for its contractual results.
It, the partial trace and the partial transpose of 4x4 A(x)B operators also
take stacks (..., n, n) of matrices, which grid sweeps use to evaluate many
points per call.
"""

from __future__ import annotations

import functools
import itertools
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
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN/Inf entries")
    return m


def _float_or_array(x) -> float | np.ndarray:
    """A float for a scalar or 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


@functools.cache
def _pivots(n: int) -> list[tuple[int, int, slice]]:
    """A sweep's pivots (p, q) in order, with the rows k != p, q (every row where not evenly spaced) as a slice."""
    table = []
    for p, q in itertools.combinations(range(n), 2):
        rows = [k for k in range(n) if k != p and k != q]
        cut = slice(rows[0], rows[-1] + 1, rows[1] - rows[0] if len(rows) > 1 else 1) if rows else slice(0)
        table.append((p, q, cut if list(range(n)[cut]) == rows else slice(None)))
    return table


def hermitian_eigensystem(m, *, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Cyclic Jacobi with complex plane rotations; a sweep visits every
    off-diagonal pivot once and iteration stops when the off-diagonal
    Frobenius norm drops below JACOBI_OFFDIAG_TOL (ArithmeticError after
    JACOBI_MAX_SWEEPS sweeps).  Column k of the returned vector matrix is the
    eigenvector for the k-th eigenvalue.  With ``vectors=False`` no rotation
    is accumulated, the vectors come back as None and the values are the same
    bit for bit; ``hermitian_eigenvalues`` takes that route.

    A single matrix runs this loop on Python floats; a stack (..., n, n) gets
    values (..., n) and vectors (..., n, n) from ``_stacked_jacobi``.  Both write
    the rotation's complex product out in real arithmetic (numpy fuses its
    multiply-add on some CPUs, CPython never), so they agree bit for bit anywhere.
    """
    m = _as_square(m, "m")
    if m.ndim > 2:
        return _stacked_jacobi(m, vectors)
    n = m.shape[0]
    mh = m.conj().T
    dev = np.max(np.abs(m - mh))
    if dev >= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max |m - m^dag| = {dev:.3e})")
    a = (m + mh) / 2.0
    ar, ai = a.real.tolist(), a.imag.tolist()  # the rows of a
    ur, ui = (np.eye(n).tolist(), np.zeros((n, n)).tolist()) if vectors else (None, None)  # the columns of U
    pivots = _pivots(n)

    sweeps = 0
    while math.sqrt(2.0 * sum(ar[p][q] * ar[p][q] + ai[p][q] * ai[p][q] for p, q, _ in pivots)) >= JACOBI_OFFDIAG_TOL:
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ArithmeticError(f"Jacobi iteration failed to converge in {JACOBI_MAX_SWEEPS} sweeps")
        for p, q, rows in pivots:
            rp, ip, rq, iq = ar[p], ai[p], ar[q], ai[q]
            h = abs(complex(rp[q], ip[q]))  # C hypot, as np.hypot in the stacked loop
            if h < _TINY:  # conj(z)/|z| overflows for a subnormal pivot
                continue
            # Absorb the phase of a[p,q] so the 2x2 pivot block is real, then rotate.  Past a gap
            # of about 1e308 x |a[p,q]|, tau is inf as a Python float, with no warning, and t = 0.
            app, aqq = rp[p], rq[q]
            tau = (aqq - app) / (2.0 * h)
            root = abs(tau) if abs(tau) > _TAU_HUGE else math.sqrt(1.0 + tau * tau)
            t = math.copysign(1.0, tau) / (abs(tau) + root) if tau != 0.0 else 1.0
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            pr, pi = rp[q] / h, -ip[q] / h  # phase = conj(a[p,q]) / |a[p,q]|
            # U[:,p] = (c, -s*phase), U[:,q] = (s, c*phase); rows p, q become the conjugates of columns p, q
            for k in range(n)[rows]:
                rk, ik = ar[k], ai[k]
                rk[p], ik[p], rk[q], ik[q] = _turn(c, s, pr, pi, rk[p], ik[p], rk[q], ik[q])
                rp[k], ip[k], rq[k], iq[k] = rk[p], -ik[p], rk[q], -ik[q]
            rp[p], rq[q] = app - t * h, aqq + t * h
            ip[p] = iq[q] = rp[q] = ip[q] = rq[p] = iq[p] = 0.0
            if vectors:
                xr, xi, yr, yi = ur[p], ui[p], ur[q], ui[q]
                for k in range(n):
                    xr[k], xi[k], yr[k], yi[k] = _turn(c, s, pr, pi, xr[k], xi[k], yr[k], yi[k])
        sweeps += 1

    values = np.array([ar[k][k] for k in range(n)])
    order = np.argsort(values)[::-1]
    return values[order], (np.stack((ur, ui), axis=-1).view(complex)[..., 0].T[:, order] if vectors else None)


def _turn(c: float, s: float, pr: float, pi: float, xr: float, xi: float, yr: float, yi: float) -> tuple:
    """Entries x, y of columns p, q rotated to c x - s w, s x + c w, w = (pr + i pi) y, as (re, im, re, im)."""
    wr, wi = pr * yr - pi * yi, pr * yi + pi * yr
    return c * xr - s * wr, c * xi - s * wi, s * xr + c * wr, s * xi + c * wi


def _stacked_jacobi(m: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The cyclic Jacobi of ``hermitian_eigensystem`` run over a stack of matrices at once.

    Every matrix visits the same pivots, skips the same subnormal ones and gets
    the same arithmetic as in the scalar loop, the stop test's sum included, so
    each result equals that of a separate call, bit for bit.  At each sweep end
    the converged matrices are copied out and the stack is compacted to the rest.
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
    diag, pivots = np.arange(n), _pivots(n)
    values = np.empty(a.shape[:-1])
    vecs = np.broadcast_to(np.eye(n, dtype=complex), a.shape).copy() if vectors else None
    vecs_out = np.empty_like(a) if vectors else None
    slot = np.arange(a.shape[0])  # the result row of each matrix left in the stack

    sweeps = 0
    while True:
        off = sum((a[:, p, q].real ** 2 + a[:, p, q].imag ** 2 for p, q, _ in pivots), np.zeros(len(a)))
        done = np.sqrt(2.0 * off) < JACOBI_OFFDIAG_TOL
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
        for p, q, rows in pivots:
            z = a[:, p, q]
            h = np.hypot(z.real, z.imag)  # C hypot, as abs() of one complex; np.abs of an array may differ
            skip = h < _TINY
            if skip.any():  # gather the matrices that rotate this pivot
                idx = np.flatnonzero(~skip)
                if idx.size == 0:
                    continue
                z, h = z[idx], h[idx]
            else:
                idx = slice(None)
            # With idx a slice, z, app, aqq and the columns are views of a, all read before the first write.
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
            # The scalar loop's float arithmetic as complex products with one real or imaginary
            # factor: each part is one rounded product plus an exact zero, fused or not.
            pr, ipi = (z.real / h).astype(complex)[:, None], (1j * (-z.imag / h))[:, None]  # phase = pr + ipi
            c, s = c.astype(complex)[:, None], s.astype(complex)[:, None]
            if vectors:
                vecs[idx, :, p], vecs[idx, :, q] = _rotate(c, s, pr, ipi, vecs[idx, :, p], vecs[idx, :, q])
            new_p, new_q = _rotate(c, s, pr, ipi, a[idx, rows, p], a[idx, rows, q])
            a[idx, rows, p], a[idx, rows, q] = new_p, new_q
            a[idx, p, rows], a[idx, q, rows] = new_p.conj(), new_q.conj()
            a[idx, p, p], a[idx, q, q] = new_pp, new_qq
            a[idx, p, q] = a[idx, q, p] = 0.0
        sweeps += 1

    order = np.argsort(values, axis=-1)[:, ::-1]
    values = np.take_along_axis(values, order, axis=-1).reshape(batch + (n,))
    vecs = np.take_along_axis(vecs_out, order[:, None, :], axis=-1).reshape(batch + (n, n)) if vectors else None
    return values, vecs


def _rotate(c, s, pr, ipi, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c x - s w, s x + c w) with w = pr y + ipi y, the columns' rotation in ``_stacked_jacobi``."""
    w = pr * y + ipi * y
    return c * x - s * w, s * x + c * w


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
