"""Dense linear algebra for small real symmetric matrices and A(x)B operators.

Everything here is a pure function of immutable inputs.  The eigensolver is a
cyclic real-symmetric Jacobi iteration, deliberately self-contained so the
rest of the package does not depend on LAPACK behaviour for its contractual
results.  It, the partial trace and the partial transpose of 4x4 A(x)B
operators also take stacks (..., n, n) of matrices, which grid sweeps use to
evaluate many points per call.  The package is real-only: every state it
builds is float64, and a complex input is taken as its real part when its
imaginary part is exactly zero and refused otherwise (``_as_square``), so
marginals and partial transposes are float64 too.
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


def _as_square(m, name: str = "matrix") -> np.ndarray:
    """Real square matrix, or stack (..., n, n) of them, with finite entries; a complex m must be exactly real."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValueError(f"{name} must be a square matrix or a stack (..., n, n) with n >= 1, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN/Inf entries")
    if np.iscomplexobj(m):
        if m.imag.any():
            raise ValueError(f"{name} has a nonzero imaginary part (max |Im {name}| = {np.abs(m.imag).max():.3e}); "
                             "only real matrices are accepted")
        m = m.real
    return m.astype(np.result_type(m, float), copy=False)


def _as_state(rho) -> np.ndarray:
    """``_as_square`` of rho, which must also be a 4x4 A(x)B operator or a stack (..., 4, 4) of them."""
    rho = _as_square(rho, "rho")
    if rho.shape[-1] != 4:
        raise ValueError(f"rho must be a 4x4 A(x)B operator or a stack (..., 4, 4) of them, got shape {rho.shape}")
    return rho


def _as_hermitian_state(rho) -> np.ndarray:
    """``_as_state`` of rho, which must also be Hermitian within HERMITICITY_TOL (``_check_hermitian``)."""
    rho = _as_state(rho)
    _check_hermitian(rho, "rho")
    return rho


def _check_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    """The transpose of m (..., n, n); a ValueError names the first matrix with an entry |m - m^T| >= HERMITICITY_TOL."""
    transpose = m.swapaxes(-1, -2)
    dev = np.abs(m - transpose)
    if dev.max(initial=0.0) >= HERMITICITY_TOL:
        dev = dev.reshape((-1,) + m.shape[-2:])
        k = int(np.argmax(dev.max(axis=(-2, -1)) >= HERMITICITY_TOL))
        which = name if m.ndim == 2 else f"{name} {k} of the stack"
        raise ValueError(f"{which} is not Hermitian (max |{name} - {name}^T| = {dev[k].max():.3e})")
    return transpose


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


def hermitian_eigensystem(m) -> np.ndarray:
    """Eigenvalues, descending, of a real symmetric matrix or of each in a stack (..., n, n).

    Cyclic Jacobi with real plane rotations; a sweep visits every
    off-diagonal pivot once and iteration stops when the off-diagonal
    Frobenius norm drops below JACOBI_OFFDIAG_TOL (ArithmeticError after
    JACOBI_MAX_SWEEPS sweeps).  No eigenvector is built.  Callers use
    ``hermitian_eigenvalues``; the loop keeps this name, matrix first, because
    the benchmark harness traces and counts the solves under it.

    One matrix, 2-D or the only one of a stack of any shape, runs on Python
    floats in ``_jacobi``, more than one in ``_stacked_jacobi``; both do the
    same float products, none that numpy could fuse, so each member of a stack
    gets its one-matrix bits on any CPU.
    """
    m = _as_square(m, "m")
    batch, n = m.shape[:-2], m.shape[-1]
    a = (m + _check_hermitian(m, "m")).reshape((-1, n, n)) / 2.0
    solve = _jacobi if len(a) == 1 else _stacked_jacobi
    return solve(a).reshape(batch + (n,))


def _jacobi(a: np.ndarray) -> np.ndarray:
    """The cyclic Jacobi on Python floats, for the one real symmetric matrix of a stack (1, n, n)."""
    n = a.shape[-1]
    rows, pivots = a[0].tolist(), _pivots(n)

    for sweeps in itertools.count():
        off = 0.0
        for p, q, _ in pivots:  # left to right, as numpy adds; sum() of floats is compensated from Python 3.12 on
            off += rows[p][q] * rows[p][q]
        if math.sqrt(2.0 * off) < JACOBI_OFFDIAG_TOL:
            break
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ArithmeticError(f"Jacobi iteration failed to converge in {JACOBI_MAX_SWEEPS} sweeps")
        for p, q, others in pivots:
            rp, rq = rows[p], rows[q]
            h = abs(rp[q])
            if h < _TINY:  # its square is 0 in the stop test: left as it is
                continue
            # Past a gap of about 1e308 x |a[p,q]|, tau is inf as a Python float, with no warning, and t = 0.
            app, aqq = rp[p], rq[q]
            tau = (aqq - app) / (2.0 * h)
            root = abs(tau) if abs(tau) > _TAU_HUGE else math.sqrt(1.0 + tau * tau)
            t = math.copysign(1.0, tau) / (abs(tau) + root) if tau != 0.0 else 1.0
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            sign = rp[q] / h
            for k in range(n)[others]:  # columns p, q become c x - s w and s x + c w, w = sign y; rows p, q alike
                rk = rows[k]
                x, w = rk[p], sign * rk[q]
                rk[p] = rp[k] = c * x - s * w
                rk[q] = rq[k] = s * x + c * w
            rp[p], rq[q] = app - t * h, aqq + t * h
            rp[q] = rq[p] = 0.0

    values = np.array([rows[k][k] for k in range(n)])
    return values[np.argsort(values)[::-1]][None]


def _stacked_jacobi(a: np.ndarray) -> np.ndarray:
    """The cyclic Jacobi of ``_jacobi`` run over a stack (N, n, n) of real symmetric matrices at once.

    Every matrix visits the same pivots, skips the same subnormal ones and gets
    the same arithmetic as in the scalar loop, the stop test's sum included, so
    each result equals that of a separate call, bit for bit.  At each sweep end
    the converged values are copied out and the stack is compacted to the rest.
    """
    n = a.shape[-1]
    diag, pivots = np.arange(n), _pivots(n)
    values = np.empty(a.shape[:-1])
    slot = np.arange(a.shape[0])  # the result row of each matrix left in the stack

    for sweeps in itertools.count():
        off = sum((a[:, p, q] ** 2 for p, q, _ in pivots), np.zeros(len(a)))
        done = np.sqrt(2.0 * off) < JACOBI_OFFDIAG_TOL
        if done.any():
            values[slot[done]] = a[done][:, diag, diag]
            a, slot = a[~done], slot[~done]
        if slot.size == 0:
            break
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ArithmeticError(f"Jacobi iteration failed to converge in {JACOBI_MAX_SWEEPS} sweeps")
        for p, q, rows in pivots:
            z = a[:, p, q]
            h = np.abs(z)
            skip = h < _TINY
            if skip.any():  # gather the matrices that rotate this pivot
                idx = np.flatnonzero(~skip)
                if idx.size == 0:
                    continue
                z, h = z[idx], h[idx]
            else:
                idx = slice(None)
            # With idx a slice, z, app, aqq and the columns are views of a, all read before the first write.
            app, aqq = a[idx, p, p], a[idx, q, q]
            with np.errstate(over="ignore"):  # inf is the limit, as in the scalar loop
                tau = (aqq - app) / (2.0 * h)
                abs_tau = np.abs(tau)
                tame = np.minimum(abs_tau, _TAU_HUGE)  # |tau| wherever tau * tau is finite
                root = np.where(abs_tau > _TAU_HUGE, abs_tau, np.sqrt(1.0 + tame * tame))
                t = np.where(tau != 0.0, np.sign(tau) / (abs_tau + root), 1.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            new_pp, new_qq = app - t * h, aqq + t * h
            sign, c, s = (z / h)[:, None], c[:, None], s[:, None]
            x, w = a[idx, rows, p], sign * a[idx, rows, q]
            new_p, new_q = c * x - s * w, s * x + c * w
            a[idx, rows, p], a[idx, rows, q] = new_p, new_q
            a[idx, p, rows], a[idx, q, rows] = new_p, new_q
            a[idx, p, p], a[idx, q, q] = new_pp, new_qq
            a[idx, p, q] = a[idx, q, p] = 0.0

    order = np.argsort(values, axis=-1)[:, ::-1]
    return np.take_along_axis(values, order, axis=-1)


def hermitian_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix (or of each in a stack), sorted descending."""
    return hermitian_eigensystem(m)


def partial_trace(rho, keep: str) -> np.ndarray:
    """Reduced density matrix on factor ``keep`` ("A" or "B") of a 4x4 A(x)B density matrix or of each in a stack."""
    rho = _as_state(rho)
    if keep not in ("A", "B"):
        raise ValueError(f"no subsystem {keep!r} in A(x)B: keep names 'A' or 'B'")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...ikjk->...ij" if keep == "A" else "...kikj->...ij", r)


def partial_transpose(rho) -> np.ndarray:
    """Transpose the second (B) factor in the computational product basis, of each matrix in a stack."""
    rho = _as_state(rho)
    batch = rho.shape[:-2]
    return rho.reshape(batch + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(batch + (4, 4))
