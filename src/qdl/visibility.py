"""Interference visibility, predictability and the complementarity identities.

The fringe definition is the operational one: sweep a phase on A, recombine
with the fixed rotation, read the |up>_A probability, and take the contrast
(p_max - p_min)/(p_max + p_min) of the recorded samples.  For the states built
here the fringe is exactly sinusoidal: for a real state, p(phi) = (1 - 2c cos phi)/2
with c the off-diagonal element of the reduced A state, so the contrast
collapses to 2|c|; both routes are kept because the sweep is the oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import _as_hermitian_state, _float_or_array, partial_trace
from .states import Scenario, ScenarioParams, scenario_densities, scenario_density

DEFAULT_SWEEP_POINTS = 1024
# Recombination rotation on A: |up> -> (|up>+|down>)/sqrt2, |down> -> (-|up>+|down>)/sqrt2.
ROTATION_A = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2)


@dataclass(frozen=True)
class FringeScan:
    """Sampled interference fringe and its contrast.

    For a stack of states (..., 4, 4), `probabilities` has shape (..., n) and
    `visibility` is an array (...,); a single state gives (n,) and a float.
    """

    phases: np.ndarray
    probabilities: np.ndarray
    visibility: float | np.ndarray


@functools.lru_cache(maxsize=8)
def _readout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n phases over [0, 2pi) and their measurement operators as one real (16, n) matrix (read-only, cached).

    Column k is Re(G_k^T), G_k = U_k^dag Pi_up U_k, flattened: for a real rho, p_k = Tr[rho G_k]
    (Heisenberg picture) is its dot product with rho flattened.
    """
    phases = 2.0 * math.pi * np.arange(n) / n
    shift = np.zeros((n, 2, 2), dtype=complex)
    shift[:, 0, 0] = np.exp(-1j * phases)
    shift[:, 1, 1] = 1.0
    gate = np.einsum("ab,kbc->kac", ROTATION_A, shift)  # rotation after phase shift
    block = np.einsum("kab,cd->kacbd", gate, np.eye(2)).reshape(n, 4, 4)[:, :2, :]
    readout = np.einsum("kab,kac->kbc", block.conj(), block).reshape(n, 16)  # conj(G_k^T)
    readout = np.ascontiguousarray(readout.real.T)
    phases.flags.writeable = readout.flags.writeable = False
    return phases, readout


def visibility_sweep(rho: np.ndarray, n: int = DEFAULT_SWEEP_POINTS) -> FringeScan:
    """Measure the fringe at n equally spaced phases over [0, 2pi).

    For each phase: shift the |up>_A branch, apply the recombination rotation,
    reduce to A and record the |up> probability.  Each phase count's measurement
    operators are built once (``phases`` is shared and read-only), and a stack of
    states is read out by one real contraction with them, the same as a single state.
    """
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 8:
        raise ValueError(f"phase count must be an integer of at least 8, got {n!r}")
    rho = _as_hermitian_state(rho)
    phases, readout = _readout(int(n))
    # einsum's own loop, not BLAS: gemv for one state and gemm for a stack would round differently
    probs = np.einsum("nj,jk->nk", rho.reshape(-1, 16), readout)
    probs = probs.reshape(rho.shape[:-2] + (n,))
    p_max = probs.max(axis=-1)
    p_min = probs.min(axis=-1)
    vis = (p_max - p_min) / (p_max + p_min)
    return FringeScan(phases=phases, probabilities=probs, visibility=_float_or_array(vis))


def visibility_analytic(rho: np.ndarray) -> float | np.ndarray:
    """Fringe contrast from the A coherence: V = 2 |<up| rho_A |down>|; an array over a stack of states."""
    c = partial_trace(_as_hermitian_state(rho), "A")[..., 0, 1]
    return _float_or_array(2.0 * np.abs(c))


def predictability(params: ScenarioParams) -> float | np.ndarray:
    """A-priori path bias |p_down - p_up| = |1 - 2r| at the r of ``params``; an array over array knobs."""
    return abs(1.0 - 2.0 * params.r)


def unpredictability(params: ScenarioParams) -> float | np.ndarray:
    """sqrt(1 - P^2) at the r of ``params``, written as 2 sqrt(r (1 - r)): 1 - P^2 cancels as r -> 0 or 1."""
    return _float_or_array(2.0 * np.sqrt(params.r * (1.0 - params.r)))


def overlap(params: ScenarioParams) -> float | np.ndarray:
    """Overlap sqrt(1 - d^2) of the two meter states tagging the paths, at the d of ``params``."""
    return _float_or_array(np.sqrt(1.0 - params.d * params.d))


def _ratio_residual(v, denom, d) -> float | np.ndarray:
    """|v^2/denom + d^2 - 1|, falling back to the product form where denom = 0."""
    small = denom < 1e-15
    ratio = np.abs(v * v / np.where(small, 1.0, denom) + d * d - 1.0)
    return _float_or_array(np.where(small, np.abs(v * v - denom * (1.0 - d * d)), ratio))


def _identity_residual(scenario: Scenario, params: ScenarioParams, v) -> float | np.ndarray:
    """Residual of `check_identity` given the visibility v of the point; one per point for array knobs."""
    d = params.d
    if scenario is Scenario.FREE:
        u = unpredictability(params)
        return _float_or_array(np.maximum(_ratio_residual(v, u * u, d), np.abs(v - overlap(params) * u)))
    r_s = 1.0 if scenario is Scenario.METER else params.r_s  # meter: v^2/1.0 is exactly v^2
    res = _ratio_residual(v, r_s * r_s, d)
    if scenario is Scenario.SYSTEM:  # against the balanced, decoherence-free interferometer at the same d
        v_free = visibility_analytic(scenario_densities(Scenario.FREE, ScenarioParams(d=d))).reshape(np.shape(d))
        below = d < 1.0
        res = np.where(below, np.maximum(res, np.abs(v / np.where(below, v_free, 1.0) - params.r_s)), res)
    return _float_or_array(res)


def check_identity(scenario: Scenario, params: ScenarioParams) -> float:
    """Largest residual of the complementarity identities that apply to the scenario.

    free:      v^2/(1-p^2) + d^2 = 1  and  v = overlap * unpredictability
    system:    v^2/r_s^2 + d^2 = 1    and  v / v_free(d) = r_s   (for d < 1)
    meter:     v^2 + d^2 = 1
    combined:  v^2/r_s^2 + d^2 = 1    (visibility independent of r_m)
    """
    return _identity_residual(scenario, params, visibility_analytic(scenario_density(params, scenario)))
