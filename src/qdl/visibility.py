"""Interference visibility, predictability and the complementarity identities.

The fringe definition is the operational one: sweep a phase on A, recombine
with the fixed rotation, read the |up>_A probability, and take the contrast
(p_max - p_min)/(p_max + p_min) of the recorded samples.  For the states built
here the fringe is exactly sinusoidal, p(phi) = (1 - 2 Re(e^{-i phi} c))/2
with c the off-diagonal element of the reduced A state, so the contrast
collapses to 2|c|; both routes are kept because the sweep is the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace
from .states import ROTATION_A, Scenario, ScenarioParams, scenario_density

DEFAULT_SWEEP_POINTS = 1024


@dataclass(frozen=True)
class FringeScan:
    """Sampled interference fringe and its contrast.

    For a stack of states (..., 4, 4), `probabilities` has shape (..., n) and
    `visibility` is an array (...,); a single state gives (n,) and a float.
    """

    phases: np.ndarray
    probabilities: np.ndarray
    visibility: float | np.ndarray


def visibility_sweep(rho: np.ndarray, n: int = DEFAULT_SWEEP_POINTS) -> FringeScan:
    """Measure the fringe at n equally spaced phases over [0, 2pi).

    For each phase: shift the |up>_A branch, apply the recombination rotation,
    reduce to A and record the |up> probability.  The per-phase gate products
    are batched into one einsum, which changes nothing about what is computed;
    a stack of states goes through the same einsum as a single one.
    """
    if n < 8:
        raise ValueError(f"phase count must be at least 8, got {n}")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("visibility sweep expects a 4x4 A(x)B density matrix or a stack of them")
    phases = 2.0 * math.pi * np.arange(n) / n
    shift = np.zeros((n, 2, 2), dtype=complex)
    shift[:, 0, 0] = np.exp(-1j * phases)
    shift[:, 1, 1] = 1.0
    gate = np.einsum("ab,kbc->kac", ROTATION_A, shift)  # rotation after phase shift
    gate_ab = np.einsum("kab,cd->kacbd", gate, np.eye(2)).reshape(n, 4, 4)
    # probability of |up>_A: trace of the upper-left 2x2 block of U rho U^dag
    block = gate_ab[:, :2, :]
    probs = np.einsum("kab,nbc,kac->nk", block, rho.reshape(-1, 4, 4), block.conj()).real
    probs = probs.reshape(rho.shape[:-2] + (n,))
    p_max = probs.max(axis=-1)
    p_min = probs.min(axis=-1)
    vis = (p_max - p_min) / (p_max + p_min)
    return FringeScan(phases=phases, probabilities=probs, visibility=float(vis) if vis.ndim == 0 else vis)


def visibility_analytic(rho: np.ndarray) -> float | np.ndarray:
    """Fringe contrast from the A coherence: V = 2 |<up| rho_A |down>|; an array over a stack of states."""
    c = partial_trace(rho, ("A",))[..., 0, 1]
    v = 2.0 * np.hypot(c.real, c.imag)  # hypot rounds like abs() of one complex scalar
    return float(v) if v.ndim == 0 else v


def predictability(r: float) -> float:
    """A-priori path bias |p_down - p_up| = |1 - 2r| of the source state."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")
    return abs(1.0 - 2.0 * r)


def unpredictability(r: float) -> float:
    """sqrt(1 - P^2), written as 2 sqrt(r (1 - r)): 1 - P^2 cancels as r -> 0 or 1."""
    predictability(r)  # range check
    return 2.0 * math.sqrt(r * (1.0 - r))


def overlap(d: float) -> float:
    """Overlap of the two meter states tagging the paths: sqrt(1 - d^2)."""
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"d must lie in [0, 1], got {d}")
    return math.sqrt(1.0 - d * d)


def decoherence_free_visibility(d: float) -> float:
    """Visibility of the balanced, decoherence-free interferometer at the same d."""
    params = ScenarioParams(r=0.5, d=d)
    return visibility_analytic(scenario_density(params, Scenario.FREE))


def _ratio_residual(v: float, denom: float, d: float) -> float:
    """|v^2/denom + d^2 - 1|, falling back to the product form at denom = 0."""
    if denom < 1e-15:
        return abs(v * v - denom * (1.0 - d * d))
    return abs(v * v / denom + d * d - 1.0)


def _identity_residual(scenario: Scenario, params: ScenarioParams, v: float, v_free: float | None) -> float:
    """Residual of `check_identity` given the visibility v of the point and,
    for a system point with d < 1, the decoherence-free visibility v_free(d)."""
    d = params.d
    if scenario is Scenario.FREE:
        u = unpredictability(params.r)
        res = _ratio_residual(v, u * u, d)
        return max(res, abs(v - overlap(d) * u))
    if scenario is Scenario.METER:
        return abs(v * v + d * d - 1.0)
    res = _ratio_residual(v, params.r_s * params.r_s, d)
    if scenario is Scenario.SYSTEM and d < 1.0:
        res = max(res, abs(v / v_free - params.r_s))
    return res


def check_identity(scenario: Scenario, params: ScenarioParams) -> float:
    """Largest residual of the complementarity identities that apply to the scenario.

    free:      v^2/(1-p^2) + d^2 = 1  and  v = overlap * unpredictability
    system:    v^2/r_s^2 + d^2 = 1    and  v / v_free(d) = r_s   (for d < 1)
    meter:     v^2 + d^2 = 1
    combined:  v^2/r_s^2 + d^2 = 1    (visibility independent of r_m)
    """
    v = visibility_analytic(scenario_density(params, scenario))
    v_free = decoherence_free_visibility(params.d) if scenario is Scenario.SYSTEM and params.d < 1.0 else None
    return _identity_residual(scenario, params, v, v_free)
