"""Separability (PPT), negativity, von Neumann entropies and mutual information.

Separability polarity is the standard Peres-Horodecki one for 2x2 systems: a
state is separable exactly when its partial transpose has no negative
eigenvalue.  Closed-form entropies are provided next to the matrix route so
the two can be checked against each other; where a printed closed form fails
that cross-check it is kept available under a ``printed_`` name for the
discrepancy report and the corrected form is used operationally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import violation_threshold
from .linalg import _as_hermitian_state, _as_state, _float_or_array, hermitian_eigenvalues
from .linalg import partial_trace, partial_transpose
from .states import Scenario, ScenarioParams, scenario_densities

SEPARABILITY_TOL = 1e-10
ENTROPY_EIGENVALUE_FLOOR = -1e-8


@dataclass(frozen=True)
class SeparabilityReport:
    """Spectrum of the partial transpose and what it implies."""

    ppt_spectrum: np.ndarray  # 4 eigenvalues, descending
    negativity: float | np.ndarray
    separable: bool | np.ndarray


@dataclass(frozen=True)
class InformationReport:
    """Subsystem entropies (nats) and the mutual information they define."""

    s_a: float
    s_b: float
    s_ab: float
    i_ab: float
    threshold: float | None = None


def ppt_check(rho: np.ndarray) -> SeparabilityReport:
    """Peres-Horodecki test: spectrum of the partial transpose; array fields over a stack of states."""
    spectrum = hermitian_eigenvalues(partial_transpose(_as_hermitian_state(rho)))
    negativity = np.sum(np.where(spectrum < 0.0, -spectrum, 0.0), axis=-1)
    separable = spectrum[..., -1] >= -SEPARABILITY_TOL
    if spectrum.ndim == 1:
        negativity, separable = float(negativity), bool(separable)
    return SeparabilityReport(ppt_spectrum=spectrum, negativity=negativity, separable=separable)


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """-sum lambda ln lambda over the spectrum, with 0 ln 0 = 0; an array over a stack of states."""
    evals = hermitian_eigenvalues(rho, "rho")
    lowest = evals[..., -1].min(initial=np.inf)
    if lowest < ENTROPY_EIGENVALUE_FLOOR:
        raise ValueError(f"state has eigenvalue {lowest:.3e}; not positive semidefinite")
    lam = np.minimum(1.0, np.maximum(0.0, evals))
    # subtract is not reorderable, so the reduction runs left to right from the largest eigenvalue.
    return _float_or_array(np.subtract.reduce(_xlogx(lam), axis=-1, initial=0.0))


def _xlogx(x: float | np.ndarray) -> np.ndarray:
    """x ln x element-wise, with 0 ln 0 = 0, for x in [0, 1]."""
    x = np.asarray(x, dtype=float)
    return x * np.log(np.where(x > 0.0, x, 1.0))  # log(1) = 0 stands in at x = 0, so log(0) is never taken


def mutual_information(rho: np.ndarray) -> InformationReport:
    """I_AB = S_A + S_B - S_AB from the eigenvalue route; array fields over a stack of states."""
    s_ab = von_neumann_entropy(_as_state(rho))  # the one Hermiticity check of rho
    s_a = von_neumann_entropy(partial_trace(rho, "A"))
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    return InformationReport(s_a=s_a, s_b=s_b, s_ab=s_ab, i_ab=s_a + s_b - s_ab)


def binary_entropy(p: float | np.ndarray) -> float | np.ndarray:
    """Entropy (nats) of a two-outcome distribution (p, 1-p); an array over an array of p."""
    p = np.minimum(1.0, np.maximum(0.0, p))
    return _float_or_array(0.0 - _xlogx(p) - _xlogx(1.0 - p))


def entropy_closed_form(scenario: Scenario, params: ScenarioParams) -> InformationReport:
    """Closed-form S_A, S_B, S_AB for the two single-environment scenarios.

    The meter-case S_B uses the corrected radical (1-d^2)(1 - d^2(1-r^2));
    see ``printed_meter_s_b`` for the published version, which is
    inconsistent with the constructed state (it already fails the purity
    requirement S_A = S_B at r = 1).  If any knob is an array, every field is an array of the knobs' shape.
    """
    d2 = params.d * params.d
    o = np.sqrt(1.0 - d2)
    if scenario is Scenario.SYSTEM:
        r = params.r_s
        s_ab = binary_entropy((1.0 + r) / 2.0)
        s_a = binary_entropy((1.0 + r * o) / 2.0)
        s_b = binary_entropy((1.0 + o) / 2.0)
    elif scenario is Scenario.METER:
        r2 = params.r_m * params.r_m
        s_ab = binary_entropy(0.5 + 0.5 * np.sqrt(1.0 - d2 * (2.0 - d2) * (1.0 - r2)))
        s_a = binary_entropy((1.0 + o) / 2.0)
        s_b = binary_entropy(0.5 + 0.5 * np.sqrt((1.0 - d2) * (1.0 - d2 * (1.0 - r2))))
    else:
        raise ValueError(f"no closed-form entropies for scenario {scenario.value}")
    return InformationReport(s_a=s_a, s_b=s_b, s_ab=s_ab, i_ab=s_a + s_b - s_ab)


def printed_meter_s_b(params: ScenarioParams) -> float | np.ndarray:
    """Meter-case S_B exactly as published, with the radical (1-d^2)^2 (1-r^2); an array over array knobs.

    The published S_A and S_AB are the ones ``entropy_closed_form`` adopts.
    """
    d2 = params.d * params.d
    return binary_entropy(0.5 + 0.5 * np.sqrt((1.0 - d2) * (1.0 - d2) * (1.0 - params.r_m * params.r_m)))


def info_threshold(scenario: Scenario, params: ScenarioParams) -> float | np.ndarray | None:
    """Mutual information needed for a CHSH violation at the robustness of ``params``.

    System case (reads r_s): the closed form h((1+r_s^2)/2), which equals I_AB on the
    violation boundary d^2 = 1 - r_s^2.  Meter case (reads r_m): computed numerically as
    I_AB at the boundary distinguishability d of ``violation_threshold``; returns None where
    that d is 0 (r_m^2 >= 1/2), as every d > 0 already violates there.  Array knobs give an
    array of their shape, NaN where the meter case gives None; its states are solved as one
    stack, which gives the bits of the one-point calls.
    """
    if scenario is Scenario.SYSTEM:
        return binary_entropy((1.0 + params.r_s * params.r_s) / 2.0)
    if scenario is Scenario.METER:
        d_boundary = violation_threshold(Scenario.METER, params)
        if isinstance(d_boundary, float) and d_boundary == 0.0:
            return None
        boundary = ScenarioParams(d=d_boundary, r_m=params.r_m)
        i_ab = mutual_information(scenario_densities(Scenario.METER, boundary)).i_ab
        return _float_or_array(np.where(d_boundary == 0.0, np.nan, i_ab.reshape(np.shape(d_boundary))))
    raise ValueError(f"no information threshold defined for scenario {scenario.value}")


def printed_meter_info_threshold(params: ScenarioParams) -> float | np.ndarray:
    """Published meter-case threshold expression at the r_m of ``params``, evaluated verbatim; an array over array knobs.

    The sign structure does not form an entropy (first term enters with a plus sign), so this disagrees with the
    numeric boundary value; it is kept only so the discrepancy can be quantified.  NaN where r_m^2 >= 1/2, as
    for ``info_threshold``: the argument of the entropy terms exceeds 1 there.
    """
    r2 = params.r_m * params.r_m
    inside = r2 < 0.5
    arg = 0.5 + 0.5 * math.sqrt(2.0) * r2 / np.sqrt(1.0 - np.where(inside, r2, 0.0))
    return _float_or_array(np.where(inside, _xlogx(arg) - _xlogx(1.0 - arg), np.nan))
