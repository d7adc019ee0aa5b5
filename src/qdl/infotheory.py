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

from .linalg import _as_hermitian_state, _as_state, _float_or_array, hermitian_eigenvalues
from .linalg import partial_trace, partial_transpose
from .states import Scenario, ScenarioParams

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
    """Mutual information needed for a CHSH violation at the robustness of ``params``: I_AB on the violation boundary.

    System (reads r_s): h((1+r_s^2)/2), at d^2 = 1 - r_s^2.  Meter (reads r_m): h(a), a = 1/2 + sqrt2 r_m^2 /
    (2 sqrt(1-r_m^2)), at the d of ``violation_threshold``, as ``qdl verify`` checks; None exactly where that d is 0
    (r_m^2 >= 1/2), as every d > 0 violates there.  Array knobs give an array of their shape, NaN for None.
    """
    if scenario is Scenario.SYSTEM:
        return binary_entropy((1.0 + params.r_s * params.r_s) / 2.0)
    if scenario is Scenario.METER:
        h = _meter_threshold(params, binary_entropy)
        return None if isinstance(h, float) and math.isnan(h) else h
    raise ValueError(f"no information threshold defined for scenario {scenario.value}")


def printed_meter_info_threshold(params: ScenarioParams) -> float | np.ndarray:
    """Published meter-case threshold expression, xlogx(a) - xlogx(1-a) at the a of ``info_threshold``, verbatim.

    Its first term enters with a plus sign, so it is no entropy h(a) and disagrees with the boundary I_AB; it is kept
    so the discrepancy can be quantified.  An array over array knobs; NaN where r_m^2 >= 1/2, where a exceeds 1.
    """
    return _meter_threshold(params, lambda a: _xlogx(a) - _xlogx(1.0 - a))


def _meter_threshold(params: ScenarioParams, form) -> float | np.ndarray:
    """form(a) at the a of ``info_threshold``, in [1/2, 1) where r_m^2 < 1/2; NaN elsewhere (form sees a finite a)."""
    r2 = params.r_m * params.r_m
    inside = r2 < 0.5
    a = 0.5 + 0.5 * math.sqrt(2.0) * r2 / np.sqrt(1.0 - np.where(inside, r2, 0.0))
    return _float_or_array(np.where(inside, form(a), np.nan))
