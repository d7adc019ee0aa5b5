"""Verification suites: numeric cross-checks of every closed-form relation,
boundary, region claim and published-formula discrepancy the package handles.

Each suite returns a SuiteResult with a max residual and a pass flag; the
discrepancy probes additionally carry a table of printed-vs-adopted values so
that no adjudicated formula is patched silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bell import (
    SEESAW_SWEEPS,
    bell_closed_form,
    chsh_brute_force,
    horodecki_bmax,
    violates_chsh,
    violation_boundary,
)
from .infotheory import (
    binary_entropy,
    entropy_closed_form,
    info_threshold,
    mutual_information,
    ppt_check,
    printed_meter_entropies,
    printed_meter_info_threshold,
)
from .states import Scenario, ScenarioParams, scenario_density
from .visibility import check_identity, visibility_analytic, visibility_sweep

IDENTITY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
BRUTE_TOL = 1e-5
BOUNDARY_TOL = 1e-9
ENTROPY_TOL = 1e-9
REGION_MARGIN = 1e-6
NEGATIVITY_TOL = 1e-10

DEFAULT_RESOLUTION = 13
BRUTE_RESOLUTION = 5


@dataclass
class SuiteResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    lines: list[str] = field(default_factory=list)


def _axis(steps: int, start: float = 0.0, stop: float = 1.0) -> np.ndarray:
    return np.linspace(start, stop, steps)


def _scenario_grids(steps: int) -> dict[Scenario, list[ScenarioParams]]:
    """Grid of ScenarioParams over each scenario's live axes."""
    line = _axis(steps)
    grids: dict[Scenario, list[ScenarioParams]] = {
        Scenario.FREE: [ScenarioParams(r=r, d=d) for r in line for d in line],
        Scenario.SYSTEM: [ScenarioParams(d=d, r_s=r) for d in line for r in line],
        Scenario.METER: [ScenarioParams(d=d, r_m=r) for d in line for r in line],
        Scenario.COMBINED: [
            ScenarioParams(d=d, r_s=rs, r_m=rm) for d in line for rs in line for rm in line
        ],
    }
    return grids


def suite_identities(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Complementarity identities of all four scenarios, analytic visibility."""
    worst = 0.0
    for scenario, grid in _scenario_grids(resolution).items():
        worst = max(worst, max(check_identity(scenario, p) for p in grid))
    return SuiteResult("identities", worst, IDENTITY_TOL, worst < IDENTITY_TOL)


def suite_sweep_agreement(resolution: int = 5, n_phases: int = 1024) -> SuiteResult:
    """Fringe-definition visibility (phase sweep) against the analytic shortcut."""
    worst = 0.0
    for scenario, grid in _scenario_grids(resolution).items():
        for params in grid:
            rho = scenario_density(params, scenario)
            dev = abs(visibility_sweep(rho, n_phases).visibility - visibility_analytic(rho))
            worst = max(worst, dev)
    return SuiteResult("visibility_sweep", worst, 1e-5, worst < 1e-5)


def suite_closed_form(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Analytic B_max of each scenario against the matrix-route Horodecki value."""
    worst = 0.0
    for scenario, grid in _scenario_grids(resolution).items():
        for params in grid:
            rho = scenario_density(params, scenario)
            worst = max(worst, abs(bell_closed_form(scenario, params) - horodecki_bmax(rho)))
    return SuiteResult("bell_closed_form", worst, CLOSED_FORM_TOL, worst < CLOSED_FORM_TOL)


def suite_brute(
    resolution: int = BRUTE_RESOLUTION,
    restarts: int = 32,
    iterations: int = SEESAW_SWEEPS,
    seed: int = 0,
) -> SuiteResult:
    """Brute-force CHSH maximization against the Horodecki value.

    The optimizer must reach the analytic maximum from below: residual is
    max(b_horodecki - b_brute, b_brute - b_horodecki - 1e-6, 0).
    """
    worst = 0.0
    for scenario, grid in _scenario_grids(resolution).items():
        for params in grid:
            rho = scenario_density(params, scenario)
            res = chsh_brute_force(rho, restarts=restarts, iterations=iterations, seed=seed)
            low = res.b_horodecki - res.b_brute
            high = res.b_brute - res.b_horodecki - 1e-6
            worst = max(worst, low, high)
    return SuiteResult("chsh_brute_force", worst, BRUTE_TOL, worst < BRUTE_TOL)


def suite_boundaries(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """|B_max - 2| on each printed violation boundary."""
    worst = 0.0
    for r in _axis(resolution):
        d = math.sqrt(max(0.0, 1.0 - r * r))
        rho = scenario_density(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM)
        worst = max(worst, abs(horodecki_bmax(rho) - 2.0))
    for r in _axis(resolution, 0.0, 1.0 / math.sqrt(2.0)):
        d = math.sqrt(max(0.0, 1.0 - r * r / (1.0 - r * r))) if r * r < 0.5 else 0.0
        rho = scenario_density(ScenarioParams(d=d, r_m=r), Scenario.METER)
        worst = max(worst, abs(horodecki_bmax(rho) - 2.0))
    for r_s in _axis(resolution):
        for r_m in _axis(resolution):
            params = ScenarioParams(r_s=r_s, r_m=r_m)
            d = violation_boundary(Scenario.COMBINED, params).d_threshold
            rho = scenario_density(ScenarioParams(d=d, r_s=r_s, r_m=r_m), Scenario.COMBINED)
            worst = max(worst, abs(horodecki_bmax(rho) - 2.0))
    return SuiteResult("boundary_exactness", worst, BOUNDARY_TOL, worst < BOUNDARY_TOL)


def suite_ppt_region(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Entanglement exactly on {d > 0 and r > 0}, with one negative PT eigenvalue.

    Residual is the number of misclassified grid points; a pass also requires
    at least one entangled-but-nonviolating point in the meter scenario (the
    hidden-nonlocality gap).
    """
    mismatches = 0
    gap_found = False
    for scenario in (Scenario.SYSTEM, Scenario.METER):
        for d in _axis(resolution):
            for r in _axis(resolution):
                params = (
                    ScenarioParams(d=d, r_s=r)
                    if scenario is Scenario.SYSTEM
                    else ScenarioParams(d=d, r_m=r)
                )
                rho = scenario_density(params, scenario)
                rep = ppt_check(rho)
                expected = d > REGION_MARGIN and r > REGION_MARGIN
                entangled = rep.negativity > NEGATIVITY_TOL
                if entangled != expected:
                    mismatches += 1
                    continue
                if entangled:
                    n_negative = int(np.sum(rep.ppt_spectrum < -NEGATIVITY_TOL))
                    if n_negative != 1:
                        mismatches += 1
                    if scenario is Scenario.METER and not violates_chsh(horodecki_bmax(rho)):
                        gap_found = True
    if not gap_found:
        mismatches += 1
    return SuiteResult("ppt_region", float(mismatches), 0.5, mismatches == 0)


def suite_entropy_forms(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Closed-form entropies against the eigenvalue route, both scenarios,
    plus the system information threshold against boundary mutual information."""
    worst = 0.0
    for scenario in (Scenario.SYSTEM, Scenario.METER):
        for d in _axis(resolution):
            for r in _axis(resolution):
                params = (
                    ScenarioParams(d=d, r_s=r)
                    if scenario is Scenario.SYSTEM
                    else ScenarioParams(d=d, r_m=r)
                )
                closed = entropy_closed_form(scenario, params)
                matrix = mutual_information(scenario_density(params, scenario))
                worst = max(
                    worst,
                    abs(closed.s_a - matrix.s_a),
                    abs(closed.s_b - matrix.s_b),
                    abs(closed.s_ab - matrix.s_ab),
                    abs(closed.i_ab - matrix.i_ab),
                )
    for r in _axis(resolution):
        d = math.sqrt(max(0.0, 1.0 - r * r))
        boundary_info = mutual_information(scenario_density(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM))
        worst = max(worst, abs(info_threshold(Scenario.SYSTEM, r) - boundary_info.i_ab))
    return SuiteResult("entropy_closed_forms", worst, ENTROPY_TOL, worst < ENTROPY_TOL)


def suite_threshold_consistency(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """System scenario: the violation region has three equivalent descriptions.

    d^2 + r^2 > 1  iff  B_max > 2  iff  I_AB > threshold(r), checked away from
    that boundary by margin 1e-6; and V > 1 - d^2 iff B_max > 2, checked away
    from the V = 1 - d^2 surface by the same margin (the two surfaces touch
    wherever the visibility itself degenerates).
    """
    mismatches = 0
    for d in _axis(resolution):
        for r in _axis(resolution):
            params = ScenarioParams(d=d, r_s=r)
            rho = scenario_density(params, Scenario.SYSTEM)
            bell = horodecki_bmax(rho) > 2.0
            if abs(d * d + r * r - 1.0) > REGION_MARGIN:
                geometric = d * d + r * r > 1.0
                info = mutual_information(rho).i_ab > info_threshold(Scenario.SYSTEM, r)
                if not (geometric == bell == info):
                    mismatches += 1
            v = visibility_analytic(rho)
            if abs(v - (1.0 - d * d)) > REGION_MARGIN:
                if (v > 1.0 - d * d) != bell:
                    mismatches += 1
    return SuiteResult("info_threshold_consistency", float(mismatches), 0.5, mismatches == 0)


def probe_predictability(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Adjudicate P = |1-2r| against the published P = sqrt|1-2r| via identity (V^2/(1-P^2) + D^2 = 1)."""
    worst_adopted = 0.0
    worst_printed = 0.0
    for r in _axis(resolution):
        for d in _axis(resolution):
            v = visibility_analytic(scenario_density(ScenarioParams(r=r, d=d), Scenario.FREE))
            for tag, p in (("adopted", abs(1.0 - 2.0 * r)), ("printed", math.sqrt(abs(1.0 - 2.0 * r)))):
                denom = 1.0 - p * p
                res = abs(v * v - denom * (1.0 - d * d)) if denom < 1e-15 else abs(v * v / denom + d * d - 1.0)
                if tag == "adopted":
                    worst_adopted = max(worst_adopted, res)
                else:
                    worst_printed = max(worst_printed, res)
    lines = [
        "predictability definition vs the visibility identity:",
        f"  P = |1-2r|       max identity residual = {worst_adopted:.3e}   (adopted)",
        f"  P = sqrt|1-2r|   max identity residual = {worst_printed:.3e}   (published; rejected)",
    ]
    return SuiteResult("discrepancy_p_definition", worst_adopted, IDENTITY_TOL, worst_adopted < IDENTITY_TOL, lines)


def probe_ppt_polarity(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Adjudicate partial-transpose polarity: entangled states must show a negative eigenvalue.

    The published criterion sentence reads 'inseparable iff the partial
    transposition is non-negative', inverting the standard test; the same
    source elsewhere describes entangled states by their single negative
    eigenvalue, so the standard polarity is the consistent reading.
    """
    entangled_points = 0
    with_negative_eig = 0
    line = _axis(resolution)
    for d in line[1:]:
        for r in line[1:]:
            rep = ppt_check(scenario_density(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM))
            if rep.negativity > NEGATIVITY_TOL:
                entangled_points += 1
                if rep.ppt_spectrum[-1] < -NEGATIVITY_TOL:
                    with_negative_eig += 1
    mism = entangled_points - with_negative_eig
    lines = [
        "partial-transpose polarity (system scenario, d > 0, r > 0):",
        f"  entangled grid points: {entangled_points}; with a negative PT eigenvalue: {with_negative_eig}",
        "  standard polarity adopted (separable iff PT spectrum nonnegative);",
        "  the published criterion sentence states the inverse and is rejected.",
    ]
    return SuiteResult("discrepancy_ppt_polarity", float(mism), 0.5, mism == 0, lines)


def probe_meter_entropy_form(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Quantify the published meter-scenario S_B against the matrix route."""
    worst_adopted = 0.0
    worst_printed = 0.0
    samples = []
    line = _axis(resolution)
    for d in line:
        for r in line:
            params = ScenarioParams(d=d, r_m=r)
            matrix = mutual_information(scenario_density(params, Scenario.METER))
            adopted = entropy_closed_form(Scenario.METER, params)
            printed = printed_meter_entropies(params)
            worst_adopted = max(worst_adopted, abs(adopted.s_b - matrix.s_b))
            dev = abs(printed.s_b - matrix.s_b)
            if dev > worst_printed:
                worst_printed = dev
                samples = [
                    f"  worst point d={d:.3f} r_m={r:.3f}: matrix S_B={matrix.s_b:.9f}"
                    f" printed={printed.s_b:.9f} adopted={adopted.s_b:.9f}"
                ]
    lines = [
        "meter-scenario S_B closed form:",
        f"  adopted radical (1-d^2)(1-d^2(1-r^2)): max |S_B - matrix| = {worst_adopted:.3e}",
        f"  printed radical (1-d^2)^2 (1-r^2):     max |S_B - matrix| = {worst_printed:.3e}  (rejected)",
        *samples,
    ]
    return SuiteResult("discrepancy_meter_s_b", worst_adopted, ENTROPY_TOL, worst_adopted < ENTROPY_TOL, lines)


def probe_meter_threshold_form(robustness_values=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)) -> SuiteResult:
    """Meter information threshold: numeric boundary value vs the published expression."""
    lines = ["meter information threshold (numeric boundary I_AB vs published form):",
             "  r_m      numeric          published        |difference|"]
    worst_closed = 0.0
    for r in robustness_values:
        if r >= 1.0 / math.sqrt(2.0):
            continue
        numeric = info_threshold(Scenario.METER, r)
        printed = printed_meter_info_threshold(r)
        arg = 0.5 + 0.5 * math.sqrt(2.0) * r * r / math.sqrt(1.0 - r * r)
        worst_closed = max(worst_closed, abs(numeric - binary_entropy(arg)))
        lines.append(f"  {r:.2f}   {numeric:.9f}      {printed:.9f}     {abs(numeric - printed):.9f}")
    lines.append("  numeric definition adopted; the published signs do not form an entropy.")
    lines.append(f"  (numeric value equals the entropy h(1/2 + sqrt2 r^2 / (2 sqrt(1-r^2))) to {worst_closed:.1e})")
    return SuiteResult("discrepancy_info_threshold", worst_closed, ENTROPY_TOL, worst_closed < ENTROPY_TOL, lines)


def probe_threshold_sign(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Adjudicate the sign of the combined-scenario threshold term.

    With the printed positive sign of (1-r_s^2)/(1-r_m^2) the threshold lands
    exactly on B_max = 2; the flipped sign mostly leaves the admissible range
    or misses the boundary.
    """
    worst_printed = 0.0
    flipped_valid = 0
    flipped_total = 0
    worst_flipped = 0.0
    for r_s in _axis(resolution):
        for r_m in _axis(resolution):
            params = ScenarioParams(r_s=r_s, r_m=r_m)
            d = violation_boundary(Scenario.COMBINED, params).d_threshold
            rho = scenario_density(ScenarioParams(d=d, r_s=r_s, r_m=r_m), Scenario.COMBINED)
            worst_printed = max(worst_printed, abs(horodecki_bmax(rho) - 2.0))
            if r_m < 1.0:
                flipped_total += 1
                alpha = r_s * r_s - r_m * r_m / (1.0 - r_m * r_m)
                disc = (alpha / 2.0) ** 2 - (1.0 - r_s * r_s) / (1.0 - r_m * r_m)
                if disc >= 0.0:
                    x = alpha / 2.0 + math.sqrt(disc)
                    if 0.0 <= x <= 1.0:
                        flipped_valid += 1
                        rho_f = scenario_density(
                            ScenarioParams(d=math.sqrt(x), r_s=r_s, r_m=r_m), Scenario.COMBINED
                        )
                        worst_flipped = max(worst_flipped, abs(horodecki_bmax(rho_f) - 2.0))
    lines = [
        "combined-scenario threshold sign adjudication:",
        f"  printed '+beta' sign: max |B_max - 2| on the threshold surface = {worst_printed:.3e}  (confirmed)",
        f"  flipped '-beta' sign: admissible at {flipped_valid}/{flipped_total} grid points,"
        f" max |B_max - 2| where admissible = {worst_flipped:.3e}  (rejected)",
    ]
    return SuiteResult("discrepancy_threshold_sign", worst_printed, BOUNDARY_TOL, worst_printed < BOUNDARY_TOL, lines)


SUITES = {
    "identities": suite_identities,
    "sweep": suite_sweep_agreement,
    "closed_form": suite_closed_form,
    "brute": suite_brute,
    "boundaries": suite_boundaries,
    "ppt": suite_ppt_region,
    "entropy": suite_entropy_forms,
    "info_threshold": suite_threshold_consistency,
    "p_definition": probe_predictability,
    "polarity": probe_ppt_polarity,
    "meter_entropy": probe_meter_entropy_form,
    "meter_threshold": probe_meter_threshold_form,
    "threshold_sign": probe_threshold_sign,
}

DISCREPANCY_SUITES = ("p_definition", "polarity", "meter_entropy", "meter_threshold", "threshold_sign")


def run_suites(
    resolution: int = DEFAULT_RESOLUTION,
    restarts: int = 32,
    iterations: int = SEESAW_SWEEPS,
    seed: int = 0,
    tolerance_override: float | None = None,
    names=None,
) -> list[SuiteResult]:
    """Run the requested suites (all by default) and apply any tolerance override."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if tolerance_override is not None and not (math.isfinite(tolerance_override) and tolerance_override >= 0.0):
        raise ValueError("tolerance must be a finite non-negative number")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    selected = list(SUITES) if names is None else list(names)
    results = []
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
        if name == "brute":
            res = suite_brute(min(resolution, BRUTE_RESOLUTION), restarts, iterations, seed)
        elif name == "sweep":
            res = suite_sweep_agreement(min(resolution, 5))
        elif name == "meter_threshold":
            res = probe_meter_threshold_form()
        else:
            res = SUITES[name](resolution)
        if tolerance_override is not None:
            res.tolerance = tolerance_override
            res.passed = res.max_residual < tolerance_override
        results.append(res)
    return results
