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

from .bell import _seesaw, bell_closed_form, chsh_value, horodecki_bmax, violates_chsh, violation_boundary
from .figures import _grid_chunks
from .infotheory import (
    binary_entropy,
    entropy_closed_form,
    info_threshold,
    mutual_information,
    ppt_check,
    printed_meter_entropies,
    printed_meter_info_threshold,
)
from .states import Scenario, ScenarioParams, scenario_densities
from .visibility import _identity_residual, _ratio_residual, predictability, visibility_analytic, visibility_sweep

IDENTITY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
BRUTE_TOL = 1e-5
BOUNDARY_TOL = 1e-9
ENTROPY_TOL = 1e-9
REGION_MARGIN = 1e-6
NEGATIVITY_TOL = 1e-10

DEFAULT_RESOLUTION = 13
BRUTE_RESOLUTION = 5

# The live knobs of each scenario, outer grid axis first.
_AXES = {
    Scenario.FREE: ("r", "d"),
    Scenario.SYSTEM: ("d", "r_s"),
    Scenario.METER: ("d", "r_m"),
    Scenario.COMBINED: ("d", "r_s", "r_m"),
}


@dataclass
class SuiteResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    lines: list[str] = field(default_factory=list)


def _axis(steps: int, start: float = 0.0, stop: float = 1.0) -> np.ndarray:
    return np.linspace(start, stop, steps)


def _grid(scenario: Scenario, steps: int):
    """The scenario's grid over its live knobs in row-major order, as chunks
    (params, rho) of per-point ScenarioParams and the (N, 4, 4) stack of states."""
    axes = _AXES[scenario]
    for coords in _grid_chunks(_axis(steps), len(axes)):
        params = [ScenarioParams(**dict(zip(axes, point))) for point in zip(*coords)]
        yield params, scenario_densities(scenario, **dict(zip(axes, coords)))


def _system_boundary(steps: int) -> np.ndarray:
    """System-scenario states on the violation boundary d^2 + r_s^2 = 1, one per r_s of the axis."""
    r = _axis(steps)
    return scenario_densities(Scenario.SYSTEM, d=np.sqrt(np.maximum(0.0, 1.0 - r * r)), r_s=r)


def _threshold_surface(steps: int):
    """Chunks (r_s, r_m, b_max) of the combined scenario's B_max at the printed
    threshold d = d_threshold(r_s, r_m), over the (r_s, r_m) grid."""
    for r_s, r_m in _grid_chunks(_axis(steps), 2):
        d = [
            violation_boundary(Scenario.COMBINED, ScenarioParams(r_s=a, r_m=b)).d_threshold
            for a, b in zip(r_s, r_m)
        ]
        yield r_s, r_m, horodecki_bmax(scenario_densities(Scenario.COMBINED, d=d, r_s=r_s, r_m=r_m))


def _max_off_two(b_max: np.ndarray) -> float:
    return float(np.max(np.abs(b_max - 2.0)))


def suite_identities(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Complementarity identities of all four scenarios, analytic visibility."""
    worst = 0.0
    for scenario in _AXES:
        for params, rho in _grid(scenario, resolution):
            v = visibility_analytic(rho).tolist()
            v_free = [None] * len(params)
            if scenario is Scenario.SYSTEM:
                v_free = visibility_analytic(scenario_densities(Scenario.FREE, r=0.5, d=[p.d for p in params])).tolist()
            worst = max(worst, *(_identity_residual(scenario, p, a, b) for p, a, b in zip(params, v, v_free)))
    return SuiteResult("identities", worst, IDENTITY_TOL, worst < IDENTITY_TOL)


def suite_sweep_agreement(resolution: int = 5, n_phases: int = 1024) -> SuiteResult:
    """Fringe-definition visibility (phase sweep) against the analytic shortcut."""
    worst = 0.0
    for scenario in _AXES:
        for _, rho in _grid(scenario, resolution):
            gap = np.abs(visibility_sweep(rho, n_phases).visibility - visibility_analytic(rho))
            worst = max(worst, float(np.max(gap)))
    return SuiteResult("visibility_sweep", worst, 1e-5, worst < 1e-5)


def suite_closed_form(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Analytic B_max of each scenario against the matrix-route Horodecki value."""
    worst = 0.0
    for scenario in _AXES:
        for params, rho in _grid(scenario, resolution):
            for p, b in zip(params, horodecki_bmax(rho).tolist()):
                worst = max(worst, abs(bell_closed_form(scenario, p) - b))
    return SuiteResult("bell_closed_form", worst, CLOSED_FORM_TOL, worst < CLOSED_FORM_TOL)


def suite_brute(resolution: int = BRUTE_RESOLUTION, restarts: int = 32, seed: int = 0) -> SuiteResult:
    """Brute-force CHSH maximization against the Horodecki value.

    The optimizer must reach the analytic maximum from below: residual is
    max(b_horodecki - b_brute, b_brute - b_horodecki - 1e-6, 0).
    """
    worst = 0.0
    for scenario in _AXES:
        for _, rho in _grid(scenario, resolution):
            settings, _ = _seesaw(rho, restarts, seed)
            b_brute = chsh_value(rho, *np.moveaxis(settings, 1, 0))
            b_h = horodecki_bmax(rho)
            worst = max(worst, float(np.max(np.maximum(b_h - b_brute, b_brute - b_h - 1e-6))))
    return SuiteResult("chsh_brute_force", worst, BRUTE_TOL, worst < BRUTE_TOL)


def suite_boundaries(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """|B_max - 2| on each printed violation boundary."""
    r_m = _axis(resolution, 0.0, 1.0 / math.sqrt(2.0))
    d_m = [math.sqrt(max(0.0, 1.0 - r * r / (1.0 - r * r))) if r * r < 0.5 else 0.0 for r in r_m]
    worst = max(
        _max_off_two(horodecki_bmax(_system_boundary(resolution))),
        _max_off_two(horodecki_bmax(scenario_densities(Scenario.METER, d=d_m, r_m=r_m))),
        *(_max_off_two(b_max) for _, _, b_max in _threshold_surface(resolution)),
    )
    return SuiteResult("boundary_exactness", worst, BOUNDARY_TOL, worst < BOUNDARY_TOL)


def suite_ppt_region(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Entanglement exactly on {d > 0 and r > 0}, with one negative PT eigenvalue.

    Residual is the number of misclassified grid points; a pass also requires
    at least one entangled-but-nonviolating point in the meter scenario (the
    hidden-nonlocality gap).  The gap needs an interior meter point, so it is
    searched on a grid of at least 3 steps per axis.
    """
    mismatches = 0
    gap_found = False
    gap_steps = max(resolution, 3)
    grids = [(Scenario.SYSTEM, resolution), (Scenario.METER, resolution)]
    if gap_steps != resolution:
        grids.append((Scenario.METER, gap_steps))
    for scenario, steps in grids:
        robustness = _AXES[scenario][1]
        for params, rho in _grid(scenario, steps):
            rep = ppt_check(rho)
            expected = np.array([p.d > REGION_MARGIN and getattr(p, robustness) > REGION_MARGIN for p in params])
            entangled = rep.negativity > NEGATIVITY_TOL
            if steps == resolution:
                single_negative = np.sum(rep.ppt_spectrum < -NEGATIVITY_TOL, axis=-1) == 1
                mismatches += int(np.sum(entangled != expected)) + int(np.sum(entangled & expected & ~single_negative))
            if scenario is Scenario.METER and steps == gap_steps:
                gap_found |= bool(np.any(entangled & expected & ~violates_chsh(horodecki_bmax(rho))))
    if not gap_found:
        mismatches += 1
    return SuiteResult("ppt_region", float(mismatches), 0.5, mismatches == 0)


def suite_entropy_forms(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Closed-form entropies against the eigenvalue route, both scenarios,
    plus the system information threshold against boundary mutual information."""
    worst = 0.0
    for scenario in (Scenario.SYSTEM, Scenario.METER):
        for params, rho in _grid(scenario, resolution):
            m = mutual_information(rho)
            for p, matrix in zip(params, np.column_stack((m.s_a, m.s_b, m.s_ab, m.i_ab)).tolist()):
                c = entropy_closed_form(scenario, p)
                worst = max(worst, *(abs(x - y) for x, y in zip((c.s_a, c.s_b, c.s_ab, c.i_ab), matrix)))
    boundary = mutual_information(_system_boundary(resolution)).i_ab.tolist()
    for r, i_ab in zip(_axis(resolution), boundary):
        worst = max(worst, abs(info_threshold(Scenario.SYSTEM, r) - i_ab))
    return SuiteResult("entropy_closed_forms", worst, ENTROPY_TOL, worst < ENTROPY_TOL)


def suite_threshold_consistency(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """System scenario: the violation region has three equivalent descriptions.

    d^2 + r^2 > 1  iff  B_max > 2  iff  I_AB > threshold(r), checked away from
    that boundary by margin 1e-6; and V > 1 - d^2 iff B_max > 2, checked away
    from the V = 1 - d^2 surface by the same margin (the two surfaces touch
    wherever the visibility itself degenerates).
    """
    mismatches = 0
    for params, rho in _grid(Scenario.SYSTEM, resolution):
        columns = (horodecki_bmax(rho) > 2.0, mutual_information(rho).i_ab, visibility_analytic(rho))
        for p, bell, i_ab, v in zip(params, *(c.tolist() for c in columns)):
            d, r = p.d, p.r_s
            if abs(d * d + r * r - 1.0) > REGION_MARGIN:
                geometric = d * d + r * r > 1.0
                info = i_ab > info_threshold(Scenario.SYSTEM, r)
                if not (geometric == bell == info):
                    mismatches += 1
            if abs(v - (1.0 - d * d)) > REGION_MARGIN:
                if (v > 1.0 - d * d) != bell:
                    mismatches += 1
    return SuiteResult("info_threshold_consistency", float(mismatches), 0.5, mismatches == 0)


def probe_predictability(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Adjudicate P = |1-2r| against the published P = sqrt|1-2r| via identity (V^2/(1-P^2) + D^2 = 1)."""
    worst_adopted = 0.0
    worst_printed = 0.0
    for params, rho in _grid(Scenario.FREE, resolution):
        for p, v in zip(params, visibility_analytic(rho).tolist()):
            adopted = predictability(p.r)
            printed = math.sqrt(adopted)
            worst_adopted = max(worst_adopted, _ratio_residual(v, 1.0 - adopted * adopted, p.d))
            worst_printed = max(worst_printed, _ratio_residual(v, 1.0 - printed * printed, p.d))
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
    for params, rho in _grid(Scenario.SYSTEM, resolution):
        rep = ppt_check(rho)
        interior = np.array([p.d > 0.0 and p.r_s > 0.0 for p in params])
        entangled = interior & (rep.negativity > NEGATIVITY_TOL)
        entangled_points += int(np.sum(entangled))
        with_negative_eig += int(np.sum(entangled & (rep.ppt_spectrum[:, -1] < -NEGATIVITY_TOL)))
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
    for params, rho in _grid(Scenario.METER, resolution):
        for p, s_b in zip(params, mutual_information(rho).s_b.tolist()):
            adopted = entropy_closed_form(Scenario.METER, p)
            printed = printed_meter_entropies(p)
            worst_adopted = max(worst_adopted, abs(adopted.s_b - s_b))
            dev = abs(printed.s_b - s_b)
            if dev > worst_printed:
                worst_printed = dev
                samples = [
                    f"  worst point d={p.d:.3f} r_m={p.r_m:.3f}: matrix S_B={s_b:.9f}"
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
    for r_s, r_m, b_max in _threshold_surface(resolution):
        worst_printed = max(worst_printed, _max_off_two(b_max))
        admissible = []  # (d, r_s, r_m) where the flipped threshold lies in [0, 1]
        for a, b in zip(r_s, r_m):
            if b < 1.0:
                flipped_total += 1
                alpha = a * a - b * b / (1.0 - b * b)
                disc = (alpha / 2.0) ** 2 - (1.0 - a * a) / (1.0 - b * b)
                if disc >= 0.0:
                    x = alpha / 2.0 + math.sqrt(disc)
                    if 0.0 <= x <= 1.0:
                        admissible.append((math.sqrt(x), a, b))
        if admissible:
            d, a, b = zip(*admissible)
            flipped_valid += len(admissible)
            rho_f = scenario_densities(Scenario.COMBINED, d=d, r_s=a, r_m=b)
            worst_flipped = max(worst_flipped, _max_off_two(horodecki_bmax(rho_f)))
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
    seed: int = 0,
    tolerance_override: float | None = None,
    names=None,
) -> list[SuiteResult]:
    """Run the requested suites (all by default) and apply any tolerance override."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if tolerance_override is not None and not (math.isfinite(tolerance_override) and tolerance_override >= 0.0):
        raise ValueError("tolerance must be a finite non-negative number")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    selected = list(SUITES) if names is None else list(names)
    results = []
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
        if name == "brute":
            res = suite_brute(min(resolution, BRUTE_RESOLUTION), restarts, seed)
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
