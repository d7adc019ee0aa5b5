"""Single-point analysis: bundle every quantity the package computes for one state."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bell import BellResult, bell_closed_form, chsh_brute_force, violation_threshold
from .infotheory import InformationReport, SeparabilityReport, info_threshold, mutual_information, ppt_check
from .states import Scenario, ScenarioParams, scenario_density
from .visibility import predictability, visibility_analytic


@dataclass(frozen=True)
class Classifications:
    """Flags of one point.  lrt_explainable is the paper's criterion V <= 1 - d^2: it concerns CHSH
    only, and it is the negation of chsh_violating only in system at d < 1.  Both are true at d = 1
    unless the robustness is about 0, and in free at 0 < d <= P < 1; both are false at many points of
    meter and combined.  Figure 3's column, the same criterion, has the same d = 1 row."""

    chsh_violating: bool
    lrt_explainable: bool
    entangled: bool
    above_info_threshold: bool | None


@dataclass(frozen=True)
class AnalysisReport:
    scenario: Scenario
    params: ScenarioParams
    v: float
    p: float
    bell: BellResult
    sep: SeparabilityReport
    info: InformationReport
    d_threshold: float
    classifications: Classifications


def analyze(
    scenario: Scenario,
    params: ScenarioParams,
    restarts: int = 32,
    seed: int = 0,
) -> AnalysisReport:
    """Compute visibility, CHSH maxima, separability and information for one point."""
    rho = scenario_density(params, scenario)
    v = visibility_analytic(rho)
    p = predictability(params.r)
    brute = chsh_brute_force(rho, restarts=restarts, seed=seed)
    bell = replace(brute, b_closed_form=bell_closed_form(scenario, params))
    sep = ppt_check(rho)
    threshold = info_threshold(scenario, params) if scenario in (Scenario.SYSTEM, Scenario.METER) else None
    info = replace(mutual_information(rho), threshold=threshold)
    above = info.i_ab > threshold if threshold is not None else None
    cls = Classifications(
        chsh_violating=bell.violates,
        lrt_explainable=v <= 1.0 - params.d * params.d,
        entangled=not sep.separable,
        above_info_threshold=above,
    )
    return AnalysisReport(
        scenario=scenario,
        params=params,
        v=v,
        p=p,
        bell=bell,
        sep=sep,
        info=info,
        d_threshold=violation_threshold(scenario, params),
        classifications=cls,
    )
