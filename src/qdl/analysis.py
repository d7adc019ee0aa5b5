"""Single-point analysis: bundle every quantity the package computes for one state."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bell import BellResult, bell_closed_form, chsh_brute_force, violation_threshold
from .infotheory import InformationReport, SeparabilityReport, info_threshold, mutual_information, ppt_check
from .states import Scenario, ScenarioParams, scenario_density
from .visibility import predictability, visibility_analytic


@dataclass(frozen=True)
class Classifications:
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
    if scenario in (Scenario.SYSTEM, Scenario.METER):
        robustness = params.r_s if scenario is Scenario.SYSTEM else params.r_m
        threshold = info_threshold(scenario, robustness)
    else:
        threshold = None
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
