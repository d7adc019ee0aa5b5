"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured-output section on failure).  Grids follow the criteria: 13 points
per live axis for closed-form checks, 5 for the brute-force oracle, 21 for
the complementarity identities.
"""

import math
import time

import numpy as np
import pytest

from qdl.bell import bell_closed_form, chsh_brute_force, horodecki_bmax, violates_chsh
from qdl.cli import main
from qdl.infotheory import info_threshold, mutual_information, ppt_check
from qdl.states import Scenario, ScenarioParams, scenario_density
from qdl.verify import (
    probe_threshold_sign,
    suite_boundaries,
    suite_identities,
    suite_sweep_agreement,
    suite_entropy_forms,
)

SQ2 = math.sqrt(2.0)
LN2 = math.log(2.0)


def report(number: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def scenario_grid(scenario: Scenario, steps: int):
    line = np.linspace(0.0, 1.0, steps)
    if scenario is Scenario.FREE:
        return [ScenarioParams(r=r, d=d) for r in line for d in line]
    if scenario is Scenario.SYSTEM:
        return [ScenarioParams(d=d, r_s=r) for d in line for r in line]
    if scenario is Scenario.METER:
        return [ScenarioParams(d=d, r_m=r) for d in line for r in line]
    return [ScenarioParams(d=d, r_s=rs, r_m=rm) for d in line for rs in line for rm in line]


def test_criterion_1_closed_form_agreement():
    t0 = time.time()
    worst = 0.0
    for scenario in Scenario:
        for params in scenario_grid(scenario, 13):
            rho = scenario_density(params, scenario)
            worst = max(worst, abs(bell_closed_form(scenario, params) - horodecki_bmax(rho)))
    elapsed = time.time() - t0
    report(
        1,
        worst < 1e-9 and elapsed < 5.0,
        f"closed-form vs Horodecki max residual {worst:.3e} (< 1e-9) in {elapsed:.1f}s (< 5s)",
    )


def test_criterion_2_brute_force_oracle():
    t0 = time.time()
    worst = 0.0
    for scenario in Scenario:
        for params in scenario_grid(scenario, 5):
            rho = scenario_density(params, scenario)
            res = chsh_brute_force(rho, restarts=32)
            worst = max(worst, abs(res.b_brute - res.b_horodecki))
            assert res.b_brute <= res.b_horodecki + 1e-6
    elapsed = time.time() - t0
    report(
        2,
        worst < 1e-5 and elapsed < 60.0,
        f"brute-force vs Horodecki max |diff| {worst:.3e} (< 1e-5) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_complementarity_identities():
    identities = suite_identities(21)
    sweep = suite_sweep_agreement(5)
    report(
        3,
        identities.passed and sweep.passed,
        f"identity residual {identities.max_residual:.3e} (< 1e-9) on 21-point grids; "
        f"sweep(n=1024) vs analytic {sweep.max_residual:.3e} (< 1e-5)",
    )


def test_criterion_4_boundary_exactness():
    res = suite_boundaries(13)
    sign = probe_threshold_sign(13)
    report(
        4,
        res.passed and sign.passed,
        f"|B_max - 2| on all three printed boundaries {res.max_residual:.3e} (< 1e-9); "
        f"combined threshold sign adjudicated (+beta), residual {sign.max_residual:.3e}",
    )


def test_criterion_5_published_point_values():
    checks = []
    rho = scenario_density(ScenarioParams(r=0.5, d=1.0), Scenario.FREE)
    checks.append(abs(horodecki_bmax(rho) - 2 * SQ2) < 1e-9)

    violated = True
    for r in np.linspace(1 / SQ2, 1.0, 7):
        for d in np.linspace(0.01, 1.0, 12):
            rho = scenario_density(ScenarioParams(d=d, r_m=r), Scenario.METER)
            violated &= violates_chsh(horodecki_bmax(rho))
    checks.append(violated)

    none_violated = True
    for d in np.linspace(0.0, 1.0, 21):
        rho = scenario_density(ScenarioParams(d=d, r_m=0.0), Scenario.METER)
        none_violated &= not violates_chsh(horodecki_bmax(rho))
    checks.append(none_violated)

    i_top = mutual_information(scenario_density(ScenarioParams(d=1.0, r_s=1.0), Scenario.SYSTEM)).i_ab
    i_bot = mutual_information(scenario_density(ScenarioParams(d=1.0, r_s=0.0), Scenario.SYSTEM)).i_ab
    checks.append(abs(i_top - 2 * LN2) < 1e-9)
    checks.append(abs(i_bot - LN2) < 1e-9)

    report(
        5,
        all(checks),
        "point values: free(d=1,u=1) B=2sqrt2; meter r>=1/sqrt2 violates for d>=0.01; "
        "meter r=0 never violates; system I_AB endpoints 2ln2 / ln2 "
        f"[{', '.join(str(c) for c in checks)}]",
    )


def test_criterion_6_ppt_region():
    ok = True
    one_negative = True
    for scenario in (Scenario.SYSTEM, Scenario.METER):
        for d in np.linspace(0.0, 1.0, 13):
            for r in np.linspace(0.0, 1.0, 13):
                params = (
                    ScenarioParams(d=d, r_s=r)
                    if scenario is Scenario.SYSTEM
                    else ScenarioParams(d=d, r_m=r)
                )
                rep = ppt_check(scenario_density(params, scenario))
                expected = d > 1e-6 and r > 1e-6
                ok &= (rep.negativity > 1e-10) == expected
                if expected:
                    one_negative &= int(np.sum(rep.ppt_spectrum < -1e-10)) == 1
    report(
        6,
        ok and one_negative,
        "negativity > 0 exactly on {d > 0 and r > 0} for both decoherence scenarios, "
        "with exactly one negative PT eigenvalue where entangled",
    )


def test_criterion_7_entropy_closed_forms():
    res = suite_entropy_forms(13)
    worst_threshold = 0.0
    for r in np.linspace(0.0, 1.0, 13):
        d = math.sqrt(max(0.0, 1.0 - r * r))
        i_boundary = mutual_information(
            scenario_density(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM)
        ).i_ab
        worst_threshold = max(worst_threshold, abs(info_threshold(Scenario.SYSTEM, ScenarioParams(r_s=r)) - i_boundary))
    report(
        7,
        res.passed and worst_threshold < 1e-9,
        f"closed-form entropies vs eigenvalue route {res.max_residual:.3e} (< 1e-9); "
        f"system threshold vs boundary I_AB {worst_threshold:.3e} (< 1e-9)",
    )


def test_criterion_8_discrepancy_report(capsys):
    code = main(
        [
            "verify",
            "--resolution",
            "9",
            "--suite",
            "p_definition",
            "--suite",
            "polarity",
            "--suite",
            "meter_entropy",
            "--suite",
            "meter_threshold",
            "--suite",
            "threshold_sign",
        ]
    )
    out = capsys.readouterr().out
    required = [
        "predictability definition",  # (a) P = |1-2r| vs sqrt|1-2r|
        "partial-transpose polarity",  # (b) published polarity sentence vs usage
        "meter information threshold",  # (c) printed vs numeric threshold
        "meter-scenario S_B closed form",  # bonus: published S_B radical
        "rejected",
    ]
    passed = code == 0 and all(text in out for text in required)
    with capsys.disabled():
        report(8, passed, "cmd_verify emits the quantified discrepancy table; exit 0")


def test_criterion_9_figure_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    c1 = main(["figure", "1", "--resolution", "41", "--out", str(p1)])
    c2 = main(["figure", "1", "--resolution", "41", "--out", str(p2)])
    capsys.readouterr()
    passed = c1 == 0 and c2 == 0 and p1.read_bytes() == p2.read_bytes()
    with capsys.disabled():
        report(9, passed, "two consecutive `figure 1 --resolution 41` runs are byte-identical")
