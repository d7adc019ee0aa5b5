"""System decoherence: an eavesdropper couples to the interfering qubit.

The visibility degrades to V = r_s sqrt(1-d^2), so V^2/r_s^2 + d^2 = 1, and
the CHSH maximum drops to 2 sqrt(r_s^2 + d^2): violation requires d^2 + r_s^2 > 1.
Beyond that boundary no local-realistic model reproduces the statistics;
below it one does, even though the state stays entangled whenever d, r_s > 0.
"""

import numpy as np

from qdl import (
    Scenario,
    ScenarioParams,
    horodecki_bmax,
    info_threshold,
    mutual_information,
    ppt_check,
    scenario_density,
    visibility_analytic,
)

print("r_s = 0.6 slice: the violation boundary sits at d^2 = 1 - r_s^2 = 0.64")
print(f"{'d':>5} {'V':>9} {'B_max':>9} {'neg.':>9} {'I_AB':>9} {'I_bar':>9} {'status':>22}")
threshold = info_threshold(Scenario.SYSTEM, ScenarioParams(r_s=0.6))
for d in np.linspace(0, 1, 11):
    params = ScenarioParams(d=d, r_s=0.6)
    rho = scenario_density(params, Scenario.SYSTEM)
    v = visibility_analytic(rho)
    b = horodecki_bmax(rho)
    sep = ppt_check(rho)
    info = mutual_information(rho)
    if b > 2 + 1e-9:
        status = "quantum only"
    elif sep.negativity > 1e-10:
        status = "entangled, LRT-able"
    else:
        status = "separable"
    print(
        f"{d:5.2f} {v:9.6f} {b:9.6f} {sep.negativity:9.6f} {info.i_ab:9.6f} {threshold:9.6f} {status:>22}"
    )

print()
print("the information threshold is exactly the boundary mutual information:")
for r in (0.2, 0.6, 0.9):
    d_boundary = np.sqrt(1 - r * r)
    rho = scenario_density(ScenarioParams(d=d_boundary, r_s=r), Scenario.SYSTEM)
    print(
        f"  r_s={r:.1f}: I_bar={info_threshold(Scenario.SYSTEM, ScenarioParams(r_s=r)):.9f}"
        f"  I_AB(d={d_boundary:.3f})={mutual_information(rho).i_ab:.9f}"
    )

print()
print("partial-transpose spectrum always has exactly one negative eigenvalue")
rep = ppt_check(scenario_density(ScenarioParams(d=0.5, r_s=0.5), Scenario.SYSTEM))
print(f"  d=0.5 r_s=0.5: spectrum = {np.round(rep.ppt_spectrum, 6)}")
