"""Decoherence-free interferometer: complementarity and CHSH violation.

A source qubit A in sqrt(r)|up> - sqrt(1-r)|down> is monitored by a meter
qubit B with distinguishability d.  Visibility V, predictability P and d then
satisfy V^2/(1-P^2) + d^2 = 1, and the shared state violates CHSH whenever
both the path is unpredictable and the meter has learned something.
"""

import numpy as np

from qdl import (
    Scenario,
    ScenarioParams,
    bell_closed_form,
    chsh_brute_force,
    horodecki_bmax,
    predictability,
    scenario_density,
    visibility_analytic,
    visibility_sweep,
)

print("fringe contrast vs meter coupling (balanced paths, r = 1/2)")
print(f"{'d':>5} {'V (sweep)':>10} {'V (analytic)':>13} {'B_max':>9} {'violates':>9}")
for d in np.linspace(0, 1, 6):
    rho = scenario_density(ScenarioParams(r=0.5, d=d), Scenario.FREE)
    v_sweep = visibility_sweep(rho, 256).visibility
    v = visibility_analytic(rho)
    b = horodecki_bmax(rho)
    print(f"{d:5.2f} {v_sweep:10.6f} {v:13.6f} {b:9.6f} {str(b > 2 + 1e-9):>9}")

print()
print("complementarity identity V^2/(1-P^2) + d^2 = 1 across biased sources")
for r in (0.1, 0.3, 0.5):
    for d in (0.2, 0.8):
        rho = scenario_density(ScenarioParams(r=r, d=d), Scenario.FREE)
        v = visibility_analytic(rho)
        p = predictability(r)
        lhs = v**2 / (1 - p**2) + d**2
        print(f"  r={r:.1f} d={d:.1f}: P={p:.2f}  V={v:.6f}  identity LHS={lhs:.12f}")

print()
print("the optimizer finds the Tsirelson point at full tagging")
rho = scenario_density(ScenarioParams(r=0.5, d=1.0), Scenario.FREE)
res = chsh_brute_force(rho, restarts=16)
print(f"  closed form : {bell_closed_form(Scenario.FREE, ScenarioParams(r=0.5, d=1.0)):.9f}")
print(f"  Horodecki   : {res.b_horodecki:.9f}")
print(f"  brute force : {res.b_brute:.9f}  (settings found by see-saw ascent)")
for label, vec in zip(("a ", "a'", "b ", "b'"), res.settings):
    print(f"    {label} = [{vec[0]:+.6f}, {vec[1]:+.6f}, {vec[2]:+.6f}]")
