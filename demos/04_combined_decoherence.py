"""Both decoherence channels at once.

With system robustness r_s and meter robustness r_m acting together, the
visibility still only feels r_s, while the CHSH maximum mixes both channels:
B_max = 2 sqrt(d^2 (1-r_m^2)(d^2-r_s^2) + d^2 r_m^2 + r_s^2).  The package
constructs the full four-qubit pure state, traces out both environments and
cross-checks that closed form against the Horodecki computation.
"""

import numpy as np

from qdl import (
    Scenario,
    ScenarioParams,
    bell_closed_form,
    horodecki_bmax,
    scenario_amplitudes,
    scenario_density,
    violation_threshold,
    visibility_analytic,
)

params = ScenarioParams(d=0.8, r_s=0.7, r_m=0.5)
psi = scenario_amplitudes(Scenario.COMBINED, params)[0]
print(f"joint state factors: ('A', 'B', 'ES', 'EM'), {psi.size} amplitudes")
psi = psi.reshape(4, 4)  # rows: A(x)B, columns: ES(x)EM
rho = psi @ psi.conj().T  # trace out both environments
print(f"reduced A(x)B purity: {np.trace(rho @ rho).real:.6f}")
print(f"visibility          : {visibility_analytic(rho):.9f}  (= r_s sqrt(1-d^2) = {0.7*0.6:.9f})")
print(f"B_max closed form   : {bell_closed_form(Scenario.COMBINED, params):.9f}")
print(f"B_max Horodecki     : {horodecki_bmax(rho):.9f}")

print()
print("threshold surface d_threshold(r_s, r_m): violation only above it")
line = np.linspace(0.2, 1.0, 5)
header = "r_s \\ r_m" + "".join(f"{r:>9.2f}" for r in line)
print(header)
for r_s in line:
    cells = []
    for r_m in line:
        cells.append(f"{violation_threshold(Scenario.COMBINED, ScenarioParams(r_s=r_s, r_m=r_m)):9.4f}")
    print(f"{r_s:9.2f}" + "".join(cells))

print()
print("the threshold lands exactly on B_max = 2:")
for r_s, r_m in ((0.9, 0.4), (0.6, 0.8), (1.0, 0.5)):
    d = violation_threshold(Scenario.COMBINED, ScenarioParams(r_s=r_s, r_m=r_m))
    b = horodecki_bmax(scenario_density(ScenarioParams(d=d, r_s=r_s, r_m=r_m), Scenario.COMBINED))
    print(f"  r_s={r_s:.1f} r_m={r_m:.1f}: d_threshold={d:.6f}  B_max(d_threshold)={b:.12f}")
