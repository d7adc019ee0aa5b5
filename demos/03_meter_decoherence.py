"""Meter decoherence: hidden nonlocality.

Eve now monitors the meter qubit instead of the system.  The complementarity
relation V^2 + d^2 = 1 no longer depends on the robustness at all, so fringe
measurements cannot tell quantum monitoring from classical monitoring.  The
CHSH maximum can: below r_m = 1/sqrt(2) there is a window of states that are
entangled (one negative PT eigenvalue, hence distillable) yet violate no CHSH
inequality - their nonlocality is only accessible to collective tests.
"""

import math

import numpy as np

from qdl import (
    Scenario,
    ScenarioParams,
    horodecki_bmax,
    ppt_check,
    scenario_density,
    violation_threshold,
    visibility_analytic,
)

print("visibility is robustness-blind; the CHSH maximum is not (d = 0.6)")
print(f"{'r_m':>5} {'V':>9} {'B_max':>9} {'negativity':>11} {'character':>26}")
for r in np.linspace(0, 1, 6):
    params = ScenarioParams(d=0.6, r_m=r)
    rho = scenario_density(params, Scenario.METER)
    v = visibility_analytic(rho)
    b = horodecki_bmax(rho)
    neg = ppt_check(rho).negativity
    if b > 2 + 1e-9:
        character = "CHSH-nonlocal"
    elif neg > 1e-10:
        character = "hidden nonlocality only"
    else:
        character = "classically correlated"
    print(f"{r:5.2f} {v:9.6f} {b:9.6f} {neg:11.6f} {character:>26}")

print()
print("minimal distinguishability for violation, per robustness")
print(f"{'r_m':>6} {'d_threshold':>12}")
for r in (0.0, 0.3, 0.5, 0.6, 1 / math.sqrt(2), 0.8, 1.0):
    print(f"{r:6.3f} {violation_threshold(Scenario.METER, ScenarioParams(r_m=r)):12.6f}")
print("(1.0 means no admissible distinguishability violates; 0.0 means every d > 0 does)")
