"""Two-qubit which-way interferometry under decoherence.

Builds the system-meter-environment states of the four decoherence scenarios,
and verifies the closed-form relations connecting interference visibility,
which-way distinguishability, CHSH violation, separability and mutual
information against independent matrix-level and brute-force routes.
"""

from .analysis import AnalysisReport, Classifications, analyze
from .bell import (
    BellResult,
    bell_closed_form,
    chsh_brute_force,
    chsh_value,
    correlation_tensor,
    horodecki_bmax,
    horodecki_m,
    violation_threshold,
)
from .infotheory import (
    InformationReport,
    SeparabilityReport,
    entropy_closed_form,
    info_threshold,
    mutual_information,
    ppt_check,
    von_neumann_entropy,
)
from .linalg import hermitian_eigenvalues, hermitian_eigensystem, partial_trace, partial_transpose
from .states import Scenario, ScenarioParams, scenario_amplitudes, scenario_densities, scenario_density
from .visibility import (
    FringeScan,
    check_identity,
    predictability,
    unpredictability,
    visibility_analytic,
    visibility_sweep,
)

__version__ = "0.1.0"
