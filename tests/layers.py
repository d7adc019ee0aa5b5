"""The state layers: one row for each public qdl function whose first parameter is rho (or m).

`test_layers.py` checks on every row the contract README states for them.  A row gives how to call its
function on a stack, as a tuple holding one result per member, and what input the function takes.
"""

import dataclasses
import inspect
from typing import Callable, Optional

import numpy as np

from qdl.bell import chsh_brute_force, chsh_value, correlation_tensor, horodecki_bmax, horodecki_m
from qdl.infotheory import mutual_information, ppt_check, von_neumann_entropy
from qdl.linalg import hermitian_eigenvalues, partial_trace, partial_transpose
from qdl.states import Scenario, ScenarioParams, scenario_densities
from qdl.visibility import visibility_analytic, visibility_sweep

# What a function takes, one matrix or a stack (..., n, n) of them: 4x4 A(x)B states, Hermitian within 1e-10;
# any finite 4x4 A(x)B operators; real symmetric matrices of any size; or one 4x4 state, refusing a stack.
STATE, OPERATOR, SYMMETRIC, ONE_STATE = "state", "operator", "symmetric", "one state"

CHSH_SETTINGS = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.0, 0.8], [0.0, 0.8, 0.6])  # a, a', b, b'


def fields(result) -> tuple:
    """Every field of a dataclass result that is not None, in order."""
    return tuple(value for value in dataclasses.astuple(result) if value is not None)


@dataclasses.dataclass(frozen=True)
class Layer:
    function: Callable
    kind: str = STATE
    call: Optional[Callable] = None  # rho -> the tuple of results; (function(rho),) by default

    @property
    def name(self) -> str:
        return self.function.__name__

    @property
    def arg(self) -> str:
        """The name the function's refusals give its input: its first parameter."""
        return next(iter(inspect.signature(self.function).parameters))

    def __call__(self, rho) -> tuple:
        return self.call(rho) if self.call else (self.function(rho),)


LAYERS = (
    Layer(hermitian_eigenvalues, SYMMETRIC),
    Layer(von_neumann_entropy, SYMMETRIC),
    Layer(partial_trace, OPERATOR, lambda rho: (partial_trace(rho, "A"), partial_trace(rho, "B"))),
    Layer(partial_transpose, OPERATOR),
    Layer(correlation_tensor),
    Layer(horodecki_m),
    Layer(horodecki_bmax),
    Layer(chsh_value, STATE,
          lambda rho: (chsh_value(rho, *(np.broadcast_to(v, np.shape(rho)[:-2] + (3,)) for v in CHSH_SETTINGS)),)),
    Layer(chsh_brute_force, ONE_STATE, lambda rho: fields(chsh_brute_force(rho, restarts=4))),
    Layer(ppt_check, STATE, lambda rho: fields(ppt_check(rho))),
    Layer(mutual_information, STATE, lambda rho: fields(mutual_information(rho))),
    Layer(visibility_analytic),
    # the fringe at 64 phases and at the default count; `phases` is one grid for every state and is left out
    Layer(visibility_sweep, STATE,
          lambda rho: tuple(x for scan in (visibility_sweep(rho, 64), visibility_sweep(rho))
                            for x in (scan.probabilities, scan.visibility))),
)

# Each scenario's knobs over a 9 x 9 line of edge values, outer knob first; combined runs r_m down the line.
EDGE_LINE = np.array([0.0, 1e-15, 1e-8, 0.25, 0.5, 0.7, 1.0 - 1e-10, 1.0 - 1e-15, 1.0])
OUTER, INNER = np.repeat(EDGE_LINE, EDGE_LINE.size), np.tile(EDGE_LINE, EDGE_LINE.size)
EDGE_LINE_CASES = [(s, dict(zip(s.knobs, (OUTER, INNER, INNER[::-1])))) for s in Scenario]


def edge_line_states() -> dict:
    """The 81 states of each scenario's edge line, by scenario."""
    return {s: scenario_densities(s, ScenarioParams(**knobs)) for s, knobs in EDGE_LINE_CASES}
