"""Construction of the system-meter-environment states and the gates acting on them.

Conventions (fixed globally):
  * qubit basis |up> = (1, 0), |down> = (0, 1)
  * tensor order A (x) B (x) environments, basis {uu, ud, du, dd} on A(x)B
  * amplitude signs follow the source superposition sqrt(r)|up> - sqrt(1-r)|down>

The monitoring and decoherence couplings are one-shot isometries: the meter
coupling is a rotation of B controlled on A, and each environment coupling
appends a fresh qubit entangled with one branch.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import PureState, partial_trace


class Scenario(enum.Enum):
    FREE = "free"
    SYSTEM = "system"
    METER = "meter"
    COMBINED = "combined"


def _check_unit_interval(name: str, value) -> float | np.ndarray:
    """The value as a float, or a float array if it is one, once every element lies in [0, 1]."""
    if isinstance(value, float) and 0.0 <= value <= 1.0:  # the common scalar case, without numpy
        return float(value)
    values = np.asarray(value, dtype=float)
    outside = ~((values >= 0.0) & (values <= 1.0))  # NaN is outside too
    if outside.any():
        raise ValueError(f"{name} must lie in [0, 1], got {values[outside].flat[0]}")
    return float(values) if values.ndim == 0 else values


@dataclass(frozen=True)
class ScenarioParams:
    """Knobs of the four scenarios.

    r     path weight of the source superposition (free scenario only; the
          decoherence scenarios require the balanced value 1/2)
    d     distinguishability of the meter coupling
    r_s   robustness of the system qubit against its environment
    r_m   robustness of the meter qubit against its environment

    A knob may also be an array over many points, checked once as a whole; the
    closed forms then return one value per point.  ``scenario_density`` takes one point.
    """

    r: float | np.ndarray = 0.5
    d: float | np.ndarray = 0.0
    r_s: float | np.ndarray = 1.0
    r_m: float | np.ndarray = 1.0

    def __post_init__(self):
        for name in ("r", "d", "r_s", "r_m"):
            object.__setattr__(self, name, _check_unit_interval(name, getattr(self, name)))


def _matrix_2x2(shape: tuple, a, b, c, d) -> np.ndarray:
    """Complex [[a, b], [c, d]] at every point of a knob array of the given shape: (*shape, 2, 2)."""
    m = np.empty(shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def _meter_rotation(d) -> np.ndarray:
    """Rotation of B on the A=down branch; columns are the images of |up>, |down>."""
    o = np.sqrt(1.0 - d * d)
    return _matrix_2x2(np.shape(d), o, d, -d, o)


def _environment_weights(control: str, r) -> np.ndarray:
    """weights[..., k, e]: amplitude for environment level e given control level k, robustness r.

    Environment basis: index 0 = |up>, 1 = |down>; it starts in |down>.  On A
    the up-branch is inert, on B the down-branch.
    """
    leak = np.sqrt(1.0 - r * r)
    if control == "A":
        return _matrix_2x2(np.shape(r), 0.0, 1.0, leak, r)
    return _matrix_2x2(np.shape(r), leak, r, 0.0, 1.0)


def input_state(r: float) -> PureState:
    """Source qubit sqrt(r)|up> - sqrt(1-r)|down> on factor A."""
    r = _check_unit_interval("r", r)
    amps = np.array([math.sqrt(r), -math.sqrt(1.0 - r)], dtype=complex)
    return PureState(amps, ("A",))


def couple_meter(state: PureState, d: float) -> PureState:
    """Attach the meter qubit B in |down> and monitor the path with strength d.

    Acts as the controlled rotation  |up>_A: B unchanged,
    |down>_A: |down>_B -> sqrt(1-d^2)|down>_B + d|up>_B  (unitary completion
    on |up>_B keeps the map an isometry for arbitrary inputs).
    """
    d = _check_unit_interval("d", d)
    if "B" in state.labels:
        raise ValueError("state already carries a meter factor B")
    psi = state.amps.reshape(state.dims)
    a_axis = state.axis_of("A")
    psi = np.moveaxis(psi, a_axis, 0)
    # Append B (initially |down>), then rotate B on the A=down branch.
    new = np.zeros((2,) + psi.shape[1:] + (2,), dtype=complex)
    new[..., 1] = psi
    new[1] = np.moveaxis(np.tensordot(_meter_rotation(d), new[1], axes=([1], [-1])), 0, -1)
    new = np.moveaxis(new, 0, a_axis)
    return PureState(new.reshape(-1), state.labels + ("B",))


def _decohere(state: PureState, control: str, robustness: float, env_label: str) -> PureState:
    """Append environment qubit entangled with the control=|down-branch-of-map|."""
    if env_label in state.labels:
        raise ValueError(f"state already carries environment {env_label}")
    axis = state.axis_of(control)
    psi = np.moveaxis(state.amps.reshape(state.dims), axis, 0)
    new = np.einsum("k...,ke->k...e", psi, _environment_weights(control, robustness))
    new = np.moveaxis(new, 0, axis)
    return PureState(new.reshape(-1), state.labels + (env_label,))


def decohere_system(state: PureState, r_s: float) -> PureState:
    """Couple an environment qubit ES to the |down> branch of A (Eve on the system)."""
    r_s = _check_unit_interval("r_s", r_s)
    return _decohere(state, "A", r_s, "ES")


def decohere_meter(state: PureState, r_m: float) -> PureState:
    """Couple an environment qubit EM to the |up> branch of B (Eve on the meter)."""
    r_m = _check_unit_interval("r_m", r_m)
    return _decohere(state, "B", r_m, "EM")


def build_joint_state(params: ScenarioParams, scenario: Scenario) -> PureState:
    """Full pure state of the scenario on A (x) B (x) environments."""
    if scenario is not Scenario.FREE and params.r != 0.5:
        raise ValueError(f"scenario {scenario.value} requires the balanced path weight r = 1/2")
    state = couple_meter(input_state(params.r), params.d)
    if scenario is Scenario.FREE:
        return state
    if scenario is Scenario.SYSTEM:
        return decohere_system(state, params.r_s)
    if scenario is Scenario.METER:
        return decohere_meter(state, params.r_m)
    return decohere_meter(decohere_system(state, params.r_s), params.r_m)


def reduce_to_ab(state: PureState) -> np.ndarray:
    """Trace out every environment factor, leaving the 4x4 A(x)B density matrix."""
    return partial_trace(state, ("A", "B"))


def scenario_density(params: ScenarioParams, scenario: Scenario) -> np.ndarray:
    """Convenience: build the joint state and reduce it to A(x)B."""
    return reduce_to_ab(build_joint_state(params, scenario))


def _checked_norms(psi: np.ndarray) -> np.ndarray:
    """Stacked amplitudes (N, ...) whose every state has unit norm within 1e-12."""
    norms = np.sqrt(np.sum(np.abs(psi) ** 2, axis=tuple(range(1, psi.ndim))))
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ValueError(f"state norm {norms[np.argmax(np.abs(norms - 1.0))]} is not 1 within 1e-12")
    return psi


def scenario_densities(scenario: Scenario, *, r=0.5, d=0.0, r_s=1.0, r_m=1.0) -> np.ndarray:
    """Stack of A(x)B density matrices over the broadcast knob arrays, shape (N, 4, 4).

    Point k is the state ``scenario_density`` builds from the k-th knob values
    (flattened in C order): the same isometries and gate matrices, applied to
    all points at once.
    """
    knobs = ScenarioParams(r=r, d=d, r_s=r_s, r_m=r_m)
    r, d, r_s, r_m = (values.reshape(-1) for values in np.broadcast_arrays(knobs.r, knobs.d, knobs.r_s, knobs.r_m))
    if scenario is not Scenario.FREE and np.any(r != 0.5):
        raise ValueError(f"scenario {scenario.value} requires the balanced path weight r = 1/2")
    # psi[n, a, b, environments...]: source on A, then B in |down> rotated on the A=down branch.
    psi = np.zeros((r.size, 2, 2), dtype=complex)
    psi[..., 1] = _checked_norms(np.stack((np.sqrt(r), -np.sqrt(1.0 - r)), axis=-1))
    psi[:, 1] = np.einsum("nij,nj->ni", _meter_rotation(d), psi[:, 1])
    psi = _checked_norms(psi)
    if scenario in (Scenario.SYSTEM, Scenario.COMBINED):
        psi = _checked_norms(_decohere_stack(psi, 1, _environment_weights("A", r_s)))
    if scenario in (Scenario.METER, Scenario.COMBINED):
        psi = _checked_norms(_decohere_stack(psi, 2, _environment_weights("B", r_m)))
    psi = psi.reshape(r.size, 4, -1)
    return psi @ psi.conj().swapaxes(-1, -2)


def _decohere_stack(psi: np.ndarray, axis: int, weights: np.ndarray) -> np.ndarray:
    """Append an environment factor entangled with factor ``axis`` of each stacked state."""
    psi = np.moveaxis(psi, axis, 1)
    new = np.einsum("nk...,nke->nk...e", psi, weights)
    return np.moveaxis(new, 1, axis)


def _apply_a_unitary(target, u: np.ndarray):
    """Apply a single-qubit unitary on factor A of a PureState or 4x4 matrix."""
    if isinstance(target, PureState):
        axis = target.axis_of("A")
        psi = target.amps.reshape(target.dims)
        psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [axis])), 0, axis)
        return PureState(psi.reshape(-1), target.labels)
    rho = np.asarray(target, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expected a PureState or a 4x4 A(x)B density matrix")
    full = np.kron(u, np.eye(2, dtype=complex))
    return full @ rho @ full.conj().T


def phase_shift(target, phi: float):
    """Multiply the |up>_A amplitude by exp(-i phi); |down>_A is untouched."""
    if not math.isfinite(phi):
        raise ValueError("phase must be finite")
    u = np.diag([np.exp(-1j * phi), 1.0]).astype(complex)
    return _apply_a_unitary(target, u)


ROTATION_A = np.array([[1, -1], [1, 1]], dtype=complex) / math.sqrt(2)


def interference_rotation(target):
    """Recombination rotation on A: |up> -> (|up>+|down>)/sqrt2, |down> -> (-|up>+|down>)/sqrt2."""
    return _apply_a_unitary(target, ROTATION_A)
