"""Construction of the system-meter-environment states of the four scenarios.

Conventions (fixed globally):
  * qubit basis |up> = (1, 0), |down> = (0, 1)
  * tensor order A (x) B (x) environments, basis {uu, ud, du, dd} on A(x)B
  * amplitude signs follow the source superposition sqrt(r)|up> - sqrt(1-r)|down>

The monitoring and decoherence couplings are one-shot isometries: the meter
coupling is a rotation of B controlled on A, and each environment coupling
appends a fresh qubit entangled with one branch.  All of them are real, so
every amplitude and density matrix built here is float64.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


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

    A knob may also be an array over many points, checked once as a whole.  If any knob is
    an array, all four become new arrays of their broadcast shape (knob shapes that do not
    broadcast raise ValueError): each closed form gives one value per point in that shape,
    each state builder one state per point; ``scenario_density`` takes one point.
    """

    r: float | np.ndarray = 0.5
    d: float | np.ndarray = 0.0
    r_s: float | np.ndarray = 1.0
    r_m: float | np.ndarray = 1.0

    def __post_init__(self):
        names, arrays = ("r", "d", "r_s", "r_m"), False
        for name in names:
            value = _check_unit_interval(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if type(value) is not float:  # an array: cheaper to test than isinstance on the all-float path
                arrays = True
        if arrays:
            try:
                shape = np.broadcast(self.r, self.d, self.r_s, self.r_m).shape
            except ValueError:
                shapes = {name: np.shape(getattr(self, name)) for name in names}
                raise ValueError(f"knob shapes {shapes} do not broadcast together") from None
            for name in names:
                object.__setattr__(self, name, np.full(shape, getattr(self, name)))


def _matrix_2x2(shape: tuple, a, b, c, d) -> np.ndarray:
    """Real [[a, b], [c, d]] (float64) at every point of a knob array of the given shape: (*shape, 2, 2)."""
    m = np.empty(shape + (2, 2))
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def _meter_rotation(d) -> np.ndarray:
    """Rotation of B on the A=down branch; columns are the images of |up>, |down>."""
    o = np.sqrt(1.0 - d * d)
    return _matrix_2x2(np.shape(d), o, d, -d, o)


def _checked_norms(psi: np.ndarray) -> np.ndarray:
    """Stacked amplitudes (N, ...) whose every state has unit norm within 1e-12."""
    flat = psi.reshape(len(psi), math.prod(psi.shape[1:]))
    norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ValueError(f"state norm {norms[np.argmax(np.abs(norms - 1.0))]} is not 1 within 1e-12")
    return psi


def _decohere(psi: np.ndarray, factor: str, r) -> np.ndarray:
    """Append to each stacked state (N, 2, 2, ...) an environment qubit coupled to factor ``factor`` ("A" or "B")
    at robustness r[n], and check every norm.  The environment starts in |down>; the up-branch of A, or the
    down-branch of B, leaves it there, and the other branch turns it into sqrt(1 - r^2)|up> + r|down>."""
    leak = np.sqrt(1.0 - r * r)
    if factor == "A":
        return _checked_norms(np.einsum("nk...,nke->nk...e", psi, _matrix_2x2(np.shape(r), 0.0, 1.0, leak, r)))
    return _checked_norms(np.einsum("njk...,nke->njk...e", psi, _matrix_2x2(np.shape(r), leak, r, 0.0, 1.0)))


def scenario_amplitudes(scenario: Scenario, params: ScenarioParams) -> np.ndarray:
    """Pure states of the scenario at the points of ``params`` (knobs flattened in C order), before
    any trace: shape (N, 2, 2[, 2][, 2]), factors A, B, then ES if the system decoheres and EM if
    the meter does."""
    r, d, r_s, r_m = (np.reshape(knob, -1) for knob in (params.r, params.d, params.r_s, params.r_m))
    if scenario is not Scenario.FREE and np.any(r != 0.5):
        raise ValueError(f"scenario {scenario.value} requires the balanced path weight r = 1/2")
    # psi[n, a, b, environments...]: source on A, then B in |down> rotated on the A=down branch.
    psi = np.zeros((r.size, 2, 2))
    psi[..., 1] = _checked_norms(np.stack((np.sqrt(r), -np.sqrt(1.0 - r)), axis=-1))
    psi[:, 1] = np.einsum("nij,nj->ni", _meter_rotation(d), psi[:, 1])
    psi = _checked_norms(psi)
    if scenario in (Scenario.SYSTEM, Scenario.COMBINED):
        psi = _decohere(psi, "A", r_s)
    if scenario in (Scenario.METER, Scenario.COMBINED):
        psi = _decohere(psi, "B", r_m)
    return psi


def _gram(psi: np.ndarray, environment: bool = False) -> np.ndarray:
    """Of amplitudes (N, 2, 2, ...) viewed as (N, 4, k): psi psi^T on A(x)B, or psi^T psi on the environments."""
    psi = psi.reshape(len(psi), 4, math.prod(psi.shape[3:]))
    return psi.swapaxes(-1, -2) @ psi if environment else psi @ psi.swapaxes(-1, -2)


def scenario_densities(scenario: Scenario, params: ScenarioParams) -> np.ndarray:
    """Stack of A(x)B density matrices at the points of ``params``, shape (N, 4, 4): the states
    of ``scenario_amplitudes`` with their environments traced out."""
    return _gram(scenario_amplitudes(scenario, params))


def environment_densities(scenario: Scenario, params: ScenarioParams) -> np.ndarray:
    """Stack of environment density matrices at the points of ``params``, shape (N, k, k), k = 1 (free), 2 (system,
    meter) or 4 (combined): A(x)B traced out of ``scenario_amplitudes``, so each has its A(x)B state's entropy."""
    return _gram(scenario_amplitudes(scenario, params), environment=True)


def scenario_density(params: ScenarioParams, scenario: Scenario) -> np.ndarray:
    """The 4x4 A(x)B density matrix of one point: the one-point ``scenario_densities`` stack."""
    if isinstance(params.d, np.ndarray):  # if any knob is an array, all are
        raise ValueError("scenario_density takes one point; use scenario_densities for arrays of knobs")
    return scenario_densities(scenario, params)[0]

