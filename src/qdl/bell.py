"""Bell-CHSH analysis: correlation tensor, Horodecki criterion, closed forms,
a brute-force optimizer over measurement settings, and the violation threshold.

The optimizer exists as an independent check on the analytic route: it knows
nothing about eigenvalues, it runs the alternating (see-saw) maximization of
the CHSH value from many deterministic starting points, using only the
correlation tensor and vector norms.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, _as_hermitian_state, _float_or_array, hermitian_eigenvalues
from .states import Scenario, ScenarioParams
from .visibility import unpredictability

VIOLATION_TOL = 1e-9

_PAULI_KRON = np.array([[np.kron(PAULIS[i], PAULIS[j]) for j in range(3)] for i in range(3)])  # (3, 3, 4, 4)

# Sweep budget of the CHSH see-saw, read at each call.  Plain sweeps converge
# linearly, and slowly where the two smaller singular values of T nearly
# coincide; from sweep _PLAIN_SWEEPS on, a safeguarded extrapolation step
# (`_extrapolate`) stops such states within a few hundred sweeps.
SEESAW_SWEEPS = 3000
MAX_RESTARTS = 1024  # each state carries (2, restarts, 3) settings per party

_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)
_VALUE_STALL_TOL = 1e-13  # plain phase: stop on the first sweep that gains less
_PLAIN_SWEEPS = 20
_STEP_START, _STEP_CAP = 0.5, 1e6  # extrapolation factor beta: first value and bound
_STEP_STALL_TOL, _STEP_STALLS = 1e-14, 2  # extrapolated phase: stop after 2 sweeps in a row that gain less


@dataclass(frozen=True)
class BellResult:
    """Maximal CHSH value by the methods that were run."""

    b_horodecki: float
    b_closed_form: float | None = None
    b_brute: float | None = None
    violates: bool = False
    settings: np.ndarray | None = None
    brute_converged: bool = True


def correlation_tensor(rho: np.ndarray) -> np.ndarray:
    """3x3 matrix of spin correlators T_ij = Tr[rho (sigma_i x sigma_j)].

    A stack of states (..., 4, 4) gives a stack of tensors (..., 3, 3).
    """
    vals = np.einsum("...kl,ijlk->...ij", _as_hermitian_state(rho), _PAULI_KRON)
    return vals.real.copy()  # |Im T_ij| <= 4 max|rho - rho^dag| / 2 < 2e-10 for a Hermitian state


def horodecki_m(rho: np.ndarray) -> float | np.ndarray:
    """Sum of the two largest eigenvalues of T^T T; an array over a stack of states."""
    t = correlation_tensor(rho)
    evals = hermitian_eigenvalues(np.swapaxes(t, -1, -2) @ t)
    return _float_or_array(evals[..., 0] + evals[..., 1])


def horodecki_bmax(rho: np.ndarray) -> float | np.ndarray:
    """Maximal CHSH value 2 sqrt(M) over all measurement settings; an array over a stack of states."""
    return _float_or_array(2.0 * np.sqrt(np.maximum(0.0, horodecki_m(rho))))


def violates_chsh(b_max: float) -> bool:
    return b_max > 2.0 + VIOLATION_TOL


def bell_closed_form(scenario: Scenario, params: ScenarioParams) -> float | np.ndarray:
    """Scenario-specific analytic maximum of the CHSH value; an array over array knobs."""
    d2 = params.d * params.d
    if scenario is Scenario.FREE:
        u = unpredictability(params)
        m = 1.0 + d2 * u * u
    elif scenario is Scenario.SYSTEM:
        m = params.r_s * params.r_s + d2
    elif scenario is Scenario.METER:
        rm2 = params.r_m * params.r_m
        m = (1.0 - rm2) * ((1.0 - d2) * (1.0 - d2)) + rm2 + d2
    else:
        rs2, rm2 = params.r_s * params.r_s, params.r_m * params.r_m
        m = d2 * (1.0 - rm2) * (d2 - rs2) + d2 * rm2 + rs2
    return _float_or_array(2.0 * np.sqrt(np.maximum(0.0, m)))


def _unit_vectors(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,) or np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-12):
        raise ValueError(f"{name} must be a unit Bloch vector")
    return v


def _spin_operator(v: np.ndarray) -> np.ndarray:
    """v.sigma, with a leading stack shape taken from v (..., 3)."""
    return sum(v[..., i, None, None] * PAULIS[i] for i in range(3))


def chsh_value(rho: np.ndarray, a, a2, b, b2) -> float | np.ndarray:
    """CHSH combination C(a,b) + C(a,b') + C(a',b) - C(a',b'), with C(x, y) = Tr[rho (x.sigma x y.sigma)].

    A stack of states (..., 4, 4) with settings (..., 3) gives one value per
    state; a single state uses the same arithmetic.
    """
    # complex even for real input: einsum's loop for real x complex rounds otherwise
    rho = np.asarray(_as_hermitian_state(rho), dtype=complex)
    op_a, op_a2, op_b, op_b2 = (
        _spin_operator(_unit_vectors(v, name)) for v, name in ((a, "a"), (a2, "a'"), (b, "b"), (b2, "b'"))
    )

    def c(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Kronecker product: block (i, j) is x[i, j] * y
        op = (x[..., :, None, :, None] * y[..., None, :, None, :]).reshape(x.shape[:-2] + (4, 4))
        return np.einsum("...kl,...lk->...", rho, op).real

    return _float_or_array(c(op_a, op_b) + c(op_a, op_b2) + c(op_a2, op_b) - c(op_a2, op_b2))


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


@functools.lru_cache(maxsize=16)
def _start_vectors(restarts: int, seed: int) -> np.ndarray:
    """Starting settings (a, a', b, b') of every restart as Bloch vectors, shape (4, R, 3) (read-only, cached).

    The angles (theta, phi) of each vector are Halton points, deterministic for a given seed.
    """
    offset = 1 + 61 * int(seed)
    x = np.array([[_halton(offset + i, base) for base in _HALTON_BASES] for i in range(restarts)])
    x *= (math.pi, 2.0 * math.pi) * 4
    start = np.stack([_bloch_vectors(x[:, 2 * k], x[:, 2 * k + 1]) for k in range(4)])
    start.flags.writeable = False
    return start


def _bloch_vectors(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


# Rows give (v + v', v - v') from (v, v'); a factor of +-1 is exact and each
# sum rounds once, as an add or subtract does.
_PAIR_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])


def _seesaw_half(fixed: np.ndarray, matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Set `vectors` in place to the best pair for one party with the other party's pair `fixed` held.

    `fixed` and `vectors` stack (v, v') per state and restart, shape (N, 2, R, 3),
    and `matrix` is (N, 1, 3, 3); the optimal partners are the unit vectors
    along (v + v') M and (v - v') M.  Returns those two norms (N, 2, R), whose
    sum is the CHSH value the pair reaches.  A zero row leaves the objective
    flat in that vector, so it keeps its previous value.
    """
    raw = (_PAIR_SIGNS @ fixed.reshape(len(fixed), 2, -1)).reshape(fixed.shape) @ matrix
    norm = np.einsum("...pmi,...pmi->...pm", raw, raw)
    np.sqrt(norm, out=norm)
    if norm.all():
        np.divide(raw, norm[..., None], out=vectors)
    else:
        live = norm > 0.0
        vectors[...] = np.where(live[..., None], raw / np.where(live, norm, 1.0)[..., None], vectors)
    return norm


def _check_seesaw_args(restarts: int, seed: int) -> None:
    for name, value in (("restarts", restarts), ("seed", seed)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"restarts must lie in [1, {MAX_RESTARTS}], got {restarts}")
    if seed < 0:
        raise ValueError("seed must be non-negative")


def _extrapolate(t_t, alice, bob, values, old_bob, step) -> None:
    """Try one extrapolation step per restart and keep it where it raises the value.

    Bob's pair moves along its change since `old_bob`, two sweeps back, to the
    unit rows of bob + step (bob - old_bob), and Alice answers it with her best
    pair.  Where that value is strictly higher, (alice, bob, values) take the
    trial and `step` doubles (up to _STEP_CAP); elsewhere they stay and `step`
    halves.  So (alice, bob) always reach `values`, and no value decreases.
    """
    trial = bob - old_bob
    trial *= step[:, None, :, None]
    trial += bob
    norm = np.einsum("...pmi,...pmi->...pm", trial, trial)
    trial /= np.sqrt(norm, out=norm)[..., None]  # |(1 + step) b - step b_old| >= 1 for unit rows, so never 0
    trial_alice = alice.copy()  # a zero row keeps Alice's vector, as in a plain sweep
    norm = _seesaw_half(trial, t_t, trial_alice)
    trial_values = norm[:, 0] + norm[:, 1]
    kept = trial_values > values
    np.copyto(alice, trial_alice, where=kept[:, None, :, None])
    np.copyto(bob, trial, where=kept[:, None, :, None])
    np.maximum(values, trial_values, out=values)
    step *= np.where(kept, 2.0, 0.5)
    np.minimum(step, _STEP_CAP, out=step)


def _best_settings(alice: np.ndarray, bob: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each state's settings (a, a', b, b') at its best restart, ties to the lowest, as unit rows (M, 4, 3)."""
    best = np.argmax(values, axis=1)
    rows = np.arange(len(values))
    settings = np.concatenate((alice[rows, :, best], bob[rows, :, best]), axis=1)
    settings /= np.linalg.norm(settings, axis=-1, keepdims=True)
    return settings


def _seesaw(rho: np.ndarray, restarts: int, seed: int):
    """Multi-start see-saw over a stack of states (N, 4, 4).

    Returns the best settings (N, 4, 3) as unit rows (a, a', b, b') and the
    per-state convergence flags (N,).  The first _PLAIN_SWEEPS sweeps are
    plain alternating maximization, and a state stops on the first of them
    whose best value gains less than _VALUE_STALL_TOL.  Each later sweep is a
    plain sweep followed by the safeguarded extrapolation of `_extrapolate`,
    and a state stops after _STEP_STALLS sweeps in a row whose best value
    gains less than _STEP_STALL_TOL.  Both phases use only T, mat-vec products
    and norms, never an eigenvalue.  The budget is SEESAW_SWEEPS sweeps, read
    at each call.  Every state runs exactly the sweeps it would run alone: a
    state leaves the active set on the sweep where it stops, and the active
    set is compacted only on such sweeps.
    """
    _check_seesaw_args(restarts, seed)
    t = correlation_tensor(rho)[:, None]  # (N, 1, 3, 3): one tensor for both vectors of a pair
    n = t.shape[0]
    start = _start_vectors(restarts, seed)
    alice = np.repeat(start[None, :2], n, axis=0)
    bob = np.repeat(start[None, 2:], n, axis=0)
    values = np.zeros((n, restarts))  # a budget of 0 returns restart 0's start
    # per active state: Bob's pairs at the end of the last two sweeps, (N, 2, 2, R, 3) from sweep _PLAIN_SWEEPS - 2
    # on, the extrapolation factors, and the sweeps in a row whose gain is below the phase's tolerance
    old_bob, step, slow = np.empty((n, 0)), np.full((n, restarts), _STEP_START), np.zeros(n, dtype=int)
    settings, converged = np.empty((n, 4, 3)), np.zeros(n, dtype=bool)
    active, prev_best = np.arange(n), np.full(n, -np.inf)
    for sweep in range(SEESAW_SWEEPS):
        t_t = np.swapaxes(t, -1, -2)
        _seesaw_half(bob, t_t, alice)
        norm = _seesaw_half(alice, t, bob)
        values = norm[:, 0] + norm[:, 1]
        if sweep >= _PLAIN_SWEEPS:
            _extrapolate(t_t, alice, bob, values, old_bob[:, sweep % 2], step)
        if sweep >= _PLAIN_SWEEPS - 2:  # allocated here, so that no stop in the plain phase compacts it unwritten
            old_bob = old_bob if sweep > _PLAIN_SWEEPS - 2 else np.empty((len(bob), 2) + bob.shape[1:])
            old_bob[:, sweep % 2] = bob
        best_now = values.max(axis=1)
        tol, stalls = (_VALUE_STALL_TOL, 1) if sweep < _PLAIN_SWEEPS else (_STEP_STALL_TOL, _STEP_STALLS)
        slow = (slow + 1) * (best_now - prev_best < tol)  # a sweep that gains tol or more resets it
        stalled = slow >= stalls
        if stalled.any():
            done = active[stalled]
            settings[done], converged[done] = _best_settings(alice[stalled], bob[stalled], values[stalled]), True
            if stalled.all():
                return settings, converged
            keep = ~stalled
            active, alice, bob, values, t, old_bob, step, slow, best_now = (
                a[keep] for a in (active, alice, bob, values, t, old_bob, step, slow, best_now)
            )
        prev_best = best_now
    settings[active] = _best_settings(alice, bob, values)  # the states the budget ran out on
    return settings, converged


def chsh_brute_force(
    rho: np.ndarray,
    restarts: int = 32,
    seed: int = 0,
) -> BellResult:
    """Maximize the CHSH value by a multi-start see-saw over measurement settings.

    For fixed b, b' the best a is T(b+b')/|T(b+b')| and the best a' is
    T(b-b')/|T(b-b')|; likewise b and b' from T^T(a+a') and T^T(a-a').  Each
    sweep applies both updates to every restart at once, so the value of every
    restart never decreases.  Plain sweeps converge linearly, and slowly where
    the two smaller singular values of T nearly coincide, so from sweep 20 on
    each sweep also extrapolates Bob's pair along its change over the last two
    sweeps and lets Alice answer it; a restart keeps that step only if its
    value rises, so the value still never decreases and b_brute stays a lower
    bound.  The search uses only the correlation tensor, mat-vec products and
    vector norms, never an eigenvalue, which keeps it independent of the
    Horodecki route.  Restarts are Halton points, so the whole search is
    deterministic.  Plain sweeps stop on the first sweep whose best value
    gains less than 1e-13, extrapolated ones after two sweeps in a row that
    gain less than 1e-14; exhausting the budget of SEESAW_SWEEPS sweeps flags
    the result unconverged but returns it.
    """
    if np.shape(rho) != (4, 4):  # entries are checked by horodecki_bmax
        raise ValueError(f"rho must be a 4x4 A(x)B density matrix (one, not a stack), got shape {np.shape(rho)}")
    b_h = horodecki_bmax(rho)  # first, so that a bad state is named as one, not as a stack of one
    settings, converged = _seesaw(np.asarray(rho)[None], restarts, seed)
    return BellResult(
        b_horodecki=b_h,
        b_brute=chsh_value(rho, *settings[0]),
        violates=violates_chsh(b_h),
        settings=settings[0],
        brute_converged=bool(converged[0]),
    )


def violation_threshold(scenario: Scenario, params: ScenarioParams) -> float | np.ndarray:
    """The minimal distinguishability d for a CHSH violation at the given robustness values.

    The threshold is the infimum of distinguishabilities giving B_max > 2; 1.0 means no admissible d violates.
    System and meter are the combined threshold at r_m = 1 and at r_s = 1.  If any knob is an array, the
    threshold is an array of the knobs' shape.  Whether a point violates is ``violates_chsh(bell_closed_form(...))``.
    """
    if scenario is Scenario.FREE:
        d_thr = np.where(unpredictability(params) > 0.0, 0.0, 1.0)
    else:
        r_s = 1.0 if scenario is Scenario.METER else params.r_s
        r_m = 1.0 if scenario is Scenario.SYSTEM else params.r_m
        d_thr = np.sqrt(_combined_threshold_sq(r_s, r_m))
    return _float_or_array(d_thr)


def _combined_threshold_sq(r_s: float | np.ndarray, r_m: float | np.ndarray) -> float | np.ndarray:
    rs2, rm2 = r_s * r_s, r_m * r_m
    # Analytic r_m -> 1 limit: the system-decoherence boundary d^2 = 1 - r_s^2.
    limit = 1.0 - rm2 < 1e-15
    denom = np.where(limit, 1.0, 1.0 - rm2)
    alpha = rs2 - rm2 / denom
    beta = (1.0 - rs2) / denom
    x = alpha / 2.0 + np.sqrt((alpha / 2.0) * (alpha / 2.0) + beta)  # at r_s = 1, beta = 0: x = max(alpha, 0)
    return _float_or_array(np.where(limit, np.maximum(0.0, 1.0 - rs2), np.minimum(1.0, np.maximum(0.0, x))))
