"""Verification suites: numeric cross-checks of every closed-form relation,
boundary, region claim and published-formula discrepancy the package handles.

Each suite returns a SuiteResult with a max residual, which passes below its tolerance; the
discrepancy probes additionally carry a table of printed-vs-adopted values so
that no adjudicated formula is patched silently.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import figures
from .bell import _check_seesaw_args, _seesaw, bell_closed_form, chsh_value, horodecki_bmax, violates_chsh
from .bell import violation_threshold
from .figures import _grid_chunks
from .infotheory import entropy_closed_form, info_threshold, mutual_information, ppt_check
from .infotheory import SEPARABILITY_TOL, printed_meter_info_threshold, printed_meter_s_b
from .states import Scenario, ScenarioParams, scenario_densities
from .visibility import _identity_residual, _ratio_residual, predictability, visibility_analytic, visibility_sweep

IDENTITY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
BRUTE_TOL = 1e-5
BOUNDARY_TOL = 1e-9
ENTROPY_TOL = 1e-9
REGION_MARGIN = 1e-6

DEFAULT_RESOLUTION = 13
BRUTE_RESOLUTION = 5
SWEEP_RESOLUTION = 5
MAX_RESOLUTION = 201  # the combined-scenario suites evaluate resolution^3 points
METER_THRESHOLD_ROBUSTNESS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)  # r_m rows of the meter threshold table

# The live knobs of each scenario, outer grid axis first.
_AXES = {
    Scenario.FREE: ("r", "d"),
    Scenario.SYSTEM: ("d", "r_s"),
    Scenario.METER: ("d", "r_m"),
    Scenario.COMBINED: ("d", "r_s", "r_m"),
}


@dataclass
class SuiteResult:
    name: str
    max_residual: float
    tolerance: float
    lines: list[str] = field(default_factory=list)
    worst_point: dict | None = None  # scenario and live knobs of the largest residual
    points: int = 0  # number of residuals the maximum was taken over
    passed = property(lambda self: self.max_residual < self.tolerance)  # a NaN residual fails


class _States:
    """A stack of states (rho) and its matrix-route values, each solved on first use."""

    def __init__(self, rho: np.ndarray):
        self.rho, self.points = rho, len(rho)

    bmax = cached_property(lambda self: horodecki_bmax(self.rho))
    info = cached_property(lambda self: mutual_information(self.rho))
    ppt = cached_property(lambda self: ppt_check(self.rho))
    visibility = cached_property(lambda self: visibility_analytic(self.rho))


class _Chunk(_States):
    """Points of one scenario (coords, at 1-D knob arrays) and their states, with their values."""

    def __init__(self, scenario: Scenario, knobs: dict):
        self.scenario, self.coords = scenario, ScenarioParams(**knobs)
        # Built now, while a grid's consumer still holds the previous chunk: freed first, its
        # states would let malloc trim the heap and page the next stack in afresh.
        super().__init__(scenario_densities(scenario, self.coords))
        self.rho.flags.writeable = False  # shared by the suites of a run


# The chunks of the running run_suites call, by scenario and knob bytes, for its later suites to read; else None.
_TABLE: ContextVar[dict | None] = ContextVar("qdl_verify_table", default=None)


def _chunk(scenario: Scenario, **knobs) -> _Chunk:
    """The chunk of the scenario at the knobs: within run_suites, the table's own, kept there while
    the kept chunks hold at most 2 * figures.CHUNK_POINTS points (past that, a new chunk each call)."""
    table = _TABLE.get()
    if table is None:
        return _Chunk(scenario, knobs)
    key = (scenario, *((name, values.tobytes()) for name, values in knobs.items()))
    chunk = table.get(key)
    if chunk is None:
        chunk = _Chunk(scenario, knobs)
        if sum(kept.points for kept in table.values()) + chunk.points <= 2 * figures.CHUNK_POINTS:
            table[key] = chunk
    return chunk


def _grid(steps: int, *scenarios: Scenario):
    """Each scenario's grid over its live knobs in row-major order, as chunks (`_chunk`)."""
    for scenario in scenarios:
        axes = _AXES[scenario]
        for line in _grid_chunks(np.linspace(0.0, 1.0, steps), len(axes)):
            yield _chunk(scenario, **dict(zip(axes, line)))


def _reduce(name: str, tolerance: float, pairs) -> SuiteResult:
    """SuiteResult of the largest residual (at least 0) over (chunk, residuals) pairs and the first
    point holding it.  A NaN residual is the largest of all, so it fails the suite."""
    worst, point, points = -math.inf, None, 0
    for c, residual in pairs:
        points += residual.size
        k = int(np.argmax(residual))  # the first NaN, else the first maximum
        if residual[k] > worst or (np.isnan(residual[k]) and not np.isnan(worst)):
            worst = float(residual[k])
            point = {"scenario": c.scenario.value, **{a: float(getattr(c.coords, a)[k]) for a in _AXES[c.scenario]}}
    worst = float(np.maximum(0.0, worst))  # np.maximum keeps a NaN
    return SuiteResult(name, worst, tolerance, [], point, points)


def _boundary(scenario: Scenario, **robustness) -> _Chunk:
    """The chunk of the scenario on its violation boundary, one point per point of the robustness
    knobs (arrays): d is the package's own threshold, violation_threshold(...)."""
    d = violation_threshold(scenario, ScenarioParams(**robustness))
    return _chunk(scenario, d=d, **robustness)


def suite_identities(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Complementarity identities of all four scenarios, analytic visibility."""
    residuals = ((c, _identity_residual(c.scenario, c.coords, c.visibility)) for c in _grid(resolution, *_AXES))
    return _reduce("identities", IDENTITY_TOL, residuals)


def _distinct(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct states of a stack and the inverse that rebuilds it; rows compare as bytes, so -0.0 != 0.0."""
    keys = rho.reshape(len(rho), -1).view(np.dtype((np.void, rho[0].nbytes))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    return distinct.view(rho.dtype).reshape((-1,) + rho.shape[1:]), inverse


def _solve_runs(chunks, layer):
    """(chunk, its values) for each of the chunks, in order.  layer names a `_States` value, which each chunk keeps
    (and is not solved again), or is an oracle, a function of a state stack.  Runs of consecutive chunks holding at
    most 2 * figures.CHUNK_POINTS points (a larger chunk alone) are solved at once, each state to its one-state bits:
    a named layer on the states as built, an oracle (far costlier per state) on the distinct ones, as grids meet."""
    named, batch = isinstance(layer, str), []
    for chunk in itertools.chain(chunks, [None]):  # None ends the last run
        if batch and (chunk is None or sum(c.points for c in batch) + chunk.points > 2 * figures.CHUNK_POINTS):
            kept = [vars(c) if named else {} for c in batch]  # a cached_property keeps its value under its name
            todo = [k for k, values in enumerate(kept) if layer not in values]
            if todo:
                stack = np.concatenate([batch[k].rho for k in todo])
                states, inverse = (stack, np.arange(len(stack))) if named else _distinct(stack)
                solved = getattr(_States(states), layer) if named else layer(states)
                for k, rows in zip(todo, np.split(inverse, np.cumsum([batch[k].points for k in todo[:-1]]))):
                    kept[k][layer] = solved[rows] if isinstance(solved, np.ndarray) else dataclasses.replace(
                        solved, **{name: v[rows] for name, v in vars(solved).items() if v is not None})
                del stack, states, inverse, solved  # before the next run is solved
            yield from ((c, values[layer]) for c, values in zip(batch, kept))
            batch = []
        batch.append(chunk)


def suite_sweep_agreement(resolution: int = SWEEP_RESOLUTION) -> SuiteResult:
    """Fringe-definition visibility (phase sweep) against the analytic shortcut."""
    sweeps = _solve_runs(_grid(resolution, *_AXES), lambda rho: visibility_sweep(rho).visibility)
    return _reduce("visibility_sweep", 1e-5, ((c, np.abs(v - c.visibility)) for c, v in sweeps))


def suite_closed_form(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Analytic B_max of each scenario against the matrix-route Horodecki value."""
    bmax = _solve_runs(_grid(resolution, *_AXES), "bmax")
    gaps = ((c, np.abs(bell_closed_form(c.scenario, c.coords) - b)) for c, b in bmax)
    return _reduce("bell_closed_form", CLOSED_FORM_TOL, gaps)


def suite_brute(resolution: int = BRUTE_RESOLUTION, restarts: int = 32, seed: int = 0) -> SuiteResult:
    """Brute-force CHSH maximization against the Horodecki value.

    The optimizer must reach the analytic maximum from below: residual is max(b_horodecki - b_brute,
    b_brute - b_horodecki - 1e-6, 0), b_horodecki the chunks' kept B_max.  Like the phase sweep, the see-saw runs
    once on each distinct state of the four grids (110 of 200 at the default cap), in the sweeps it runs alone.
    """
    chunks = (c for c, _ in _solve_runs(_grid(resolution, *_AXES), "bmax"))
    b_brute = _solve_runs(chunks, lambda rho: chsh_value(rho, *np.moveaxis(_seesaw(rho, restarts, seed)[0], 1, 0)))
    return _reduce("chsh_brute_force", BRUTE_TOL, ((c, np.maximum(c.bmax - b, b - c.bmax - 1e-6)) for c, b in b_brute))


def suite_boundaries(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """|B_max - 2| at violation_threshold's d of the system, meter and combined scenarios."""
    line = np.linspace(0.0, 1.0, resolution)
    knobs = [
        (Scenario.SYSTEM, {"r_s": line}),
        (Scenario.METER, {"r_m": np.linspace(0.0, 1.0 / math.sqrt(2.0), resolution)}),
        *((Scenario.COMBINED, {"r_s": r_s, "r_m": r_m}) for r_s, r_m in _grid_chunks(line, 2)),
    ]
    boundaries = _solve_runs((_boundary(scenario, **robustness) for scenario, robustness in knobs), "bmax")
    return _reduce("boundary_exactness", BOUNDARY_TOL, ((c, np.abs(b - 2.0)) for c, b in boundaries))


def suite_ppt_region(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Entanglement exactly on {d > 0 and r > 0}, with one negative PT eigenvalue.

    Residual is the number of misclassified grid points; a pass also requires
    at least one entangled-but-nonviolating point in the meter scenario (the
    hidden-nonlocality gap).  The gap needs an interior meter point, so it is
    searched on the meter grid of max(resolution, 3) steps per axis.
    """

    def check(chunk):  # (misclassified points, whether an entangled meter point does not violate CHSH)
        coords, rep = chunk.coords, chunk.ppt
        expected = (coords.d > REGION_MARGIN) & (getattr(coords, _AXES[chunk.scenario][1]) > REGION_MARGIN)
        entangled = rep.negativity > SEPARABILITY_TOL
        single_negative = np.sum(rep.ppt_spectrum < -SEPARABILITY_TOL, axis=-1) == 1
        both = entangled & expected
        wrong = int(np.sum(entangled != expected)) + int(np.sum(both & ~single_negative))
        return wrong, chunk.scenario is Scenario.METER and bool(np.any(both & ~violates_chsh(chunk.bmax)))

    checks = [check(c) for c, _ in _solve_runs(_grid(resolution, Scenario.SYSTEM, Scenario.METER), "ppt")]
    gaps = checks if resolution > 2 else [check(c) for c, _ in _solve_runs(_grid(3, Scenario.METER), "ppt")]
    mismatches = sum(wrong for wrong, _ in checks) + (not any(hidden for _, hidden in gaps))
    return SuiteResult("ppt_region", float(mismatches), 0.5)


def suite_entropy_forms(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Closed-form entropies against the eigenvalue route, both scenarios,
    plus the system information threshold against boundary mutual information."""

    def gap(chunk):
        m, c = chunk.info, entropy_closed_form(chunk.scenario, chunk.coords)
        return np.max(np.abs([c.s_a - m.s_a, c.s_b - m.s_b, c.s_ab - m.s_ab, c.i_ab - m.i_ab]), axis=0)

    boundary = _boundary(Scenario.SYSTEM, r_s=np.linspace(0.0, 1.0, resolution))
    chunks = _solve_runs(itertools.chain(_grid(resolution, Scenario.SYSTEM, Scenario.METER), [boundary]), "info")
    grids = [(c, gap(c)) for c, _ in chunks if c is not boundary]  # the boundary's info solved with the grids'
    threshold_gap = np.abs(info_threshold(Scenario.SYSTEM, boundary.coords) - boundary.info.i_ab)
    return _reduce("entropy_closed_forms", ENTROPY_TOL, [*grids, (boundary, threshold_gap)])


def suite_threshold_consistency(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """System scenario: the violation region has three equivalent descriptions.

    d^2 + r^2 > 1  iff  B_max > 2  iff  I_AB > threshold(r), checked away from
    that boundary by margin 1e-6; and V > 1 - d^2 iff B_max > 2, checked away
    from the V = 1 - d^2 surface by the same margin (the two surfaces touch
    wherever the visibility itself degenerates).
    """
    mismatches = 0
    for chunk in _grid(resolution, Scenario.SYSTEM):
        d, r = chunk.coords.d, chunk.coords.r_s
        bell = violates_chsh(chunk.bmax)
        info = chunk.info.i_ab > info_threshold(Scenario.SYSTEM, chunk.coords)
        geometric = d * d + r * r > 1.0
        off_boundary = np.abs(d * d + r * r - 1.0) > REGION_MARGIN
        mismatches += int(np.sum(off_boundary & ((geometric != bell) | (bell != info))))
        v, lrt = chunk.visibility, 1.0 - d * d
        mismatches += int(np.sum((np.abs(v - lrt) > REGION_MARGIN) & ((v > lrt) != bell)))
    return SuiteResult("info_threshold_consistency", float(mismatches), 0.5)


def probe_predictability(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Adjudicate P = |1-2r| against the published P = sqrt|1-2r| via identity (V^2/(1-P^2) + D^2 = 1)."""

    chunks = list(_grid(resolution, Scenario.FREE))  # held, so that both forms read one build of the grid

    def identity(p_of):  # the SuiteResult of the identity with P = p_of(coords)
        residuals = ((c, _ratio_residual(c.visibility, 1.0 - p_of(c.coords) ** 2, c.coords.d)) for c in chunks)
        return _reduce("discrepancy_p_definition", IDENTITY_TOL, residuals)

    res, printed = identity(predictability), identity(lambda q: np.sqrt(predictability(q)))
    res.lines = [
        "predictability definition vs the visibility identity:",
        f"  P = |1-2r|       max identity residual = {res.max_residual:.3e}   (adopted)",
        f"  P = sqrt|1-2r|   max identity residual = {printed.max_residual:.3e}   (published; rejected)",
    ]
    return res


def probe_ppt_polarity(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Adjudicate partial-transpose polarity: entangled states must show a negative eigenvalue.

    The published criterion sentence reads 'inseparable iff the partial
    transposition is non-negative', inverting the standard test; the same
    source elsewhere describes entangled states by their single negative
    eigenvalue, so the standard polarity is the consistent reading.
    """
    entangled_points = with_negative_eig = 0
    for chunk in _grid(resolution, Scenario.SYSTEM):
        coords, rep = chunk.coords, chunk.ppt
        entangled = (coords.d > 0.0) & (coords.r_s > 0.0) & (rep.negativity > SEPARABILITY_TOL)
        entangled_points += int(np.sum(entangled))
        with_negative_eig += int(np.sum(entangled & (rep.ppt_spectrum[:, -1] < -SEPARABILITY_TOL)))
    mism = entangled_points - with_negative_eig
    lines = [
        "partial-transpose polarity (system scenario, d > 0, r > 0):",
        f"  entangled grid points: {entangled_points}; with a negative PT eigenvalue: {with_negative_eig}",
        "  standard polarity adopted (separable iff PT spectrum nonnegative);",
        "  the published criterion sentence states the inverse and is rejected.",
    ]
    return SuiteResult("discrepancy_ppt_polarity", float(mism), 0.5, lines)


def probe_meter_entropy_form(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Quantify the published meter-scenario S_B against the matrix route."""
    chunks = list(_grid(resolution, Scenario.METER))  # held, so that both forms read one build of the grid

    def deviation(s_b_of):  # the reduced |S_B - matrix S_B| with S_B = s_b_of(coords)
        gaps = ((c, np.abs(s_b_of(c.coords) - c.info.s_b)) for c in chunks)
        return _reduce("discrepancy_meter_s_b", ENTROPY_TOL, gaps)

    res = deviation(lambda coords: entropy_closed_form(Scenario.METER, coords).s_b)
    printed = deviation(printed_meter_s_b)
    p = printed.worst_point
    c, k = next((c, k) for c in chunks for k in np.flatnonzero((c.coords.d == p["d"]) & (c.coords.r_m == p["r_m"])))
    res.lines = [
        "meter-scenario S_B closed form:",
        f"  adopted radical (1-d^2)(1-d^2(1-r^2)): max |S_B - matrix| = {res.max_residual:.3e}",
        f"  printed radical (1-d^2)^2 (1-r^2):     max |S_B - matrix| = {printed.max_residual:.3e}  (rejected)",
        f"  worst point d={p['d']:.3f} r_m={p['r_m']:.3f}: matrix S_B={c.info.s_b[k]:.9f}"
        f" printed={printed_meter_s_b(c.coords)[k]:.9f}"
        f" adopted={entropy_closed_form(Scenario.METER, c.coords).s_b[k]:.9f}",
    ]
    return res


def probe_meter_threshold_form() -> SuiteResult:
    """Meter information threshold: boundary I_AB against the adopted closed form and the published expression."""
    lines = ["meter information threshold (numeric boundary I_AB vs published form):",
             "  r_m      numeric          published        |difference|"]
    boundary = _boundary(Scenario.METER, r_m=np.array(METER_THRESHOLD_ROBUSTNESS))
    found = boundary.coords.d > 0.0  # d = 0: no threshold, every d > 0 violates
    numeric, params = boundary.info.i_ab[found], ScenarioParams(r_m=boundary.coords.r_m[found])
    gaps = np.abs(numeric - info_threshold(Scenario.METER, params))
    for r_m, num, pub in zip(*(x.tolist() for x in (params.r_m, numeric, printed_meter_info_threshold(params)))):
        lines.append(f"  {r_m:.2f}   {num:.9f}      {pub:.9f}     {abs(num - pub):.9f}")
    lines.append("  numeric definition adopted; the published signs do not form an entropy.")
    worst_closed = float(np.max(gaps, initial=0.0))  # keeps a NaN, which fails the suite
    lines.append(f"  (numeric value equals the entropy h(1/2 + sqrt2 r^2 / (2 sqrt(1-r^2))) to {worst_closed:.1e})")
    return SuiteResult("discrepancy_info_threshold", worst_closed, ENTROPY_TOL, lines)


def probe_threshold_sign(resolution: int = DEFAULT_RESOLUTION) -> SuiteResult:
    """Adjudicate the sign of the combined-scenario threshold term.

    With the printed positive sign of (1-r_s^2)/(1-r_m^2) the threshold lands
    exactly on B_max = 2; the flipped sign mostly leaves the admissible range
    or misses the boundary.
    """
    chunks, flipped, flipped_total = [], [], 0
    for r_s, r_m in _grid_chunks(np.linspace(0.0, 1.0, resolution), 2):
        boundary = _boundary(Scenario.COMBINED, r_s=r_s, r_m=r_m)
        chunks.append((boundary, np.abs(boundary.bmax - 2.0)))
        a, b = boundary.coords.r_s, boundary.coords.r_m
        inside = b < 1.0
        flipped_total += int(np.sum(inside))
        denom = np.where(inside, 1.0 - b * b, 1.0)
        alpha = a * a - b * b / denom
        disc = (alpha / 2.0) * (alpha / 2.0) - (1.0 - a * a) / denom
        x = alpha / 2.0 + np.sqrt(np.maximum(0.0, disc))
        valid = inside & (disc >= 0.0) & (x >= 0.0) & (x <= 1.0)  # the flipped threshold lies in [0, 1]
        if valid.any():
            states = _Chunk(Scenario.COMBINED, {"d": np.sqrt(x[valid]), "r_s": a[valid], "r_m": b[valid]})
            flipped.append((states, np.abs(states.bmax - 2.0)))
    res = _reduce("discrepancy_threshold_sign", BOUNDARY_TOL, chunks)
    rejected = _reduce("discrepancy_threshold_sign", BOUNDARY_TOL, flipped)
    res.lines = [
        "combined-scenario threshold sign adjudication:",
        f"  printed '+beta' sign: max |B_max - 2| on the threshold surface = {res.max_residual:.3e}  (confirmed)",
        f"  flipped '-beta' sign: admissible at {rejected.points}/{flipped_total} grid points,"
        f" max |B_max - 2| where admissible = {rejected.max_residual:.3e}  (rejected)",
    ]
    return res


SUITES = {
    "identities": suite_identities,
    "sweep": suite_sweep_agreement,
    "closed_form": suite_closed_form,
    "brute": suite_brute,
    "boundaries": suite_boundaries,
    "ppt": suite_ppt_region,
    "entropy": suite_entropy_forms,
    "info_threshold": suite_threshold_consistency,
    "p_definition": probe_predictability,
    "polarity": probe_ppt_polarity,
    "meter_entropy": probe_meter_entropy_form,
    "meter_threshold": probe_meter_threshold_form,
    "threshold_sign": probe_threshold_sign,
}

# Steps per axis a suite's grid never exceeds (None: no grid): the see-saw and
# the phase sweep cost far more per point than the closed forms.
RESOLUTION_CAPS = {"brute": BRUTE_RESOLUTION, "sweep": SWEEP_RESOLUTION, "meter_threshold": None}

DISCREPANCY_SUITES = ("p_definition", "polarity", "meter_entropy", "meter_threshold", "threshold_sign")


def run_suites(
    resolution: int = DEFAULT_RESOLUTION,
    restarts: int = 32,
    seed: int = 0,
    tolerance_override: float | None = None,
    names=None,
) -> list[SuiteResult]:
    """Check every argument, then run the requested suites (all by default) and apply any tolerance override."""
    if not isinstance(resolution, numbers.Integral) or not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be an integer in [2, {MAX_RESOLUTION}], got {resolution!r}")
    if tolerance_override is not None and not (
        isinstance(tolerance_override, numbers.Real)
        and not isinstance(tolerance_override, bool)
        and math.isfinite(tolerance_override)
        and tolerance_override >= 0.0
    ):
        raise ValueError("tolerance must be a finite non-negative number")
    _check_seesaw_args(restarts, seed)
    # each once, in first-named order; a string is no collection of names
    selected = list(SUITES) if names is None else list(dict.fromkeys(() if isinstance(names, str) else names))
    if not selected:
        raise ValueError(f"names must be a non-empty collection of suite names, got {names!r}")
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    results, table = [], _TABLE.set({})
    try:
        for name in selected:
            cap = RESOLUTION_CAPS.get(name, resolution)
            args = () if cap is None else (min(resolution, cap),)
            if name == "brute":
                args += (restarts, seed)
            res = SUITES[name](*args)
            if tolerance_override is not None:
                res.tolerance = tolerance_override
            results.append(res)
    finally:
        _TABLE.reset(table)
    return results
