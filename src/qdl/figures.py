"""Parameter sweeps behind the seven figure data sets, emitted as CSV grids.

Each figure is a SweepSpec: a fixed column order, the two grid axes first,
and a column function.  The column function maps the flattened grid
coordinates of a chunk of points to its value columns, evaluating every
point of the chunk through the stacked (N, 4, 4) layers at once; figures 4 and 6 read S_AB off the 2x2
environment of the same pure states, and clamp I_AB at its bound 0.  Rows are written in row-major
axis order, one chunk of at most CHUNK_POINTS points at a time; each chunk is one float table,
formatted as a whole and written at once.  A table whose values all lie in [0, 8), none scaled
by 1e9 to exactly a half-integer, is printed by a numpy fixed-point kernel from the integers
rint(x * 1e9), which give '%.9f''s correctly rounded digits there; any other table by a single
'%' over a per-row line template.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .bell import horodecki_bmax, violates_chsh, violation_threshold
from .infotheory import von_neumann_entropy
from .linalg import partial_trace
from .states import Scenario, ScenarioParams, _gram, scenario_amplitudes, scenario_densities
from .visibility import visibility_analytic

MIN_RESOLUTION = 11
DEFAULT_RESOLUTION = 41
MAX_RESOLUTION = 1001  # resolution^2 rows: about 1e6 rows, some 40 MB of CSV
CHUNK_POINTS = 1024
# row k: the 3 ASCII digits of k, viewed as one 3-byte item so that a lookup is a 1-D take
_DIGITS = (np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")).astype(np.uint8).view("V3").ravel()


@dataclass(frozen=True)
class SweepSpec:
    """Columns of one figure grid, the outer and inner axis first, and their function."""

    columns: tuple[str, ...]
    evaluate: Callable[[np.ndarray, np.ndarray], tuple]  # (outer, inner) coordinates -> columns


def _fmt(value) -> str:
    """Fixed-point with 9 decimals (-0.0 printed as 0.0); booleans as 1/0."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.9f}"


def _fig1(d: np.ndarray, u: np.ndarray) -> tuple:
    r = (1.0 - np.sqrt(1.0 - u * u)) / 2.0
    return d, u, horodecki_bmax(scenario_densities(Scenario.FREE, ScenarioParams(r=r, d=d)))


def _fig2(o: np.ndarray, r: np.ndarray) -> tuple:
    d = np.sqrt(1.0 - o * o)
    return o, r, horodecki_bmax(scenario_densities(Scenario.SYSTEM, ScenarioParams(d=d, r_s=r)))


def _fig3(d: np.ndarray, r: np.ndarray) -> tuple:
    v = visibility_analytic(scenario_densities(Scenario.SYSTEM, ScenarioParams(d=d, r_s=r)))
    return d, r, v, v <= 1.0 - d * d


def _information_and_violation(scenario: Scenario, params: ScenarioParams) -> tuple:
    """I_AB of each point, S_AB read off its environment and clamped at the bound I_AB >= 0, and its CHSH flag."""
    psi = scenario_amplitudes(scenario, params)
    rho = _gram(psi)
    s_a, s_b = (von_neumann_entropy(partial_trace(rho, keep)) for keep in "AB")
    s_ab = von_neumann_entropy(_gram(psi, environment=True))
    return np.maximum(0.0, s_a + s_b - s_ab), violates_chsh(horodecki_bmax(rho))


def _fig4(d: np.ndarray, r: np.ndarray) -> tuple:
    return d, r, *_information_and_violation(Scenario.SYSTEM, ScenarioParams(d=d, r_s=r))


def _fig5(r: np.ndarray, d: np.ndarray) -> tuple:
    return r, d, horodecki_bmax(scenario_densities(Scenario.METER, ScenarioParams(d=d, r_m=r)))


def _fig6(d: np.ndarray, r: np.ndarray) -> tuple:
    return d, r, *_information_and_violation(Scenario.METER, ScenarioParams(d=d, r_m=r))


def _fig7(r_s: np.ndarray, r_m: np.ndarray) -> tuple:
    return r_s, r_m, violation_threshold(Scenario.COMBINED, ScenarioParams(r_s=r_s, r_m=r_m))


FIGURES: dict[int, SweepSpec] = {
    1: SweepSpec(("d", "u", "b_max"), _fig1),
    2: SweepSpec(("o", "r", "b_max"), _fig2),
    3: SweepSpec(("d", "r", "v", "lrt_explainable"), _fig3),
    4: SweepSpec(("d", "r", "i_ab", "chsh_violating"), _fig4),
    5: SweepSpec(("r", "d", "b_max"), _fig5),
    6: SweepSpec(("d", "r", "i_ab", "chsh_violating"), _fig6),
    7: SweepSpec(("r_s", "r_m", "d_threshold"), _fig7),
}


def _grid_chunks(line: np.ndarray, n_axes: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Points of the n_axes-fold grid over ``line`` in row-major order, at most
    CHUNK_POINTS at a time, as one coordinate array per axis."""
    shape = (line.size,) * n_axes
    points = line.size**n_axes
    for start in range(0, points, CHUNK_POINTS):
        flat = np.arange(start, min(start + CHUNK_POINTS, points))
        yield tuple(line[i] for i in np.unravel_index(flat, shape))


def _format_chunk(columns: tuple) -> str:
    """CSV lines of equal-length columns as ``_fmt`` writes them.

    A chunk whose values all lie in [0, 8), none scaled to a rounding tie,
    goes through ``_fixed_point_text``; any other through one '%' over a per-row
    line template: '%.9f' shares f"{x:.9f}"'s formatter, adding 0.0 turns -0.0
    into 0.0, and a bool column (as 1.0 or 0.0) prints through '%d'.
    """
    flags = [np.asarray(c).dtype == bool for c in columns]
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns]) + 0.0
    values = table[:, [not f for f in flags]]
    if ((values >= 0.0) & (values < 8.0)).all():  # NaN fails both; checked before scaling, which could overflow
        scaled = values * 1e9
        units = np.rint(scaled)
        # Rounding x * 1e9 to a float is monotone, x * 1e9 < 2**33 and every m + 1/2 below 2**52 is a float, so the
        # rounded product keeps the exact one's side of each half-integer unless it lands on one; rint is then exact.
        if (np.abs(scaled - units) != 0.5).all():
            return _fixed_point_text(table, flags, units.astype(np.int64))
    line = ",".join("%d" if f else "%.9f" for f in flags) + "\n"
    return (line * len(table)) % tuple(table.ravel().tolist())


def _fixed_point_text(table: np.ndarray, flags: list[bool], units: np.ndarray) -> str:
    """The chunk's CSV text from ``units`` = round(x * 1e9) of its value columns, the decimals looked
    up three at a time; a flag column prints its 0.0 or 1.0 as one digit."""
    whole, rest = np.divmod(units, 10**9)
    high, rest = np.divmod(rest, 10**6)
    mid, low = np.divmod(rest, 10**3)
    widths = [1 if f else 11 for f in flags]  # "0" or "1", "D.DDDDDDDDD"
    text = np.empty((len(table), sum(widths) + len(widths)), np.uint8)
    start, value = 0, 0
    for j, (flag, width) in enumerate(zip(flags, widths)):
        if flag:
            text[:, start] = table[:, j] + ord("0")
        else:
            text[:, start] = whole[:, value] + ord("0")
            text[:, start + 1] = ord(".")
            for offset, group in ((2, high), (5, mid), (8, low)):
                digits = _DIGITS.take(group[:, value]).view(np.uint8).reshape(-1, 3)
                text[:, start + offset : start + offset + 3] = digits
            value += 1
        start += width
        text[:, start] = ord(",")
        start += 1
    text[:, -1] = ord("\n")
    return text.tobytes().decode("ascii")


def write_figure_csv(n: int, resolution: int, path: str) -> int:
    """Write the figure grid as UTF-8 CSV with LF line endings; returns the row count.

    Both axes run over [0, 1] in ``resolution`` equal steps, i / (resolution - 1).
    """
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n not in FIGURES:
        raise ValueError(f"figure number must be an integer in 1..7, got {n!r}")
    if not isinstance(resolution, numbers.Integral) or not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be an integer in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], got {resolution!r}")
    spec = FIGURES[n]
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(spec.columns) + "\n")
        for coords in _grid_chunks(np.arange(resolution) / (resolution - 1), 2):
            columns = spec.evaluate(*coords)
            fh.write(_format_chunk(columns))
            count += len(columns[0])
    return count
