import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qdl.bell import MAX_RESTARTS, horodecki_bmax, violates_chsh, violation_threshold
from qdl.cli import main
from qdl import figures, linalg
from qdl.figures import DEFAULT_RESOLUTION, FIGURES, _fmt, _format_chunk, write_figure_csv
from qdl.infotheory import mutual_information
from qdl.states import Scenario, ScenarioParams, scenario_densities, scenario_density
from qdl.verify import MAX_RESOLUTION as VERIFY_MAX_RESOLUTION
from qdl.visibility import visibility_analytic

from edge_classes import mixed


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_system_boundary_point(capsys):
    code, out, _ = run_cli(
        ["analyze", "--scenario", "system", "--d", "0.8", "--r-s", "0.6", "--restarts", "8"], capsys
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["b_max_horodecki"] == "2.000000000"
    assert fields["b_max_closed_form"] == "2.000000000"
    assert fields["chsh_violating"] == "false"
    assert fields["entangled"] == "true"


def test_analyze_free_tsirelson(capsys):
    code, out, _ = run_cli(
        ["analyze", "--scenario", "free", "--d", "1", "--r", "0.5", "--restarts", "8"], capsys
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["b_max_horodecki"] == "2.828427125"
    assert fields["info_threshold"] == "n/a"
    assert fields["above_info_threshold"] == "n/a"


def test_analyze_meter_classical_monitoring(capsys):
    code, out, _ = run_cli(
        ["analyze", "--scenario", "meter", "--d", "0.9", "--r-m", "0", "--restarts", "8"], capsys
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["entangled"] == "false"
    assert fields["chsh_violating"] == "false"


def test_analyze_rejects_bad_params(capsys):
    code, out, err = run_cli(["analyze", "--scenario", "system", "--d", "1.5"], capsys)
    assert code == 2
    assert err.startswith("error: d must lie in [0, 1]") and "usage: qdl analyze" in err
    assert "--restarts" in err and "--seed" in err


def test_analyze_rejects_biased_r_in_decoherence_scenario(capsys):
    code, _, err = run_cli(["analyze", "--scenario", "system", "--d", "0.5", "--r", "0.3"], capsys)
    assert code == 2


def test_figure_csv_shape_and_format(tmp_path, capsys):
    out_path = tmp_path / "fig3.csv"
    code, _, _ = run_cli(["figure", "3", "--resolution", "11", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "d,r,v,lrt_explainable"
    assert len(lines) == 1 + 11 * 11
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        for cell in cells[:3]:
            whole, frac = cell.split(".")
            assert len(frac) == 9
        assert cells[3] in ("0", "1")


def test_figure_lrt_column_flips_at_published_boundary(tmp_path, capsys):
    out_path = tmp_path / "fig3.csv"
    run_cli(["figure", "3", "--resolution", "11", "--out", str(out_path)], capsys)
    for line in out_path.read_text().splitlines()[1:]:
        d, r, v, flag = line.split(",")
        lhs, rhs = float(v), 1 - float(d) ** 2
        if abs(lhs - rhs) > 1e-8:  # away from the boundary, rounding cannot flip it
            assert flag == ("1" if lhs <= rhs else "0")


def test_figure_rows_fig7_corner(tmp_path):
    path = tmp_path / "fig7.csv"
    assert write_figure_csv(7, 11, str(path)) == 11 * 11
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    assert header == ["r_s", "r_m", "d_threshold"]
    corner = [row for row in rows if float(row[0]) == 1.0 and float(row[1]) == 1.0]
    assert corner and abs(float(corner[0][2])) < 1e-12


def test_figure_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["figure", "1", "--resolution", "41", "--out", str(p1)], capsys)
    run_cli(["figure", "1", "--resolution", "41", "--out", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


def _ref_fig1(d, u):
    r = (1.0 - math.sqrt(1.0 - u * u)) / 2.0
    rho = scenario_density(ScenarioParams(r=r, d=d), Scenario.FREE)
    return d, u, horodecki_bmax(rho)


def _ref_fig2(o, r):
    d = math.sqrt(1.0 - o * o)
    rho = scenario_density(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM)
    return o, r, horodecki_bmax(rho)


def _ref_fig3(d, r):
    rho = scenario_density(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM)
    v = visibility_analytic(rho)
    return d, r, v, v <= 1.0 - d * d


def _ref_fig4(d, r):
    rho = scenario_density(ScenarioParams(d=d, r_s=r), Scenario.SYSTEM)
    return d, r, mutual_information(rho).i_ab, violates_chsh(horodecki_bmax(rho))


def _ref_fig5(r, d):
    rho = scenario_density(ScenarioParams(d=d, r_m=r), Scenario.METER)
    return r, d, horodecki_bmax(rho)


def _ref_fig6(d, r):
    rho = scenario_density(ScenarioParams(d=d, r_m=r), Scenario.METER)
    return d, r, mutual_information(rho).i_ab, violates_chsh(horodecki_bmax(rho))


def _ref_fig7(r_s, r_m):
    return r_s, r_m, violation_threshold(Scenario.COMBINED, ScenarioParams(r_s=r_s, r_m=r_m))


PER_POINT_REFERENCE = {1: _ref_fig1, 2: _ref_fig2, 3: _ref_fig3, 4: _ref_fig4, 5: _ref_fig5, 6: _ref_fig6, 7: _ref_fig7}


def test_figure_csv_matches_per_point_reference(tmp_path, capsys, monkeypatch):
    """The batched grid evaluation writes the bytes a point-by-point loop over single states gives."""
    monkeypatch.setattr(figures, "CHUNK_POINTS", 50)  # 121 points: chunks of 50, 50 and 21
    steps = 11
    line = [i / (steps - 1) for i in range(steps)]
    for n, row in PER_POINT_REFERENCE.items():
        out_path = tmp_path / f"fig{n}.csv"
        code, _, _ = run_cli(["figure", str(n), "--resolution", str(steps), "--out", str(out_path)], capsys)
        assert code == 0
        header = ",".join(FIGURES[n].columns) + "\n"
        body = "".join(",".join(_fmt(v) for v in row(x, y)) + "\n" for x in line for y in line)
        assert out_path.read_bytes() == (header + body).encode("utf-8"), f"figure {n}"


@pytest.mark.parametrize("resolution", [41, 161])
@pytest.mark.parametrize(("n", "scenario", "knob"), [(4, Scenario.SYSTEM, "r_s"), (6, Scenario.METER, "r_m")])
def test_information_figures_equal_the_csv_of_the_4x4_route(n, scenario, knob, resolution, tmp_path):
    # the figures read S_AB off the environment and clamp I_AB at 0; the stacked 4x4 route gives the same bytes
    line = np.arange(resolution) / (resolution - 1)
    d, r = (axis.ravel() for axis in np.meshgrid(line, line, indexing="ij"))
    rho = scenario_densities(scenario, ScenarioParams(d=d, **{knob: r}))
    columns = (d, r, mutual_information(rho).i_ab, violates_chsh(horodecki_bmax(rho)))
    path = tmp_path / f"fig{n}.csv"
    write_figure_csv(n, resolution, str(path))
    text = path.read_bytes().decode("utf-8")
    assert text == ",".join(FIGURES[n].columns) + "\n" + _format_chunk(columns)
    assert "-0.000000000" not in text


def test_figure_csvs_do_not_depend_on_the_run_or_the_chunk_size(tmp_path, monkeypatch):
    def csvs():
        for n in FIGURES:
            assert write_figure_csv(n, 11, str(tmp_path / "fig.csv")) == 11 * 11
            yield (tmp_path / "fig.csv").read_bytes()

    first = list(csvs())
    assert list(csvs()) == first
    for chunk in (1, 7, 1024, 4096):
        monkeypatch.setattr(figures, "CHUNK_POINTS", chunk)
        assert list(csvs()) == first, f"CHUNK_POINTS={chunk}"


def test_figure_csv_bits_do_not_depend_on_numpy_simd_dispatch(simd_digests):
    # figures 1-7 at 41 steps, and figures 4 and 6 at 161: the SIMD sqrt and log loops and the fixed-point
    # kernel's multiply and rint must not change a digit, so this holds whatever the complex product does
    default, reduced = simd_digests
    names = [name for name in default if name.startswith("figure_")]
    assert len(names) == 9
    for name in names:
        assert reduced[name] == default[name], name


def _rows_from_fmt(columns) -> str:
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in zip(*columns))


def _assert_chunk_text_is_rows_from_fmt(columns):
    # compared as lists of lines, so that a failing 1024-row chunk reports its first wrong line, not a diff of the texts
    assert _format_chunk(columns).splitlines(True) == _rows_from_fmt(columns).splitlines(True)


# -0.0, negatives that print as -0.000000000, the 5e-10 rounding tie, subnormals and huge magnitudes
EDGE_VALUES = [-0.0, -1e-12, -4.9e-10, 5e-10, -5e-10, 1.5e-9, 2.5e-9, 0.1234567895, 5e-324, -2e-310, 1e300, -1e300]
# EDGE_VALUES, or any magnitude up to 1e300 (a uniform mantissa of either sign scaled by 2^e, e = -1074..996)
CELL_VALUES = (
    lambda rng, size: rng.choice(EDGE_VALUES, size),
    lambda rng, size: np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-1074, 997, size)),
)


def _column_kinds(rng):
    """The row count, 1, 7 or 1024, and for each of 1 to 5 columns whether it holds bools."""
    return rng.choice([1, 7, 1024]), rng.random(rng.integers(1, 6)) < 0.5


def value_columns(rng):
    """Columns of 1, 7 or 1024 rows, each of bools or of CELL_VALUES."""
    rows, kinds = _column_kinds(rng)
    return tuple(rng.random(rows) < 0.5 if is_bool else mixed(rng, rows, CELL_VALUES) for is_bool in kinds)


@pytest.mark.parametrize("seed", range(60))
def test_chunk_text_equals_rows_joined_from_fmt(seed):
    _assert_chunk_text_is_rows_from_fmt(value_columns(np.random.default_rng(seed)))


def _near_tie(m, side):
    """The float nearest (m + 1/2) * 1e-9, a tie of the 9th decimal, or the float one ulp below or above it
    (side 0, -1 or 1); elementwise over arrays of m and side."""
    tie = (np.asarray(m) + 0.5) / 1e9
    return np.where(side == 0, tie, np.nextafter(tie, np.where(np.asarray(side) < 0, -np.inf, np.inf)))[()]


# Classes of the values the fixed-point kernel may see, each a builder of n values from a numpy generator:
# [0, 8) uniformly and in magnitude down to the subnormals, the top of the range, +-0.0 and the least subnormal,
# the exact ties k / 1024, the floats at and one ulp around the ties (m + 1/2) * 1e-9, points 2e-6 from such a
# tie once scaled, and at the lower edge of the range negatives that print as -0.000000000
KERNEL_VALUES = (
    lambda rng, n: rng.uniform(0.0, 8.0, n),
    lambda rng, n: rng.uniform(0.0, 8.0, n) * 2.0 ** -rng.integers(0, 1075, n),
    lambda rng, n: rng.choice([0.0, -0.0, 7.9999999995, 7.999999999, np.nextafter(8.0, 0.0), 5e-324], n),
    lambda rng, n: rng.integers(0, 8 * 1024, n) / 1024,
    lambda rng, n: _near_tie(rng.integers(0, 8 * 10**9, n), rng.integers(-1, 2, n)),
    lambda rng, n: (rng.integers(0, 8 * 10**9, n) + 0.5 + rng.choice([-2e-6, 2e-6], n)) / 1e9,
    lambda rng, n: rng.choice([-5e-324, -1e-12, -4.9e-10], n),
)


def kernel_columns(rng):
    """Columns of 1, 7 or 1024 rows, each of bools or of a mix of 1 to 7 classes of KERNEL_VALUES."""
    rows, kinds = _column_kinds(rng)
    mix = [KERNEL_VALUES[k] for k in rng.permutation(len(KERNEL_VALUES))[: rng.integers(1, len(KERNEL_VALUES) + 1)]]
    return tuple(rng.random(rows) < 0.5 if is_bool else mixed(rng, rows, mix) for is_bool in kinds)


@pytest.mark.parametrize("seed", range(60, 260))
def test_chunk_text_in_the_kernel_range_equals_rows_joined_from_fmt(seed):
    _assert_chunk_text_is_rows_from_fmt(kernel_columns(np.random.default_rng(seed)))


def _uniform_chunk(rows=1024):
    rng = np.random.default_rng(7)
    flags = rng.random(rows) < 0.5
    return (rng.uniform(0.0, 8.0, rows), rng.uniform(0.0, 1.0, rows), flags, rng.uniform(0.0, 2.0, rows))


def _count_kernel_calls(monkeypatch) -> list:
    calls, kernel = [], figures._fixed_point_text
    monkeypatch.setattr(figures, "_fixed_point_text", lambda *a: calls.append(1) or kernel(*a))
    return calls


def test_chunk_of_values_in_range_takes_the_fixed_point_kernel(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    for rows in (1, 7, 1024):
        columns = _uniform_chunk(rows)
        assert _format_chunk(columns) == _rows_from_fmt(columns)
    assert len(calls) == 3


@pytest.mark.parametrize("m", [0, 1, 123456789, 8 * 10**9 - 1])
@pytest.mark.parametrize("side", [-1, 1])
def test_a_value_one_ulp_from_a_tie_stays_in_the_fixed_point_kernel(m, side, monkeypatch):
    # its product with 1e9 lies within 1e-6 of the half-integer m + 1/2 but not on it
    calls = _count_kernel_calls(monkeypatch)
    columns = _uniform_chunk()
    columns[0][500] = _near_tie(m, side)
    text = _format_chunk(columns)
    assert (text, len(calls)) == (_rows_from_fmt(columns), 1)
    n = m + (side > 0)  # the 9-decimal rounding, times 1e9
    assert text.splitlines()[500].split(",")[0] == f"{n // 10**9}.{n % 10**9:09d}"


@pytest.mark.parametrize("bad", [-1e-12, -1.0, math.nan, 8.0, 1e300, math.inf, 1 / 1024, _near_tie(123456789, 0)])
@pytest.mark.parametrize("column", [0, 3])
def test_one_value_outside_the_kernel_sends_the_whole_chunk_through_the_template(bad, column, monkeypatch):
    def refuse(*args):
        raise AssertionError("the chunk reached the fixed-point kernel")

    monkeypatch.setattr(figures, "_fixed_point_text", refuse)
    columns = _uniform_chunk()
    columns[column][500] = bad
    text = _format_chunk(columns)
    assert text == _rows_from_fmt(columns)
    assert text.splitlines()[500].split(",")[column] == _fmt(bad)


def test_every_figure_chunk_at_the_default_resolution_takes_the_fixed_point_kernel(tmp_path, monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    for n in FIGURES:
        write_figure_csv(n, DEFAULT_RESOLUTION, str(tmp_path / "fig.csv"))
    assert len(calls) == len(FIGURES) * math.ceil(DEFAULT_RESOLUTION**2 / figures.CHUNK_POINTS)


# The eigen-solves of each figure at the default resolution, by stack shape: its 41 x 41 grid is one chunk, so
# one call per layer: T^T T for B_max, and rho_A, rho_B and rho_E of every point as one stack for I_AB.
DEFAULT_EIGEN_SOLVES = {
    1: [(1681, 3, 3)],
    2: [(1681, 3, 3)],
    3: [],
    4: [(3 * 1681, 2, 2), (1681, 3, 3)],
    5: [(1681, 3, 3)],
    6: [(3 * 1681, 2, 2), (1681, 3, 3)],
    7: [],
}


def test_each_figure_at_the_default_resolution_solves_each_layer_in_one_call(tmp_path, monkeypatch):
    calls, solve = [], linalg.hermitian_eigensystem
    monkeypatch.setattr(linalg, "hermitian_eigensystem", lambda m, *args: calls.append(np.shape(m)) or solve(m, *args))
    for n, expected in DEFAULT_EIGEN_SOLVES.items():
        calls.clear()
        write_figure_csv(n, DEFAULT_RESOLUTION, str(tmp_path / "fig.csv"))
        assert calls == expected, f"figure {n}"


def test_figure_rejects_low_resolution(tmp_path, capsys):
    code, _, err = run_cli(["figure", "1", "--resolution", "5", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2


def test_figure_rejects_resolution_above_the_cap(tmp_path, capsys):
    # only the first rejected value: the cap itself would write a grid of 1e6 rows
    out_path = tmp_path / "x.csv"
    args = ["figure", "4", "--resolution", str(figures.MAX_RESOLUTION + 1), "--out", str(out_path)]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == "" and not out_path.exists()
    assert err.count("\n") == 1 and "resolution" in err


@pytest.mark.parametrize(
    "n, resolution",
    [(1, 11.5), (1, 11.0), (1.0, 11), (np.float64(7.0), 11), (1, "11"), (True, 11)],
    ids=["resolution-11.5", "resolution-11.0", "n-1.0", "n-float64", "resolution-str", "n-bool"],
)
def test_figure_rejects_non_integral_arguments_before_opening_the_file(n, resolution, tmp_path):
    out_path = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="must be an integer"):
        write_figure_csv(n, resolution, str(out_path))
    assert not out_path.exists()


def test_analyze_meter_threshold_at_one_over_sqrt2_rounded_down(capsys):
    # r_m^2 < 1/2 here, so the boundary d is 2.1e-8 and the information threshold exists
    args = ["analyze", "--scenario", "meter", "--d", "1e-8", "--r-m", "0.7071067811865475", "--restarts", "4"]
    code, out, _ = run_cli(args, capsys)
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert code == 0 and fields["d_threshold"] == "0.000000021"
    assert fields["info_threshold"] != "n/a" and fields["above_info_threshold"] != "n/a"


def test_analyze_rejects_restarts_above_the_cap(capsys):
    args = ["analyze", "--scenario", "free", "--d", "0.5", "--restarts", str(MAX_RESTARTS + 1)]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "restarts" in err


def test_figure_unwritable_path(capsys):
    code, _, err = run_cli(
        ["figure", "1", "--resolution", "11", "--out", "/nonexistent-dir/x.csv"], capsys
    )
    assert code == 2


def test_verify_single_suite_passes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "boundaries", "--resolution", "7"], capsys)
    assert code == 0
    assert "boundary_exactness" in out
    assert "PASS" in out


def test_verify_stdout_equals_the_stored_report(capsys):
    # every residual line and the discrepancy report; a change that moves a printed digit updates the file.  At 41
    # steps the 68 921-point combined grid overflows the run table, so its chunks stream through capped runs
    for args, stored in (([], "verify_stdout.txt"), (["--resolution", "41"], "verify_stdout_41.txt")):
        code, out, _ = run_cli(["verify", *args], capsys)
        assert code == 0
        with open(os.path.join(os.path.dirname(__file__), stored), encoding="utf-8", newline="") as fh:
            assert out == fh.read(), stored


def test_verify_runs_a_repeated_suite_once(capsys):
    _, once, _ = run_cli(["verify", "--suite", "brute", "--resolution", "3"], capsys)
    code, out, _ = run_cli(["verify", "--suite", "brute", "--suite", "brute", "--resolution", "3"], capsys)
    assert code == 0 and out == once
    assert out.count("chsh_brute_force") == 1 and len(out.splitlines()) == 2


def test_verify_meter_threshold_table(capsys):
    code, out, _ = run_cli(["verify", "--suite", "meter_threshold"], capsys)
    assert code == 0
    assert "numeric" in out and "published" in out
    assert "0.10" in out and "0.70" in out


def test_verify_tolerance_override_fails(capsys):
    # 1e-15 is tighter than machine precision allows for the entropy residuals
    code, out, _ = run_cli(
        ["verify", "--suite", "entropy", "--resolution", "7", "--tolerance", "1e-15"], capsys
    )
    assert code == 1
    assert "FAIL" in out


def test_analyze_rejects_negative_seed(capsys):
    code, _, err = run_cli(["analyze", "--scenario", "free", "--d", "0.5", "--seed", "-1"], capsys)
    assert code == 2
    assert "seed must be non-negative" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "seed"),
        (["--resolution", "0"], "resolution"),
        (["--resolution", "1"], "resolution"),
        (["--tolerance", "nan"], "tolerance"),
        (["--tolerance", "-0.5"], "tolerance"),
        (["--restarts", "0"], "restarts"),
        (["--suite", "identities", "--restarts", "0"], "restarts"),
        # the first values above the caps: the caps themselves start runs of about a minute
        (["--resolution", str(VERIFY_MAX_RESOLUTION + 1)], "resolution"),
        (["--suite", "meter_threshold", "--restarts", str(MAX_RESTARTS + 1)], "restarts"),
    ],
)
def test_verify_rejects_bad_arguments(flags, message, capsys):
    code, out, err = run_cli(["verify", *flags], capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qdl.cli", "analyze", "--scenario", "free", "--d", "0.5", "--restarts", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "b_max_horodecki=" in proc.stdout


@pytest.mark.parametrize("args", [["verify", "--resolution", "2"], ["analyze", "--scenario", "meter", "--d", "0.3"]])
def test_closed_stdout_exits_2_without_a_traceback(args):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "qdl.cli", *args], stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "")


@pytest.mark.parametrize("args", [["verify", "--resolution", "2"], ["analyze", "--scenario", "meter", "--d", "0.3"]])
def test_stdout_closed_at_start_exits_2_without_a_traceback(args):
    # as `qdl ... >&-`: with no fd 1, Python sets sys.stdout to None and print writes nothing
    proc = subprocess.run(
        [sys.executable, "-m", "qdl.cli", *args], preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True
    )
    assert (proc.returncode, proc.stderr) == (2, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("args", [["verify", "--resolution", "2"], ["analyze", "--scenario", "meter", "--d", "0.3"]])
def test_full_stdout_exits_2_with_one_error_line(args):
    # every write to /dev/full fails with ENOSPC: an I/O error, not a failed verification
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qdl.cli", *args], stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write output: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_analyze_stdout_deterministic(capsys):
    args = ["analyze", "--scenario", "combined", "--d", "0.7", "--r-s", "0.5", "--r-m", "0.4"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
