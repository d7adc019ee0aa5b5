"""What analyze's lrt_explainable flag is: the paper's criterion V <= 1 - d^2, which is
not the negation of chsh_violating outside the system scenario at d < 1."""

import json
from pathlib import Path

import numpy as np
import pytest

from qdl.analysis import analyze
from qdl.cli import main
from qdl.figures import write_figure_csv
from qdl.states import Scenario, ScenarioParams
from qdl.visibility import predictability

ROOT = Path(__file__).resolve().parents[1]
LINE = np.linspace(0.0, 1.0, 6).tolist()
NEAR = 1e-9  # a point this close to a criterion's boundary may round either way


def _grid():
    """(scenario, params) over LINE in every live knob; combined at r_m in {0, 1/2, 1}."""
    for a in LINE:
        for b in LINE:
            yield Scenario.FREE, ScenarioParams(r=a, d=b)
            yield Scenario.SYSTEM, ScenarioParams(d=a, r_s=b)
            yield Scenario.METER, ScenarioParams(d=a, r_m=b)
            for r_m in (0.0, 0.5, 1.0):
                yield Scenario.COMBINED, ScenarioParams(d=a, r_s=b, r_m=r_m)


@pytest.fixture(scope="module")
def flags():
    """(scenario, params, lrt_explainable, chsh_violating) at every grid point."""
    out = []
    for scenario, params in _grid():
        c = analyze(scenario, params, restarts=1).classifications  # both flags read no optimizer value
        out.append((scenario, params, c.lrt_explainable, c.chsh_violating))
    return out


def test_at_d_1_the_flag_holds_in_every_scenario_and_the_state_violates_where_robust(flags):
    robust = {
        Scenario.FREE: lambda q: predictability(q) < 1.0,
        Scenario.SYSTEM: lambda q: q.r_s > 0.0,
        Scenario.METER: lambda q: q.r_m > 0.0,
        Scenario.COMBINED: lambda q: q.r_s * q.r_m > 0.0,
    }
    edge = [(s, q, lrt, chsh) for s, q, lrt, chsh in flags if q.d == 1.0]
    assert {s for s, *_ in edge} == set(Scenario)
    for scenario, q, lrt, chsh in edge:
        assert lrt and chsh == robust[scenario](q), (scenario, q)
    assert any(chsh for *_, chsh in edge)


def test_the_flags_are_each_others_negation_only_in_system_below_d_1(flags):
    for scenario, q, lrt, chsh in flags:
        if scenario is Scenario.SYSTEM and q.d < 1.0 and abs(q.d**2 + q.r_s**2 - 1.0) > NEAR:
            assert lrt == (q.d**2 + q.r_s**2 < 1.0) == (not chsh), q
    disagree = {s for s, q, lrt, chsh in flags if q.d < 1.0 and lrt == chsh and abs(q.d**2 + q.r_s**2 - 1.0) > NEAR}
    assert disagree == {Scenario.FREE, Scenario.METER, Scenario.COMBINED}


def test_free_flag_is_d_at_most_p_where_every_d_above_0_violates_unless_p_is_1(flags):
    both = 0
    for scenario, q, lrt, chsh in flags:
        p = predictability(q)
        if scenario is Scenario.FREE and q.d < 1.0 and abs(q.d - p) > NEAR:
            assert lrt == (q.d < p) and chsh == (q.d > 0.0 and p < 1.0), q
            both += lrt and chsh
    assert both > 0
    c = analyze(Scenario.FREE, ScenarioParams(r=0.461, d=0.025), restarts=1).classifications
    assert c.lrt_explainable and c.chsh_violating


def test_meter_flag_fails_at_every_d_inside_0_1_violating_or_not(flags):
    inside = [(q, lrt, chsh) for s, q, lrt, chsh in flags if s is Scenario.METER and 0.0 < q.d < 1.0]
    assert not any(lrt for _, lrt, _ in inside)
    assert any(not chsh for q, _, chsh in inside if q.r_m == 0.0)


def test_combined_flag_is_the_system_criterion_while_fewer_points_violate(flags):
    silent = 0
    for scenario, q, lrt, chsh in flags:
        if scenario is Scenario.COMBINED and q.d < 1.0 and abs(q.d**2 + q.r_s**2 - 1.0) > NEAR:
            assert lrt == (q.d**2 + q.r_s**2 < 1.0), q
            assert not (lrt and chsh), q
            silent += not lrt and not chsh
    assert silent > 0


def test_analyze_prints_both_flags_true_on_the_meter_d_1_edge(capsys):
    assert main(["analyze", "--scenario", "meter", "--d", "1", "--r-m", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "chsh_violating=true" in lines and "lrt_explainable=true" in lines


def test_figure_3_flag_reads_1_on_the_whole_d_1_row_where_figure_4_violates(tmp_path):
    rows = {}
    for n in (3, 4):
        write_figure_csv(n, 11, str(tmp_path / f"fig{n}.csv"))
        for line in (tmp_path / f"fig{n}.csv").read_text().splitlines()[1:]:
            d, r, *_, flag = line.split(",")
            rows.setdefault((float(d), float(r)), []).append(flag)
    edge = {r: flags for (d, r), flags in rows.items() if d == 1.0}
    assert len(edge) == 11
    assert all(lrt == "1" and chsh == ("1" if r > 0.0 else "0") for r, (lrt, chsh) in edge.items())


def test_the_recorded_pool_has_22_points_with_both_flags_true():
    pool = json.loads((ROOT / "perfbench" / "reference.json").read_text())["analyze_pool"]
    both = [p for p in pool if p["reference"]["lrt_explainable"] and p["reference"]["chsh_violating"]]
    assert len(pool) == 128 and len(both) == 22
    free = [p for p in both if p["scenario"] == "free"]
    assert len(free) == 10 and all(p["r"] != 0.5 for p in free)
    others = [p for p in both if p["scenario"] != "free"]
    assert {p["scenario"] for p in others} == {"system", "meter", "combined"}
    assert all(p["d"] == 1.0 for p in others)
