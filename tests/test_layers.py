"""The contract of every state layer (`layers.LAYERS`), checked row by row: stacks, complex input, refusals
and empty stacks."""

import inspect
import math

import numpy as np
import pytest

import qdl
from qdl.states import Scenario, ScenarioParams, scenario_densities
from qdl.verify import SWEEP_RESOLUTION, _grid

from layers import LAYERS, ONE_STATE, OPERATOR, SYMMETRIC, edge_line_states

LINE = np.array([0.0, 1e-12, 0.3, 0.7, 1.0 - 1e-12, 1.0])  # each scenario's knobs over all its pairs (triples)
_rng = np.random.default_rng(37)
POINTS = [(Scenario.FREE, {"r": 0.3, "d": 0.4}), (Scenario.SYSTEM, {"d": 0.6, "r_s": 0.7}),
          (Scenario.METER, {"d": 0.5, "r_m": 0.2}), (Scenario.COMBINED, {"d": 0.8, "r_s": 0.7, "r_m": 0.5}),
          (Scenario.COMBINED, {"d": _rng.uniform(0, 1, 12), "r_s": _rng.uniform(0, 1, 12), "r_m": 0.3})]
_g = np.random.default_rng(24).standard_normal((6, 4, 4))
_dense = _g @ _g.swapaxes(-1, -2)  # states with no zero entry; the scenario states have structural zeros
STATES = {
    **{f"edge line {s.value}": rho for s, rho in edge_line_states().items()},
    **{f"line grid {s.value}": scenario_densities(s, ScenarioParams(**dict(zip(s.knobs, (
        a.ravel() for a in np.meshgrid(*[LINE] * len(s.knobs), indexing="ij")))))) for s in Scenario},
    "verify sweep grid": np.concatenate([chunk.rho for chunk in _grid(SWEEP_RESOLUTION, *Scenario)]),
    "points": np.concatenate([scenario_densities(s, ScenarioParams(**knobs)) for s, knobs in POINTS]),
    "dense": (_dense / np.trace(_dense, axis1=-2, axis2=-1)[:, None, None]).reshape(3, 2, 4, 4),
}
OPERATORS = np.random.default_rng(5).standard_normal((3, 2, 4, 4))  # not Hermitian


def inputs(layer):
    """The named stacks a layer takes.  A one-state layer runs a see-saw per state, about 0.5 ms each, so it
    takes every 10th state of the edge lines and the points; a layer of operators also takes non-Hermitian ones."""
    if layer.kind == ONE_STATE:
        edges = [(name, rho[::10]) for name, rho in STATES.items() if name.startswith("edge line")]
        return edges + [("points", STATES["points"])]
    return list(STATES.items()) + ([("operators", OPERATORS)] if layer.kind == OPERATOR else [])


def assert_same_bits(got, expected, where):
    got, expected = [np.asarray(x) for x in got], [np.asarray(x) for x in expected]
    assert [(x.dtype, x.shape) for x in got] == [(x.dtype, x.shape) for x in expected], where
    assert [x.tobytes() for x in got] == [x.tobytes() for x in expected], where


def test_the_table_has_one_row_for_each_public_function_of_rho_or_m():
    public = {name: f for name, f in vars(qdl).items() if not name.startswith("_") and inspect.isfunction(f)
              and next(iter(inspect.signature(f).parameters), None) in ("rho", "m")}
    assert {layer.name: layer.function for layer in LAYERS} == public and len(LAYERS) == len(public)


@pytest.mark.parametrize("layer", [row for row in LAYERS if row.kind != ONE_STATE], ids=lambda layer: layer.name)
def test_a_stack_gives_each_member_its_one_state_bits(layer):
    for name, stack in inputs(layer):
        results = layer(stack)
        for index in np.ndindex(stack.shape[:-2]):
            assert_same_bits([x[index] for x in results], layer(stack[index]), (name, index))


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.name)
def test_an_exactly_real_complex_copy_gives_the_float64_bits_and_an_imaginary_part_is_refused(layer):
    for name, stack in inputs(layer):
        for rho in stack.reshape(-1, 4, 4) if layer.kind == ONE_STATE else [stack]:
            assert_same_bits(layer(rho.astype(complex)), layer(rho), name)
            twin = rho.astype(complex)
            twin.reshape(-1, 16)[-1, [1, 4]] += [1e-300j, -1e-300j]  # in one off-diagonal pair: still Hermitian
            with pytest.raises(ValueError, match=f"^{layer.arg} has a nonzero imaginary part"):
                layer(twin)


_SKEW, _NAN, _INF = (np.eye(4) / 4.0 for _ in range(3))
_SKEW[0, 3] = 0.4  # trace 1 and positive marginals, but rho[3, 0] = 0
_NAN[1, 2] = _NAN[2, 1] = math.nan
_INF[1, 2] = _INF[2, 1] = math.inf
MALFORMED = {"3x3": (np.eye(3) / 3.0, "must be a 4x4"), "nan": (_NAN, "contains NaN/Inf"),
             "inf": (_INF, "contains NaN/Inf"), "non-Hermitian": (_SKEW, "is not Hermitian")}
TAKES = {OPERATOR: "non-Hermitian", SYMMETRIC: "3x3"}  # the malformed input a kind takes, giving finite results


@pytest.mark.parametrize("bad", list(MALFORMED))
@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.name)
def test_a_malformed_input_is_refused_with_the_argument_name(layer, bad):
    # alone, and after a zero matrix in a stack: never numpy's broadcast error, the name of an internal
    # matrix, or a silent NaN or number for a matrix that is not a state
    m, refusal = MALFORMED[bad]
    for rho in [m] if layer.kind == ONE_STATE else [m, np.stack([np.zeros_like(m), m])]:
        if TAKES.get(layer.kind) == bad:
            assert all(np.isfinite(x).all() for x in layer(rho)), rho.shape
        else:
            with pytest.raises(ValueError, match=f"^{layer.arg} (1 of the stack )?{refusal}"):
                layer(rho)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.name)
def test_a_stack_of_no_states_gives_empty_results(layer):
    no_states = np.zeros((0, 4, 4))
    if layer.kind == ONE_STATE:
        with pytest.raises(ValueError, match=r"^rho must be a 4x4 A\(x\)B density matrix \(one, not a stack\)"):
            layer(no_states)
        return
    one, empty = ([np.asarray(x) for x in layer(rho)] for rho in (np.eye(4) / 4.0, no_states))
    assert [(x.dtype, x.shape) for x in empty] == [(x.dtype, (0,) + x.shape) for x in one]


def test_layer_bits_on_the_edge_lines_do_not_depend_on_numpy_simd_dispatch(simd_digests):
    default, reduced = simd_digests
    if default["complex_product"] == reduced["complex_product"]:
        pytest.skip("NPY_DISABLE_CPU_FEATURES does not change numpy's complex product on this host")
    assert sorted(n for n in default if n.startswith("layer_")) == sorted(f"layer_{row.name}" for row in LAYERS)
    # the np.log loop of the entropies can move their last bit with the dispatch, while the eigenvalues do not
    for layer in LAYERS:
        if layer.name not in ("von_neumann_entropy", "mutual_information"):
            assert reduced[f"layer_{layer.name}"] == default[f"layer_{layer.name}"], layer.name
