import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdl

# Prints, one "name digest" a line: a digest of one numpy complex product; the bytes of the eigenvalues
# of a fixed real symmetric stack and of each of its members alone; the number of distinct states of
# the capped brute grids, their correlation tensor and a CHSH value; b_brute at two analyze pool points
# whose CHSH value a fused multiply-add would round otherwise; the probabilities of the verify sweep
# grid as one stack and of each of its states alone; and the CSVs of figures 1-7 at 41 steps and of
# figures 4 and 6, which read S_AB off the 2x2 environment, at 161.
_DIGEST_SCRIPT = """
import hashlib, os, tempfile
import numpy as np
from qdl.bell import chsh_brute_force, chsh_value, correlation_tensor
from qdl.figures import write_figure_csv
from qdl.linalg import hermitian_eigenvalues, partial_transpose
from qdl.states import Scenario, ScenarioParams, scenario_density
from qdl.verify import _AXES, BRUTE_RESOLUTION, SWEEP_RESOLUTION, _distinct, _grid
from qdl.visibility import visibility_sweep
sha = lambda *arrays: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
rng = np.random.default_rng(17)
g = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
print("complex_product", sha(g[0] * g[1]))
psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
bell = 0.7 * np.outer(psi, psi) + 0.3 * np.eye(4) / 4
stack = np.concatenate([(g.real + g.real.swapaxes(-1, -2)) / 2, partial_transpose(bell)[None]])
print("eigenvalues", sha(hermitian_eigenvalues(stack), *map(hermitian_eigenvalues, stack)))
rho = _distinct(np.concatenate([chunk.rho for chunk in _grid(BRUTE_RESOLUTION, *_AXES)]))[0]
settings = rng.standard_normal((4, len(rho), 3))
settings /= np.linalg.norm(settings, axis=-1, keepdims=True)
print("brute_states", len(rho))
print("correlation_tensor", sha(correlation_tensor(rho)))
print("chsh_value", sha(chsh_value(rho, *settings)))
for scenario, params in ((Scenario.SYSTEM, ScenarioParams(d=0.9999557243204511, r_s=0.9995418905310595)),
                         (Scenario.FREE, ScenarioParams(r=0.46637046862060194, d=0.9595898403230706))):
    print("b_brute_" + scenario.value, repr(chsh_brute_force(scenario_density(params, scenario)).b_brute))
rho = np.concatenate([chunk.rho for chunk in _grid(SWEEP_RESOLUTION, *_AXES)])
print("sweep", sha(visibility_sweep(rho).probabilities, *(visibility_sweep(s).probabilities for s in rho)))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "figure.csv")
    for n, resolution in [(n, 41) for n in range(1, 8)] + [(4, 161), (6, 161)]:
        write_figure_csv(n, resolution, path)
        with open(path, "rb") as fh:
            print(f"figure_{n}_{resolution}", hashlib.sha256(fh.read()).hexdigest())
"""


def _digests(disabled_features):
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if disabled_features:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled_features
    src = str(Path(qdl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return dict(line.split(" ", 1) for line in run.stdout.splitlines())


@pytest.fixture(scope="session")
def simd_digests():
    """The digests of one native run and of one without AVX2 and AVX-512 (X86_V3, X86_V4) dispatch.
    numpy fuses the multiply-add of a complex product under X86_V3 dispatch and not without it, so
    where the two complex_product digests differ, this host can tell the dispatches apart."""
    return _digests(None), _digests("X86_V4 X86_V3")
