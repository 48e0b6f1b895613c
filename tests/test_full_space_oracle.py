"""The pipeline's amplitudes against the full-space oracle in `oracles.py`.

The oracle shares no code with the pipeline, so agreement checks the
fan-out, the transform and the storage of both backends at once. It
compares amplitudes, not probabilities, so it also sees a phase error such
as a conjugated transform, which leaves every probability unchanged.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from shorsim.distributions import analytic_joint_probability
from shorsim.numtheory import multiplicative_order
from shorsim.pipeline import run_pipeline
from shorsim.registers import DENSE, SPARSE, ProblemInstance, StateVector

# (n, x, ell), each a full space of at most 2**20 amplitudes.
CASES = [(15, 7, 1), (15, 7, 2), (15, 7, 3), (21, 2, 1), (21, 2, 2), (35, 2, 1)]


@pytest.mark.parametrize("qft", ["direct", "gates"])
@pytest.mark.parametrize("backend", [DENSE, SPARSE])
@pytest.mark.parametrize("n, x, ell", CASES)
def test_pipeline_amplitudes_match_the_oracle(n, x, ell, backend, qft):
    state = run_pipeline(ProblemInstance(n, x), ell=ell, backend=backend, qft=qft)
    expected = oracles.final_state(n, x, ell)
    assert expected.size == state.layout.dim <= 2**20
    assert np.max(np.abs(oracles.scatter(state) - expected.ravel())) <= 1e-14


@pytest.mark.parametrize("n, x, ell", CASES)
def test_a_conjugated_transform_fails_the_comparison(n, x, ell):
    # The exp(-2*pi*i) convention: every probability stays, the amplitudes do not.
    state = run_pipeline(ProblemInstance(n, x), ell=ell)
    index, amps = state.nonzero_arrays()
    conjugated = StateVector.from_arrays(state.layout, SPARSE, index, amps.conj())
    expected = oracles.final_state(n, x, ell).ravel()
    assert np.array_equal(np.abs(oracles.scatter(conjugated)), np.abs(oracles.scatter(state)))
    assert np.max(np.abs(oracles.scatter(conjugated) - expected)) > 0.1


@pytest.mark.parametrize("n, x", [(15, 7), (21, 2)])
def test_oracle_probabilities_equal_the_closed_form(n, x):
    # A third route: the oracle's |amplitude|^2 on (c, x^k) against the
    # geometric sum, and no mass anywhere else.
    probs = np.abs(oracles.final_state(n, x)) ** 2
    inst = ProblemInstance(n, x)
    r = multiplicative_order(x, n)
    expected = np.zeros_like(probs)
    for k in range(r):
        for c in range(inst.q):
            expected[c, pow(x, k, n)] = analytic_joint_probability(inst, r, c, k)
    assert np.max(np.abs(probs - expected)) <= 1e-12
    assert math.isclose(probs.sum(), 1.0, abs_tol=1e-12)


def test_oracle_imports_nothing_it_checks():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"numpy"}
