"""Property tests for the engine's invariants over generated configurations.

The generated graphs are strongly connected by construction (directed
cycles, bidirected stars, and a random cycle plus chords) and the weights
spread over ten orders of magnitude, well past the 0.1-10 range the seeded
tests draw from.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from consensim.agents import agent_stepper  # noqa: E402
from consensim.engine import (  # noqa: E402
    build_system,
    certify,
    epsilon_bound,
    matrix_stepper,
    transposed_iteration_operator,
)
from consensim.graph import Digraph  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def certified_configurations(draw):
    """(system, eps) with a strongly connected graph and eps below the bound."""
    n = draw(st.integers(min_value=2, max_value=30))
    family = draw(st.sampled_from(["cycle", "star", "cycle-with-chords"]))
    if family == "cycle":
        edges = {(i, (i + 1) % n) for i in range(n)}
    elif family == "star":
        edges = {(0, i) for i in range(1, n)} | {(i, 0) for i in range(1, n)}
    else:
        order = draw(st.permutations(range(n)))
        edges = {(order[k], order[(k + 1) % n]) for k in range(n)}
        node = st.integers(min_value=0, max_value=n - 1)
        chords = draw(st.lists(st.tuples(node, node), max_size=3 * n))
        edges |= {(i, j) for i, j in chords if i != j}
    exponents = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    system = build_system(Digraph(n=n, edges=frozenset(edges)), 10.0 ** np.array(exponents))
    factor = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    eps = factor * epsilon_bound(system)
    assume(eps > 0.0 and certify(system, eps) == [])
    return system, eps


@PROPERTY_SETTINGS
@given(config=certified_configurations(), data=st.data())
def test_transposed_operator_is_column_stochastic(config, data):
    # P is nonnegative and row-stochastic when certified, so P^T maps
    # nonnegative vectors to nonnegative vectors and preserves their sum
    system, eps = config
    n = system.n
    x = np.array(data.draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)))
    y = transposed_iteration_operator(system, eps)(x)
    assert float(y.min()) >= 0.0
    # each entry of P and each product and partial sum rounds once, all
    # terms are nonnegative, so the error is a small multiple of sum(x)
    slack = (n + system.graph.m + 4) * np.finfo(np.float64).eps * float(x.sum())
    assert abs(float(y.sum()) - float(x.sum())) <= slack


LOCKSTEP_ROUNDS = 50


@PROPERTY_SETTINGS
@given(config=certified_configurations(), data=st.data())
def test_agent_and_matrix_steppers_agree_bitwise(config, data):
    # both sum each node's neighbors in the same ascending order with the
    # same ratio eps / w_i, so every round's states match bit for bit
    system, eps = config
    n = system.n
    x0 = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    agents = agent_stepper(system, x0, eps)
    matrix = matrix_stepper(system, eps)
    x = y = x0
    for r in range(1, LOCKSTEP_ROUNDS + 1):
        x = agents(x)
        y = matrix(y)
        assert x.tobytes() == y.tobytes(), f"round {r}"
