"""Property tests for the engine's invariants over generated configurations.

The generated graphs are strongly connected by construction (directed
cycles, bidirected stars, and a random cycle plus chords) and the weights
spread over ten orders of magnitude, well past the 0.1-10 range the seeded
tests draw from.  v comes from the weights on the stars and from GMRES on
the directed graphs.  On request the draws add ring-plus-chords graphs of a
few hundred nodes, on which GMRES takes more than one restart cycle.  Two
lockstep tests draw graphs that need not be strongly connected, so that
agents with no, one and several neighbors mix.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from consensim.agents import (  # noqa: E402
    Agent,
    agent_stepper,
    build_agents,
    run_rounds,
    step_round,
)
from consensim.engine import (  # noqa: E402
    HypothesisViolation,
    build_system,
    certify,
    default_epsilon,
    epsilon_bound,
    matrix_stepper,
    run,
)
from consensim.graph import Digraph  # noqa: E402

from helpers import (  # noqa: E402
    assert_same_run,
    random_digraph,
    random_weights,
    reference_run,
    ring_with_chords,
)

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def certified_configurations(draw, large=False):
    """(system, eps) with a strongly connected graph and eps below the bound.

    large adds ring-plus-chords graphs of 385 to 483 nodes, built from a
    drawn seed.
    """
    families = ["cycle", "star", "cycle-with-chords"] + (["large"] if large else [])
    family = draw(st.sampled_from(families))
    if family == "large":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = int(rng.integers(385, 484))
        g = ring_with_chords(rng, n, int(rng.integers(1, 5)))
        system = build_system(g, 10.0 ** rng.uniform(-5.0, 5.0, n))
        factor = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        eps = factor * epsilon_bound(system)
        assume(eps > 0.0 and certify(system, eps) == [])
        return system, eps
    n = draw(st.integers(min_value=2, max_value=30))
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


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_agent_rounds_match_the_matrix_stepper_at_any_out_degree(seed, data):
    # graphs that need not be strongly connected, so agents with no, one
    # and several neighbors mix; signed zeros travel through the messages
    rng = np.random.default_rng(seed)
    g = random_digraph(rng, n_lo=1, n_hi=10, dens_lo=0.0, dens_hi=0.6, require_strong=False)
    system = build_system(g, random_weights(rng, g.n))
    eps = default_epsilon(system)
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    x0 = np.array(data.draw(st.lists(values, min_size=g.n, max_size=g.n)), dtype=np.float64)
    reports = run_rounds(build_agents(system, x0), eps, 30)
    step = matrix_stepper(system, eps)
    x = x0
    for report in reports:
        assert np.array(report.states, dtype=np.float64).tobytes() == x.tobytes(), report.round
        assert report.messages_sent == (len(system.sources) if report.round else 0)
        x = step(x)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_every_agent_driver_matches_the_matrix_stepper(seed, data):
    # agent_stepper, run_rounds and repeated step_round calls on a graph
    # with an isolated last node; the two round drivers also carry a
    # hand-built agent that names neighbor 1 twice, whose update is spelled
    # out here in local_update's order, the sum starting from 0.0
    rng = np.random.default_rng(seed)
    g = random_digraph(rng, n_lo=1, n_hi=9, dens_lo=0.0, dens_hi=0.6, require_strong=False)
    g = Digraph(g.n + 1, g.edges)
    n = g.n
    system = build_system(g, random_weights(rng, n))
    eps = default_epsilon(system)
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    x0 = np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    extra = data.draw(values)
    m = len(system.sources) + 2
    rounds = 40
    networks = []
    for _ in range(2):
        agents = build_agents(system, x0)
        agents.append(Agent(id=n, weight=1.5, state=extra, neighbors=(1, 1)))
        networks.append(agents)
    reports = run_rounds(networks[0], eps, rounds)
    by_call = networks[1]
    stepper = agent_stepper(system, x0, eps)
    matrix = matrix_stepper(system, eps)
    x = y = x0
    for r in range(1, rounds + 1):
        x1 = x[1]
        extra = extra + (eps / 1.5) * (0.0 + (x1 - extra) + (x1 - extra))
        x = matrix(x)
        y = stepper(y)
        assert step_round(by_call, eps) == m
        want = np.append(x, extra).tobytes()
        assert y.tobytes() == x.tobytes(), r
        assert np.array(reports[r].states).tobytes() == want, r
        assert reports[r].messages_sent == m
        assert np.array([a.state for a in by_call]).tobytes() == want, r
    assert all(a.inbox == () for agents in networks for a in agents)


# budgets at and next to the run loop's block edges, plus anything up to 600
budgets = st.one_of(
    st.sampled_from([0, 1, 2, 3]),
    st.builds(lambda e, d: 2**e + d, st.integers(1, 9), st.integers(-1, 1)),
    st.integers(0, 600),
)


@PROPERTY_SETTINGS
@given(config=certified_configurations(), data=st.data())
def test_blocked_run_matches_the_step_by_step_oracle(config, data):
    # steps, states, disagreement and conserved values are bitwise the
    # oracle's; the drift's extremes come from one product per block, and
    # each v . x there differs from the per-step one by at most n * eps *
    # max|x| (||v||_1 = 1), with max|x| <= max|x0| on a certified run
    system, eps = config
    n = system.n
    x0 = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    # from above the initial disagreement (a run of no steps) down to 1e-8 of it
    tol = float(np.ptp(x0) or 1.0) * 10.0 ** data.draw(st.floats(-8.0, 0.5))
    max_steps = data.draw(budgets)
    snapshot_limit = data.draw(st.integers(2, 50))
    kwargs = dict(tol=tol, max_steps=max_steps, snapshot_limit=snapshot_limit)
    ref = reference_run(system, x0, eps, **kwargs)
    for stepper in (None, agent_stepper(system, x0, eps)):
        trace = run(system, x0, eps, stepper=stepper, **kwargs)
        assert_same_run(trace, ref)
        drift_slack = 2 * n * np.finfo(np.float64).eps
        assert abs(trace.conserved_drift - ref.conserved_drift) <= drift_slack


def seeded_state(data, n: int) -> np.ndarray:
    """x0 in [-1e6, 1e6) from a drawn seed, whatever the size of the system."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(-1e6, 1e6, n)


@PROPERTY_SETTINGS
@given(config=certified_configurations(large=True), data=st.data())
def test_v_dot_x_is_conserved_along_a_run(config, data):
    # v^T P = v^T for a certified step, so v . x keeps its initial value up
    # to rounding, with v from whichever route the system took; the bound is
    # acceptance criterion 4's, relative to max|x0|
    system, eps = config
    x0 = seeded_state(data, system.n)
    trace = run(system, x0, eps, tol=1e-300, max_steps=data.draw(st.integers(1, 300)))
    scale = float(np.max(np.abs(x0)))
    assert trace.predicted_alpha == float(system.v @ x0)
    assert trace.conserved_drift <= 1e-10
    assert abs(trace.conserved[-1] - trace.predicted_alpha) <= 1e-10 * scale


@PROPERTY_SETTINGS
@given(
    config=certified_configurations(large=True),
    power=st.integers(-30, 30),
    factor=st.floats(1e-3, 1e3),
    data=st.data(),
)
def test_joint_scale_invariance(config, power, factor, data):
    # P depends on eps / w_i alone, and v on w up to its normalization:
    # scaling (w, eps) by a power of two rounds nothing, so certification,
    # v and the whole run are bitwise unchanged; any other factor rounds
    # c * w_i, which moves v by a few ulps
    system, eps = config
    c = 2.0**power
    # a subnormal step size loses bits when scaled
    assume(min(eps, c * eps) >= np.finfo(np.float64).tiny)
    scaled = build_system(system.graph, c * system.w)
    assert certify(scaled, c * eps) == []
    assert scaled.v_route == system.v_route
    assert scaled.v.tobytes() == system.v.tobytes()
    x0 = seeded_state(data, system.n)
    kwargs = dict(tol=1e-300, max_steps=data.draw(st.integers(0, 100)))
    ref = run(system, x0, eps, **kwargs)
    trace = run(scaled, x0, c * eps, **kwargs)
    assert_same_run(trace, ref)
    assert trace.conserved_drift == ref.conserved_drift
    # above 64 nodes a run keeps no states but the final one: step both
    # systems here, every step of the run bit for bit
    step, step_scaled = matrix_stepper(system, eps), matrix_stepper(scaled, c * eps)
    x = y = x0
    for _ in range(ref.steps_run):
        x, y = step(x), step_scaled(y)
        assert x.tobytes() == y.tobytes()
    other = build_system(system.graph, factor * system.w)
    np.testing.assert_allclose(other.v, system.v, rtol=64 * np.finfo(np.float64).eps, atol=0)


@PROPERTY_SETTINGS
@given(config=certified_configurations())
def test_certification_boundary(config):
    # the bound itself is excluded: the float just below it is certified,
    # the bound and the float above it are not, and run refuses both
    system, _ = config
    bound = epsilon_bound(system)
    below = float(np.nextafter(bound, 0.0))
    assert certify(system, below) == []
    x0 = np.zeros(system.n)
    for eps in (bound, float(np.nextafter(bound, math.inf))):
        assert certify(system, eps) == [
            f"epsilon {eps!r} is not strictly below the bound {bound!r}"
        ]
        with pytest.raises(HypothesisViolation):
            run(system, x0, eps)
