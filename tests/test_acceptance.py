"""End-to-end acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance; the conftest hook prints one PASS/FAIL line per criterion after
the pytest summary.  Random regimes are seeded, so every run exercises the
same systems.
"""

import time

import numpy as np
import pytest

import consensim.cli as cli
from consensim.agents import build_agents, run_rounds
from consensim.engine import (
    build_system,
    certify,
    default_epsilon,
    epsilon_bound,
    matrix_stepper,
    run,
)
from consensim.graph import is_strongly_connected
from consensim.linalg import null_vector

from helpers import (
    brute_force_iterate,
    build_iteration_matrix,
    dyadic_epsilon,
    dyadic_weights,
    power_iteration,
    random_digraph,
    random_system,
    random_undirected_digraph,
    random_weights,
    strongly_connected_oracle,
)


@pytest.fixture(scope="module")
def theorem_suite():
    """200 certified random systems (n 2..25, density 0.2..0.9, weights
    0.1..10, eps = 0.9 * bound, x0 uniform in [-10, 10]) run to convergence."""
    rng = np.random.default_rng(10_001)
    traces = []
    start = time.perf_counter()
    for _ in range(200):
        g = random_digraph(rng)
        system = build_system(g, random_weights(rng, g.n))
        eps = 0.9 * epsilon_bound(system)
        x0 = rng.uniform(-10.0, 10.0, g.n)
        traces.append(run(system, x0, eps))
    elapsed = time.perf_counter() - start
    return traces, elapsed


@pytest.fixture(scope="module")
def undirected_suite():
    """100 certified undirected systems run to a tight tolerance, with the
    closed-form weighted mean recorded alongside."""
    rng = np.random.default_rng(10_002)
    records = []
    for _ in range(100):
        g = random_undirected_digraph(rng)
        system = build_system(g, random_weights(rng, g.n))
        eps = 0.9 * epsilon_bound(system)
        x0 = rng.uniform(-10.0, 10.0, g.n)
        trace = run(system, x0, eps, tol=1e-12)
        records.append((trace, float(system.w @ x0 / system.w.sum())))
    return records


@pytest.fixture(scope="module")
def unweighted_suite():
    """50 certified systems with unit weights, for the reduction to plain
    consensus."""
    rng = np.random.default_rng(10_003)
    records = []
    for _ in range(50):
        g = random_digraph(rng)
        system = build_system(g, np.ones(g.n))
        eps = 0.9 * epsilon_bound(system)
        x0 = rng.uniform(-10.0, 10.0, g.n)
        records.append((system, eps, x0, run(system, x0, eps)))
    return records


def test_criterion_1_certified_runs_converge_to_predicted_alpha(theorem_suite):
    traces, elapsed = theorem_suite
    assert len(traces) == 200
    for trace in traces:
        assert trace.converged_at is not None
        assert float(np.max(np.abs(trace.final_state - trace.predicted_alpha))) < 1e-8
    assert elapsed < 30.0


def test_criterion_2_undirected_closed_form_agreement(undirected_suite):
    assert len(undirected_suite) == 100
    for trace, closed in undirected_suite:
        assert trace.converged_at is not None
        spectral = trace.predicted_alpha
        assert abs(spectral - closed) < 1e-9
        assert float(np.max(np.abs(trace.final_state - spectral))) < 1e-9
        assert float(np.max(np.abs(trace.final_state - closed))) < 1e-9


def test_criterion_3_unit_weights_power_iteration_and_brute_force(unweighted_suite):
    assert len(unweighted_suite) == 50
    for system, eps, x0, trace in unweighted_suite:
        v = null_vector(system.lap_w.T)
        p = build_iteration_matrix(system, eps)
        res = power_iteration(
            p.T, np.full(system.n, 1.0 / system.n), max_iter=500_000, tol=1e-13
        )
        assert res.converged
        assert float(np.sum(np.abs(res.vector - v))) < 1e-8
        brute = brute_force_iterate(p, x0, 100_000)
        assert float(np.max(np.abs(brute - trace.predicted_alpha))) < 1e-8


def test_criterion_4_conservation_drift(theorem_suite, undirected_suite, unweighted_suite):
    traces, _ = theorem_suite
    drifts = [t.conserved_drift for t in traces]
    drifts += [t.conserved_drift for t, _ in undirected_suite]
    drifts += [r[3].conserved_drift for r in unweighted_suite]
    assert len(drifts) == 350
    assert max(drifts) < 1e-10


def test_criterion_5_certification_boundary():
    rng = np.random.default_rng(10_005)
    for _ in range(50):
        system = random_system(rng)
        bound = epsilon_bound(system)
        below = build_iteration_matrix(system, 0.999 * bound)
        assert certify(system, 0.999 * bound) == []
        assert float(below.min()) >= 0.0
        np.testing.assert_allclose(
            below.sum(axis=1), np.ones(system.n), rtol=0, atol=1e-12
        )
        above = build_iteration_matrix(system, 1.001 * bound)
        assert certify(system, 1.001 * bound) != []
        assert float(above.min()) < 0.0


def test_criterion_6_matrix_powers_reach_limit():
    rng = np.random.default_rng(10_006)
    accepted = 0
    attempts = 0
    while accepted < 20:
        attempts += 1
        assert attempts < 5000, "generator regime too strict"
        g = random_undirected_digraph(rng, n_lo=3, n_hi=8, dens_lo=0.5, dens_hi=0.9)
        system = build_system(g, random_weights(rng, g.n, lo=0.5, hi=2.0))
        eps = 0.9 * epsilon_bound(system)
        p = build_iteration_matrix(system, eps)
        # 64 steps expose the limit only when subdominant modes have decayed
        # below the tolerance, so keep draws with strong enough contraction;
        # the filter never looks at the limit matrix under test
        mags = np.sort(np.abs(np.linalg.eigvals(p)))
        if mags[-2] > 0.75:
            continue
        accepted += 1
        t = np.tile(system.v, (system.n, 1))
        p64 = np.linalg.matrix_power(p, 64)
        assert float(np.max(np.abs(p64 - t))) < 1e-6
        assert float(np.max(np.abs(t @ p - t))) < 1e-10


def test_criterion_7_agent_matrix_lockstep_and_cli_compare(tmp_path):
    rng = np.random.default_rng(10_007)
    for idx in range(50):
        g = random_digraph(rng, n_hi=15)
        system = build_system(g, random_weights(rng, g.n))
        eps = default_epsilon(system)
        x0 = rng.uniform(-10.0, 10.0, g.n)

        agents = build_agents(system, x0)
        reports = run_rounds(agents, eps, 100)
        step = matrix_stepper(system, eps)
        x = x0.copy()
        for r in range(101):
            assert np.array(reports[r].states, dtype=np.float64).tobytes() == x.tobytes(), (
                f"system {idx} diverged at round {r}"
            )
            if r < 100:
                x = step(x)

        gpath = tmp_path / f"g{idx}.txt"
        gpath.write_text(
            f"nodes {g.n}\n" + "".join(f"{i} {j}\n" for i, j in sorted(g.edges))
        )
        wpath = tmp_path / f"w{idx}.txt"
        wpath.write_text("".join(f"{float(w)!r}\n" for w in system.w))
        xpath = tmp_path / f"x{idx}.txt"
        xpath.write_text("".join(f"{float(v)!r}\n" for v in x0))
        rc = cli.main(
            ["compare", "--graph", str(gpath), "--weights", str(wpath), "--x0", str(xpath),
             "--tol", "1e-300", "--max-steps", "100"]
        )
        assert rc == 0


def test_criterion_8_strong_connectivity_oracle():
    rng = np.random.default_rng(10_008)
    for _ in range(1000):
        g = random_digraph(
            rng, n_lo=1, n_hi=10, dens_lo=0.05, dens_hi=0.95, require_strong=False
        )
        assert is_strongly_connected(g) == strongly_connected_oracle(g)


def test_criterion_9_joint_scale_invariance():
    # weights on the grid k/256 and epsilon on k/65536: products with 0.5, 3,
    # and 100 are exactly representable, so both builds divide the same real
    # numbers and the matrices must agree bit for bit.  For weights with full
    # 53-bit mantissas the scaled inputs themselves round before the library
    # sees them; that regime is covered by a rounding-level bound in the
    # engine tests and documented in the README.
    rng = np.random.default_rng(10_009)
    for _ in range(20):
        g = random_digraph(rng)
        system = build_system(g, dyadic_weights(rng, g.n))
        eps = dyadic_epsilon(system)
        p_ref = build_iteration_matrix(system, eps)
        for c in (0.5, 3.0, 100.0):
            scaled = build_system(g, c * system.w)
            assert certify(scaled, c * eps) == []
            assert build_iteration_matrix(scaled, c * eps).tobytes() == p_ref.tobytes()
