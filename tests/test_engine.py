import math
import tracemalloc

import numpy as np
import pytest

import consensim.engine as engine
from consensim.agents import agent_stepper
from consensim.cli import default_initial_state
from consensim.engine import (
    HypothesisViolation,
    build_system,
    certify,
    default_epsilon,
    epsilon_bound,
    matrix_stepper,
    predict,
    run,
)
from consensim.graph import Digraph, parse_edge_list
from consensim.linalg import gmres_null_vector

from helpers import (
    assert_same_run,
    back_edge_cycle,
    brute_force_iterate,
    build_iteration_matrix,
    dense_route_v,
    dyadic_epsilon,
    dyadic_weights,
    elimination_null_vector,
    iteration_matrix_oracle,
    laplacian,
    random_digraph,
    random_system,
    random_undirected_digraph,
    random_weights,
    reference_run,
    ring_with_chords,
)

THREE_CYCLE = parse_edge_list("0 1\n1 2\n2 0\n")
SYMMETRIC_PAIR = parse_edge_list("0 1\n1 0\n")


def operator_draws(count: int = 300):
    """(system, default step size, signed x) triples from a fixed stream."""
    rng = np.random.default_rng(61)
    for _ in range(count):
        system = random_system(rng)
        yield system, default_epsilon(system), rng.uniform(-1.0, 1.0, system.n)


class TestBuildSystem:
    def test_row_rescaled_laplacian(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        expected = np.array(
            [[1.0, -1.0, 0.0], [0.0, 0.5, -0.5], [-1.0 / 3.0, 0.0, 1.0 / 3.0]]
        )
        np.testing.assert_allclose(system.lap_w, expected, rtol=0, atol=1e-16)

    def test_unit_weights_leave_laplacian_unchanged(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        np.testing.assert_array_equal(system.lap_w, laplacian(THREE_CYCLE))

    def test_lap_w_is_bitwise_the_row_rescaled_laplacian(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            system = random_system(rng, n_hi=15, require_strong=False)
            expected = laplacian(system.graph) / system.w[:, None]
            assert system.lap_w.tobytes() == expected.tobytes()
            assert system.lap.tobytes() == laplacian(system.graph).tobytes()

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="strictly positive"):
            build_system(THREE_CYCLE, [1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="strictly positive"):
            build_system(THREE_CYCLE, [1.0, -2.0, 1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length 3"):
            build_system(THREE_CYCLE, [1.0, 2.0])

    def test_rejects_weights_that_are_not_a_vector(self):
        with pytest.raises(ValueError, match="expected a 1-D vector"):
            build_system(THREE_CYCLE, [[1.0, 2.0, 3.0]])

    def test_ones_vector_in_null_space(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            system = random_system(rng, n_hi=12, require_strong=False)
            assert np.max(np.abs(system.lap_w @ np.ones(system.n))) < 1e-12

    def test_edge_arrays_sorted_by_listener_then_source(self):
        g = Digraph(n=3, edges=frozenset({(2, 0), (0, 2), (0, 1), (1, 0)}))
        system = build_system(g, np.ones(3))
        assert system.listeners.tolist() == [0, 0, 1, 2]
        assert system.sources.tolist() == [1, 2, 0, 0]

    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: parse_edge_list("nodes 4\n3 2\n0 1\n2 0\n1 0\n0 3\n"),
            # the # line sends the text through the line loop
            lambda: parse_edge_list("# four edges\n3 2\n0 1\n2 0\n1 0\n"),
            lambda: Digraph(3, [(2, 0), (0, 1), (1, 0), (0, 2)]),
            lambda: Digraph(3, np.array([[2, 0], [0, 1], [1, 0], [0, 2]])),
            lambda: Digraph(1, []),
        ],
        ids=["bulk", "line-loop", "list", "ndarray", "no-edges"],
    )
    def test_edge_arrays_are_contiguous_views_of_the_graphs_columns(self, make_graph):
        g = make_graph()
        system = build_system(g, np.ones(g.n))
        for arr, column in [(system.listeners, 0), (system.sources, 1)]:
            assert arr.flags.c_contiguous
            np.testing.assert_array_equal(arr, g._edge_array[:, column])
            # a zero-size array shares memory with nothing, but a view still has a base
            assert np.shares_memory(arr, g._edge_array) if g.m else arr.base is not None


class TestStationaryVector:
    def test_solved_on_the_integer_laplacian(self, monkeypatch):
        seen = []
        null_vector = engine.null_vector

        def recording_null_vector(m):
            seen.append(np.array(m))
            return null_vector(m)

        monkeypatch.setattr(engine, "null_vector", recording_null_vector)
        # GMRES stalls on this graph, so v takes the dense route
        g = back_edge_cycle(400)
        system = build_system(g, np.arange(1.0, 401.0))
        assert system.v is not None
        assert len(seen) == 1
        assert seen[0].tobytes() == laplacian(g).T.tobytes()

    def test_directed_cycle_with_weight_spread_1e10(self):
        n = 50
        g = Digraph(n=n, edges=frozenset((i, (i + 1) % n) for i in range(n)))
        w = np.logspace(0, 10, n)
        system = build_system(g, w)
        assert certify(system, default_epsilon(system)) == []
        np.testing.assert_allclose(system.v, w / w.sum(), rtol=1e-12, atol=0)

    def test_undirected_graphs_give_the_normalized_weights(self):
        # the paper's undirected corollary: v = w / sum(w), taken as it
        # stands, over a weight spread of 1e10
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = random_undirected_digraph(rng)
            w = 10.0 ** rng.uniform(-5.0, 5.0, g.n)
            system = build_system(g, w)
            assert system.v.tobytes() == (w / w.sum()).tobytes()
            assert system.v_route == "weights"

    def test_an_overflowing_weight_sum_still_gives_a_unit_sum_v(self):
        # sum(w) is inf here, and w / sum(w) was the zero vector; scaling w
        # by a power of two first changes no ratio
        system = build_system(SYMMETRIC_PAIR, [1e308, 1e308])
        np.testing.assert_array_equal(system.v, [0.5, 0.5])
        assert system.v_route == "weights"
        pred = predict(system, [1.0, 0.0])
        assert pred.alpha == 0.5
        assert pred.rho_estimate == pytest.approx(1.0, abs=1e-15)
        trace = run(system, [1.0, 0.0])
        assert trace.converged_at is not None
        np.testing.assert_allclose(trace.final_state, [0.5, 0.5], atol=1e-10)

    def test_no_v_without_strong_connectivity(self):
        system = build_system(parse_edge_list("0 1\n"), np.ones(2))
        assert system.v is None
        assert system.v_route is None

    def test_small_directed_graphs_take_the_dense_route(self, monkeypatch):
        # when GMRES is rejected, v takes the dense route at every size:
        # no size gate is left in front of either route
        monkeypatch.setattr(engine, "gmres_null_vector", lambda d, listeners, sources: None)
        rng = np.random.default_rng(15)
        for _ in range(20):
            g = ring_with_chords(rng, int(rng.integers(4, 385)), 2)
            system = build_system(g, random_weights(rng, g.n))
            assert system.v.tobytes() == dense_route_v(system).tobytes()
            assert system.v_route == "dense"

    def test_gmres_agrees_with_the_dense_route(self):
        # every size takes GMRES first, from 4 nodes up
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(4, 385))
            g = ring_with_chords(rng, n, int(rng.integers(2, min(6, n - 1))))
            system = build_system(g, 10.0 ** rng.uniform(-5.0, 5.0, n))
            v = system.v
            assert system.v_route == "gmres"
            np.testing.assert_allclose(v, dense_route_v(system), rtol=1e-12, atol=0)
            assert float(v.min()) > 0.0

    def test_gmres_agrees_with_the_dense_route_above_the_crossover(self):
        # 384 nodes was the crossover below which v took the dense route; the
        # sizes above it have taken GMRES all along
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = 384 + int(rng.integers(1, 217))
            g = ring_with_chords(rng, n, int(rng.integers(2, 6)))
            system = build_system(g, 10.0 ** rng.uniform(-5.0, 5.0, n))
            v = system.v
            assert system.v_route == "gmres"
            np.testing.assert_allclose(v, dense_route_v(system), rtol=1e-12, atol=0)
            assert float(v.min()) > 0.0

    def test_gmres_route_allocates_no_dense_matrix(self):
        # the dense route holds L and its bordered copy, 2 * 8 * n^2 bytes =
        # 64 MB at n = 2000; GMRES holds a basis of 31 vectors, 0.5 MB
        n = 2000
        system = build_system(ring_with_chords(np.random.default_rng(17), n, 3), np.ones(n))
        assert system.strongly_connected and not system.undirected
        tracemalloc.start()
        try:
            system.v
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert system.v_route == "gmres"
        assert peak < 4_000_000

    def test_stalled_gmres_falls_back_to_the_dense_route(self):
        # restarted GMRES still has a residual near 1e-6 after its last cycle
        system = build_system(back_edge_cycle(400), np.arange(1.0, 401.0))
        assert gmres_null_vector(system.d, system.listeners, system.sources) is None
        assert system.v.tobytes() == dense_route_v(system).tobytes()
        assert system.v_route == "dense"

    def test_agrees_with_the_elimination_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            system = random_system(rng)
            oracle = elimination_null_vector(system.lap_w.T)
            np.testing.assert_allclose(system.v, oracle, rtol=1e-12, atol=0)


class TestEpsilonBound:
    def test_weighted_three_cycle(self):
        assert epsilon_bound(build_system(THREE_CYCLE, [1.0, 2.0, 3.0])) == 1.0

    def test_unit_weights_inverse_max_degree(self):
        g = parse_edge_list("0 1\n0 2\n1 0\n2 0\n")
        assert epsilon_bound(build_system(g, np.ones(3))) == 0.5

    def test_nodes_without_out_edges_do_not_constrain(self):
        g = parse_edge_list("0 1\n")
        system = build_system(g, [2.0, 0.001])
        assert epsilon_bound(system) == 2.0

    def test_edgeless_graph_has_infinite_bound(self):
        system = build_system(Digraph(n=3, edges=frozenset()), np.ones(3))
        assert math.isinf(epsilon_bound(system))
        assert default_epsilon(system) == 1.0

    def test_default_is_nine_tenths_of_bound(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        assert default_epsilon(system) == 0.9


class TestBuildIterationMatrix:
    def test_unit_weight_three_cycle_half_step(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        p = build_iteration_matrix(system, 0.5)
        expected = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        np.testing.assert_array_equal(p, expected)
        assert certify(system, 0.5) == []

    def test_matches_whole_matrix_expression(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            system = random_system(rng, n_hi=15)
            eps = float(rng.uniform(0.1, 1.0)) * epsilon_bound(system)
            p = build_iteration_matrix(system, eps)
            np.testing.assert_allclose(p, iteration_matrix_oracle(system, eps), atol=1e-14)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            system = random_system(rng, n_hi=25)
            p = build_iteration_matrix(system, default_epsilon(system))
            np.testing.assert_allclose(p.sum(axis=1), np.ones(system.n), rtol=0, atol=1e-12)

    def test_entries_nonnegative_below_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            system = random_system(rng, n_hi=25)
            eps = float(rng.uniform(0.05, 0.999)) * epsilon_bound(system)
            p = build_iteration_matrix(system, eps)
            assert float(p.min()) >= 0.0
            assert certify(system, eps) == []

    def test_above_bound_negative_diagonal_and_uncertified(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        p = build_iteration_matrix(system, 1.5)
        assert float(p.min()) < 0.0
        assert certify(system, 1.5) == ["epsilon 1.5 is not strictly below the bound 1.0"]

    def test_epsilon_exactly_at_bound_is_uncertified(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        assert certify(system, epsilon_bound(system)) == [
            "epsilon 1.0 is not strictly below the bound 1.0"
        ]

    def test_not_strongly_connected_is_uncertified(self):
        g = parse_edge_list("0 1\n")
        system = build_system(g, np.ones(2))
        assert certify(system, 0.5) == ["graph is not strongly connected"]
        assert certify(system, 1.0) == [
            "graph is not strongly connected",
            "epsilon 1.0 is not strictly below the bound 1.0",
        ]

    def test_rejects_bad_epsilon(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        for bad in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                build_iteration_matrix(system, bad)
            with pytest.raises(ValueError, match="positive and finite"):
                certify(system, bad)


class TestScaleInvariance:
    def test_joint_rescaling_is_bit_identical_on_dyadic_grids(self):
        # weights on k/256 and epsilon on k/65536 make the products with each
        # scale factor exact, so the ratio epsilon/w is the same real number
        # before rounding and the matrices must match bit for bit
        rng = np.random.default_rng(31)
        for _ in range(50):
            g = random_digraph(rng, n_hi=15)
            system = build_system(g, dyadic_weights(rng, g.n))
            eps = dyadic_epsilon(system)
            p_ref = build_iteration_matrix(system, eps)
            for c in (0.5, 3.0, 100.0):
                scaled = build_system(g, c * system.w)
                p_scaled = build_iteration_matrix(scaled, c * eps)
                assert p_ref.tobytes() == p_scaled.tobytes()

    def test_joint_rescaling_with_arbitrary_weights_stays_within_rounding(self):
        # with full-mantissa weights the scaled inputs c*w and c*eps already
        # round before the matrix is built; the ratio then carries at most a
        # few ulps of discrepancy, so entries of the certified matrix (all in
        # [0, 1]) agree to a handful of roundings at unit scale
        rng = np.random.default_rng(32)
        for _ in range(50):
            g = random_digraph(rng, n_hi=15)
            system = build_system(g, random_weights(rng, g.n))
            eps = 0.9 * epsilon_bound(system)
            p_ref = build_iteration_matrix(system, eps)
            for c in (0.5, 3.0, 100.0):
                scaled = build_system(g, c * system.w)
                p_scaled = build_iteration_matrix(scaled, c * eps)
                assert float(np.max(np.abs(p_ref - p_scaled))) <= 2e-15

    def test_halving_is_exact_for_any_weights(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            g = random_digraph(rng, n_hi=15)
            system = build_system(g, random_weights(rng, g.n))
            eps = 0.9 * epsilon_bound(system)
            scaled = build_system(g, 0.5 * system.w)
            p_ref = build_iteration_matrix(system, eps)
            p_scaled = build_iteration_matrix(scaled, 0.5 * eps)
            assert p_ref.tobytes() == p_scaled.tobytes()


class TestPredict:
    def test_weighted_three_cycle(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        pred = predict(system, [6.0, 0.0, 0.0])
        np.testing.assert_allclose(pred.v, [1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0], atol=1e-14)
        assert pred.alpha == pytest.approx(1.0, abs=1e-12)
        assert pred.rho_estimate == pytest.approx(1.0, abs=1e-10)

    def test_rejects_not_strongly_connected(self):
        system = build_system(parse_edge_list("0 1\n"), np.ones(2))
        with pytest.raises(HypothesisViolation, match="strongly connected"):
            predict(system, [1.0, 2.0])

    def test_alpha_is_weighted_mean_on_undirected_graphs(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            g = random_undirected_digraph(rng, n_hi=12)
            system = build_system(g, random_weights(rng, g.n))
            x0 = rng.uniform(-10.0, 10.0, g.n)
            pred = predict(system, x0)
            assert pred.alpha == pytest.approx(float(system.w @ x0 / system.w.sum()), abs=1e-10)

    def test_rho_matches_the_dense_power_iteration(self):
        # one dense power-iteration step from v at the default step size: the
        # Rayleigh quotient with the dense P, whose products round differently
        # from the edge-list step
        machine_eps = np.finfo(np.float64).eps
        for system, eps, x in operator_draws():
            v = system.v
            dense = float(v @ (build_iteration_matrix(system, eps) @ v)) / float(v @ v)
            rho = predict(system, x).rho_estimate
            assert abs(rho - dense) <= 4 * machine_eps
            assert abs(rho - 1.0) <= 4 * machine_eps

    def test_rho_is_one_on_a_slow_weighted_cycle(self):
        # slowly mixing: a power iteration from the uniform vector is still
        # 5e-8 away from 1 after 20,000 steps here
        n = 85
        cycle = Digraph(n=n, edges=frozenset((i, (i + 1) % n) for i in range(n)))
        system = build_system(cycle, np.linspace(1.0, 10.0, n))
        rho = predict(system, np.zeros(n)).rho_estimate
        assert abs(rho - 1.0) <= 4 * np.finfo(np.float64).eps

    def test_makes_one_stepper_product(self, monkeypatch):
        calls = []
        matrix_stepper = engine.matrix_stepper

        def counting_matrix_stepper(system, epsilon):
            step = matrix_stepper(system, epsilon)

            def counted(x):
                calls.append(x)
                return step(x)

            return counted

        monkeypatch.setattr(engine, "matrix_stepper", counting_matrix_stepper)
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        predict(system, [6.0, 0.0, 0.0])
        assert len(calls) == 1
        assert calls[0] is system.v


class TestRun:
    @pytest.mark.parametrize(
        "call, x0",
        [(run, [1.0, math.nan, 3.0]), (predict, [1.0, math.inf, 3.0])],
        ids=["run", "predict"],
    )
    def test_rejects_a_start_state_with_a_non_finite_entry(self, call, x0):
        with pytest.raises(ValueError, match="vector has non-finite entries"):
            call(build_system(THREE_CYCLE, np.ones(3)), x0)

    def test_symmetric_pair_reaches_weighted_mean(self):
        system = build_system(SYMMETRIC_PAIR, [1.0, 3.0])
        trace = run(system, [4.0, 0.0])
        assert trace.converged_at is not None
        np.testing.assert_allclose(trace.final_state, [1.0, 1.0], atol=1e-9)
        assert trace.predicted_alpha == pytest.approx(1.0, abs=1e-12)

    def test_final_state_matches_brute_force_iteration(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            system = random_system(rng, n_hi=12)
            eps = default_epsilon(system)
            x0 = rng.uniform(-10.0, 10.0, system.n)
            trace = run(system, x0, eps)
            p = build_iteration_matrix(system, eps)
            brute = brute_force_iterate(p, x0, 20_000)
            assert trace.converged_at is not None
            np.testing.assert_allclose(trace.final_state, brute, atol=1e-8)

    def test_already_constant_state_converges_at_step_zero(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        trace = run(system, np.full(3, 7.5))
        assert trace.converged_at == 0
        assert trace.steps_run == 0
        assert trace.steps == [0]
        np.testing.assert_array_equal(trace.final_state, np.full(3, 7.5))

    def test_single_node_graph(self):
        system = build_system(Digraph(n=1, edges=frozenset()), [2.0])
        trace = run(system, [3.25])
        assert trace.converged_at == 0
        assert trace.predicted_alpha == 3.25
        np.testing.assert_array_equal(trace.final_state, [3.25])

    def test_uncertified_requires_override(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        with pytest.raises(HypothesisViolation, match="not certified"):
            run(system, [1.0, 2.0, 3.0], epsilon=1.5)

    def test_override_runs_uncertified_and_may_diverge(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        trace = run(
            system, [1.0, 2.0, 3.0], epsilon=1.5, max_steps=50, override_uncertified=True
        )
        assert trace.converged_at is None
        assert trace.steps_run == 50
        assert trace.final_disagreement > 1.0

    def test_diverged_run_stops_at_the_first_non_finite_disagreement(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        trace = run(
            system, [1.0, 2.0, 3.0], epsilon=5.0, max_steps=2000, override_uncertified=True
        )
        assert trace.converged_at is None
        assert trace.steps_run < 2000
        assert trace.steps[-1] == trace.steps_run
        assert not math.isfinite(trace.final_disagreement)
        # every earlier recorded step still had a finite disagreement
        assert all(math.isfinite(d) for d in trace.disagreement[:-1])
        x = np.array([1.0, 2.0, 3.0])
        step = matrix_stepper(system, 5.0)
        for _ in range(trace.steps_run - 1):
            x = step(x)
        assert math.isfinite(float(x.max() - x.min()))

    def test_a_finite_state_whose_spread_overflows_is_not_diverged(self):
        # no edge of the path 0 - 1 - 2 joins its extremes, so no update
        # overflows; the spread max - min is inf at step 0 only
        system = build_system(parse_edge_list("0 1\n1 0\n1 2\n2 1\n"), np.ones(3))
        x0 = [1.7e308, 0.0, -1.7e308]
        step = matrix_stepper(system, default_epsilon(system))
        for stepper in [None, lambda x: step(x)]:
            trace = run(system, x0, stepper=stepper)
            assert trace.disagreement[0] == math.inf
            assert trace.converged_at == trace.steps_run > 2
            assert_same_run(trace, reference_run(system, x0))

    def test_a_run_diverges_at_its_first_non_finite_state(self):
        # step 0's spread overflows, but its entries are finite; step 1's are not
        system = build_system(parse_edge_list("0 1\n1 0\n"), np.ones(2))
        step = matrix_stepper(system, default_epsilon(system))
        for stepper in [None, lambda x: step(x)]:
            trace = run(system, [1.7e308, -1.7e308], stepper=stepper)
            assert (trace.steps_run, trace.converged_at) == (1, None)
            assert not np.isfinite(trace.final_state).all()

    def test_diverged_run_reports_nan_conserved_drift(self):
        # min/max skip a nan v . x; the spread of the finite prefix is no drift
        system = build_system(THREE_CYCLE, np.ones(3))
        trace = run(
            system, [1.0, 2.0, 3.0], epsilon=5.0, max_steps=2000, override_uncertified=True
        )
        assert not math.isfinite(trace.conserved[-1])
        assert math.isnan(trace.conserved_drift)

    def test_override_on_disconnected_graph_reports_nan_diagnostics(self):
        g = parse_edge_list("0 1\n")
        system = build_system(g, np.ones(2))
        trace = run(system, [1.0, 0.0], epsilon=0.5, max_steps=200, override_uncertified=True)
        assert math.isnan(trace.predicted_alpha)
        assert math.isnan(trace.conserved_drift)
        assert all(math.isnan(c) for c in trace.conserved)
        # the arc still drags node 0 toward node 1
        assert trace.converged_at is not None
        np.testing.assert_allclose(trace.final_state, [0.0, 0.0], atol=1e-9)

    def test_non_convergence_within_budget_reports_none(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        trace = run(system, [9.0, 0.0, 0.0], max_steps=3)
        assert trace.converged_at is None
        assert trace.steps_run == 3
        assert len(trace.steps) == 4

    def test_conservation_along_certified_runs(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            system = random_system(rng, n_hi=20)
            x0 = rng.uniform(-10.0, 10.0, system.n)
            trace = run(system, x0)
            assert trace.conserved_drift < 1e-10

    def test_disagreement_is_monotone_on_certified_runs(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            system = random_system(rng, n_hi=15)
            x0 = rng.uniform(-10.0, 10.0, system.n)
            trace = run(system, x0, snapshot_limit=1_000_000)
            dis = trace.disagreement
            assert all(dis[k + 1] <= dis[k] + 1e-12 for k in range(len(dis) - 1))

    def test_recorded_states_follow_the_matrix_recurrence(self):
        rng = np.random.default_rng(54)
        system = random_system(rng, n_hi=10)
        eps = default_epsilon(system)
        x0 = rng.uniform(-10.0, 10.0, system.n)
        trace = run(system, x0, eps, snapshot_limit=1_000_000)
        p = build_iteration_matrix(system, eps)
        assert trace.steps == list(range(trace.steps_run + 1))
        for k in range(len(trace.steps) - 1):
            np.testing.assert_allclose(
                trace.states[k + 1], p @ trace.states[k], rtol=0, atol=1e-12
            )

    def test_alpha_prediction_reached_from_both_engine_routes(self):
        # the recorded final state and the spectral prediction must agree;
        # 4-node symmetric ring with unit weights averages the initial state
        g = parse_edge_list("0 1\n1 0\n1 2\n2 1\n2 3\n3 2\n3 0\n0 3\n")
        system = build_system(g, np.ones(4))
        trace = run(system, [1.0, 2.0, 3.0, 4.0])
        assert trace.predicted_alpha == pytest.approx(2.5, abs=1e-12)
        np.testing.assert_allclose(trace.final_state, np.full(4, 2.5), atol=1e-9)

    def test_snapshot_downsampling_keeps_first_and_last(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        trace = run(
            system,
            [5.0, -3.0, 1.0],
            epsilon=0.999,
            tol=1e-15,
            max_steps=5000,
            snapshot_limit=40,
            override_uncertified=False,
        )
        assert len(trace.steps) <= 40
        assert trace.steps[0] == 0
        assert trace.steps[-1] == trace.steps_run
        assert trace.steps == sorted(set(trace.steps))
        # interior rows sit on one power-of-two stride
        interior = trace.steps[1:-1]
        if interior:
            stride = interior[0]
            assert all(s % stride == 0 for s in interior)

    def test_custom_stepper_drives_the_same_loop(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        eps = default_epsilon(system)
        calls = []
        inner = matrix_stepper(system, eps)

        def spy(x):
            calls.append(1)
            return inner(x)

        trace = run(system, [3.0, 0.0, 0.0], eps, stepper=spy)
        assert trace.converged_at is not None
        assert len(calls) == trace.steps_run

    def test_a_stepper_returning_a_list_gives_the_same_run(self):
        # the loop copies each returned state into its block, whatever its type
        system = build_system(SLOW_CYCLE, random_weights(np.random.default_rng(9), 24))
        eps = default_epsilon(system)
        x0 = np.random.default_rng(10).uniform(-1.0, 1.0, 24)
        inner = matrix_stepper(system, eps)
        kwargs = dict(max_steps=700, snapshot_limit=20)
        as_list = run(system, x0, eps, stepper=lambda x: inner(np.asarray(x)).tolist(), **kwargs)
        as_array = run(system, x0, eps, stepper=inner, **kwargs)
        assert_same_run(as_list, as_array)
        assert as_list.predicted_alpha == as_array.predicted_alpha
        assert as_list.conserved_drift == as_array.conserved_drift

    @pytest.mark.parametrize(
        "bad", [lambda x: np.array([x[0]]), lambda x: float(x[0])], ids=["one-entry", "float"]
    )
    def test_rejects_a_stepper_return_of_the_wrong_shape(self, bad):
        # numpy would broadcast it into every entry: consensus at step 1
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"stepper returned shape \((1,)?\), expected \(3,\)"):
            run(system, [6.0, 0.0, 0.0], stepper=bad)

    def test_identical_configurations_are_bitwise_reproducible(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        t1 = run(system, [6.0, 0.0, 0.0])
        t2 = run(system, [6.0, 0.0, 0.0])
        assert t1.steps == t2.steps
        for a, b in zip(t1.states, t2.states):
            assert a.tobytes() == b.tobytes()

    def test_rejects_bad_tolerances(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        with pytest.raises(ValueError, match="tol"):
            run(system, [1.0, 2.0, 3.0], tol=0.0)
        with pytest.raises(ValueError, match="max_steps"):
            run(system, [1.0, 2.0, 3.0], max_steps=-1)
        for bad in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                run(system, [1.0, 2.0, 3.0], epsilon=bad, override_uncertified=True)

    @pytest.mark.parametrize("limit", [0, 1, -5, math.nan])
    def test_rejects_a_snapshot_limit_below_two(self, limit):
        # a trace always holds the first and the final step
        system = build_system(THREE_CYCLE, np.ones(3))
        with pytest.raises(ValueError, match="snapshots must be at least 2"):
            run(system, [1.0, 2.0, 3.0], snapshot_limit=limit)

    @pytest.mark.parametrize(
        "budget", [{"max_steps": 2.5}, {"snapshot_limit": 2.9}], ids=["max_steps", "snapshots"]
    )
    def test_rejects_a_budget_that_is_not_an_integer(self, budget, monkeypatch):
        # a float budget fails before any work, neither inside the loop nor truncated
        def no_work(*args):
            raise AssertionError("run did work before checking its budgets")

        monkeypatch.setattr(engine, "matrix_stepper", no_work)
        system = build_system(THREE_CYCLE, np.ones(3))
        with pytest.raises(TypeError, match="integer"):
            run(system, [1.0, 2.0, 3.0], **budget)

    def test_accepts_numpy_integer_budgets(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        trace = run(system, [9.0, 0.0, 0.0], max_steps=np.int64(3), snapshot_limit=np.int32(3))
        assert trace.steps == [0, 2, 3]
        assert trace.steps_run == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_tolerance_that_is_not_finite(self, bad):
        # every comparison with nan is false, so "tol <= 0" let it through
        # and the run could only end on its budget
        system = build_system(THREE_CYCLE, np.ones(3))
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            run(system, [1.0, 2.0, 3.0], tol=bad, max_steps=10)


SLOW_CYCLE = Digraph(n=24, edges=frozenset((i, (i + 1) % 24) for i in range(24)))


class TestBlockedLoop:
    """run steps states in blocks of 1, 2, 4, ... 256 rows; its edges."""

    @pytest.mark.parametrize("mode", ["matrix", "agents"])
    def test_converged_at_step_zero_takes_no_step(self, mode, monkeypatch):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        x0 = np.full(3, 7.5)
        calls = []
        inner = (
            agent_stepper(system, x0, 0.5) if mode == "agents" else matrix_stepper(system, 0.5)
        )

        def spy(x):
            calls.append(1)
            return inner(x)

        if mode == "agents":
            trace = run(system, x0, 0.5, stepper=spy)
        else:
            monkeypatch.setattr(engine, "matrix_stepper", lambda *args: spy)
            trace = run(system, x0, 0.5)
        assert (trace.converged_at, trace.steps_run, trace.steps) == (0, 0, [0])
        assert calls == []

    @pytest.mark.parametrize("mode", ["matrix", "agents"])
    @pytest.mark.parametrize("max_steps", [0, 1, 255, 256, 257, 511])
    def test_budget_at_block_edges(self, max_steps, mode):
        # the 24-cycle needs about 7000 steps, so each budget runs out
        system = build_system(SLOW_CYCLE, np.ones(24))
        x0 = np.arange(24.0)
        eps = default_epsilon(system)

        def stepper():
            return agent_stepper(system, x0, eps) if mode == "agents" else None

        inner = stepper()
        calls = []

        def spy(x):
            calls.append(1)
            return inner(x)

        trace = run(
            system, x0, eps, max_steps=max_steps, snapshot_limit=50,
            stepper=None if inner is None else spy,
        )
        assert trace.converged_at is None
        assert trace.steps_run == max_steps
        assert trace.steps[-1] == max_steps
        if mode == "agents":
            assert len(calls) == max_steps
        ref = reference_run(
            system, x0, eps, max_steps=max_steps, snapshot_limit=50, stepper=stepper()
        )
        assert_same_run(trace, ref)

    @pytest.mark.parametrize("mode", ["matrix", "agents"])
    def test_diverged_triangle_stops_at_the_same_step_in_both_modes(self, mode):
        # overflow past the stopping step is discarded, and numpy's warnings
        # on the way there stay silent under the suite's error filter
        system = build_system(THREE_CYCLE, np.ones(3))
        x0 = [1.0, 2.0, 3.0]
        stepper = agent_stepper(system, x0, 5.0) if mode == "agents" else None
        trace = run(system, x0, 5.0, override_uncertified=True, stepper=stepper)
        ref = reference_run(system, x0, 5.0)
        assert trace.converged_at is None
        assert not math.isfinite(trace.final_disagreement)
        assert trace.steps_run == ref.steps_run
        assert trace.final_state.tobytes() == ref.final_state.tobytes()

    def test_finite_rows_whose_spread_overflows_end_a_block_without_a_stop(self):
        # steps 1 and 3 are finite with an infinite spread: each ends its block,
        # the block test stops at neither, and the next block starts at the
        # next step; the stepper is called once per step, on the state it
        # last returned, and never past the stopping step
        system = build_system(SYMMETRIC_PAIR, np.ones(2))
        script = [[1.7e308, -1.7e308], [5e307, -5e307], [1.7e308, -1.7e308], [0.0, 0.0]]
        given, returned = [], []

        def scripted(x):
            given.append(x)
            returned.append(np.array(script[len(returned)]))
            return returned[-1]

        trace = run(system, [1.0, 0.0], stepper=scripted)
        assert trace.steps == [0, 1, 2, 3, 4]
        assert trace.disagreement == [1.0, math.inf, 1e308, math.inf, 0.0]
        assert (trace.converged_at, trace.steps_run) == (4, 4)
        assert given[0].tolist() == [1.0, 0.0]
        assert len(given) == 4 and all(a is b for a, b in zip(given[1:], returned))

    @pytest.mark.parametrize("snapshot_limit", [2, 3, 7, 1000])
    def test_long_run_matches_the_step_by_step_oracle(self, snapshot_limit):
        # several full 256-row blocks, with the sampler's stride doubling inside them
        system = build_system(SLOW_CYCLE, random_weights(np.random.default_rng(7), 24))
        x0 = np.random.default_rng(8).uniform(-1.0, 1.0, 24)
        trace = run(system, x0, snapshot_limit=snapshot_limit)
        ref = reference_run(system, x0, snapshot_limit=snapshot_limit)
        assert trace.converged_at is not None
        assert_same_run(trace, ref)
        eps = np.finfo(np.float64).eps
        assert abs(trace.conserved_drift - ref.conserved_drift) <= 2 * system.n * eps


FORTY_CYCLE = Digraph(n=40, edges=frozenset((i, (i + 1) % 40) for i in range(40)))


class TestTraceThinning:
    """The recorded steps in closed form, independent of the step-by-step oracle."""

    @pytest.mark.parametrize("limit", [2, 3, 5, 7, 1000])
    def test_steps_are_the_multiples_of_one_power_of_two_and_the_last(self, limit):
        # no 40-cycle run reaches this tolerance, so each budget runs out
        system = build_system(FORTY_CYCLE, np.ones(40))
        x0 = np.arange(40.0)
        # every small budget, and budgets around powers of two and around
        # the points where a full trace halves
        budgets = set(range(65)) | {
            b + d for b in [2**e for e in range(12)] + [(limit - 1) << e for e in range(3)]
            for d in (-1, 0, 1)
        }
        for budget in sorted(budgets):
            trace = run(system, x0, tol=1e-300, max_steps=budget, snapshot_limit=limit)
            # the smallest power of two whose multiples up to the budget fit in limit - 1 rows
            stride = 1
            while budget // stride + 1 > limit - 1:
                stride *= 2
            expected = list(range(0, budget + 1, stride))
            if expected[-1] != budget:
                expected.append(budget)
            assert trace.converged_at is None
            assert trace.steps == expected, budget


class TestLimitMatrix:
    # the limit of P^k: the rank-one matrix whose every row is v
    def test_symmetric_pair_unit_weights(self):
        # eps = 0.5 reaches the limit in one step
        system = build_system(SYMMETRIC_PAIR, np.ones(2))
        np.testing.assert_array_equal(
            build_iteration_matrix(system, 0.5), np.tile(system.v, (2, 1))
        )

    def test_rows_equal_stationary_direction(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        t = np.linalg.matrix_power(build_iteration_matrix(system, 0.5), 200)
        oracle = elimination_null_vector(system.lap_w.T)
        for row in t:
            np.testing.assert_allclose(row, oracle, rtol=0, atol=1e-12)

    def test_fixed_point_of_iteration(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            system = random_system(rng, n_hi=10, dens_lo=0.4)
            eps = default_epsilon(system)
            t = np.tile(system.v, (system.n, 1))
            p = build_iteration_matrix(system, eps)
            assert np.max(np.abs(t @ p - t)) < 1e-10
            assert np.max(np.abs(p @ t - t)) < 1e-10

    def test_matrix_powers_approach_the_limit(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        eps = 0.5
        p = build_iteration_matrix(system, eps)
        t = np.tile(system.v, (system.n, 1))
        assert np.max(np.abs(np.linalg.matrix_power(p, 200) - t)) < 1e-12


class TestUndirectedAlpha:
    # the undirected corollary: predict's alpha is the weighted mean sum(w x0) / sum(w)
    def test_weighted_pair(self):
        system = build_system(SYMMETRIC_PAIR, [1.0, 3.0])
        assert predict(system, [4.0, 0.0]).alpha == 1.0

    def test_unit_weights_give_plain_mean(self):
        g = parse_edge_list("0 1\n1 0\n1 2\n2 1\n")
        system = build_system(g, np.ones(3))
        assert predict(system, [1.0, 2.0, 6.0]).alpha == pytest.approx(3.0, abs=1e-15)

    def test_constant_state_is_its_own_mean(self):
        rng = np.random.default_rng(71)
        g = random_undirected_digraph(rng, n_hi=10)
        system = build_system(g, random_weights(rng, g.n))
        assert predict(system, np.full(g.n, 4.25)).alpha == pytest.approx(4.25, abs=1e-12)


class TestRecordsCompareByIdentity:
    """A system, a prediction and a trace hold arrays, so they compare and hash by identity."""

    def test_records_from_equal_inputs_compare_unequal(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        twin = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        x0 = [6.0, 0.0, 0.0]
        assert system == system and system != twin
        assert predict(system, x0) != predict(system, x0)
        assert run(system, x0) != run(system, x0)

    def test_records_hash_into_a_set(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        records = [system, predict(system, [6.0, 0.0, 0.0]), run(system, [6.0, 0.0, 0.0])]
        assert len({*records, *records}) == 3


FIVE_CYCLE = Digraph(n=5, edges=frozenset((i, (i + 1) % 5) for i in range(5)))


class TestRunRecord:
    """run keeps each row's printed values and the final state; states only up to 64 nodes."""

    @pytest.mark.parametrize("n", [64, 65])
    def test_rows_and_final_state_on_both_sides_of_the_cut(self, n):
        cycle = Digraph(n, [(i, (i + 1) % n) for i in range(n)])
        system = build_system(cycle, np.ones(n))
        x0 = default_initial_state(n, 3)
        trace = run(system, x0, tol=1e-3, snapshot_limit=50)
        assert_same_run(trace, reference_run(system, x0, tol=1e-3, snapshot_limit=50))
        assert len(trace.states) == (len(trace.steps) if n <= 64 else 0)
        assert trace.certified

    @pytest.mark.parametrize(
        "n, kwargs", [(5000, {}), (20_000, {"max_steps": 600})], ids=["5000", "20000-capped"]
    )
    def test_a_run_above_the_cut_keeps_no_full_states(self, n, kwargs):
        # at n = 5,000: 3,327 steps and 833 recorded rows, 40 KB each as states
        rng = np.random.default_rng(0)
        system = build_system(ring_with_chords(rng, n, 3), random_weights(rng, n, 0.1, 10.1))
        x0 = default_initial_state(system.n, 0)
        system.v  # computed once per system, before the measurement
        tracemalloc.start()
        try:
            trace = run(system, x0, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.states == []
        assert peak < 8_000_000


PATH = parse_edge_list("0 1\n1 0\n1 2\n2 1\n")


class TestStopReason:
    """run says how it ended, in both modes, as the step-by-step reference does."""

    @pytest.mark.parametrize("mode", ["matrix", "agents"])
    @pytest.mark.parametrize(
        "graph, x0, epsilon, max_steps, reason, steps_run",
        [
            (THREE_CYCLE, default_initial_state(3, 0), None, 10_000, "converged", None),
            (THREE_CYCLE, default_initial_state(3, 0), 5.0, 10_000, "diverged", 346),
            (THREE_CYCLE, default_initial_state(3, 0), None, 3, "budget", 3),
            # the spread is inf at step 0, yet every entry stays finite
            (PATH, np.array([1.7e308, 0.0, -1.7e308]), None, 10_000, "converged", None),
        ],
        ids=["converged", "diverged", "budget", "spread-overflows"],
    )
    def test_stop_reason(self, mode, graph, x0, epsilon, max_steps, reason, steps_run):
        system = build_system(graph, np.ones(graph.n))
        eps = default_epsilon(system) if epsilon is None else epsilon
        stepper = agent_stepper(system, x0, eps) if mode == "agents" else None
        trace = run(
            system, x0, eps, max_steps=max_steps, override_uncertified=True, stepper=stepper
        )
        assert trace.stop_reason == reason
        assert (trace.converged_at is not None) == (reason == "converged")
        if steps_run is not None:
            assert trace.steps_run == steps_run
        assert_same_run(trace, reference_run(system, x0, eps, max_steps=max_steps))


class TestKnownDefects:
    """Defects ROADMAP lists as open; the change that mends one turns its xfail into a test."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1, case 1: a stalled run spins its whole budget",
    )
    def test_a_stalled_five_cycle_stops_before_its_budget(self):
        # the disagreement stalls at 1.86e-9, above the default tol
        trace = run(build_system(FIVE_CYCLE, np.ones(5)), [1e7, 0, 0, 0, 0], max_steps=5000)
        assert trace.steps_run < 5000

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1, case 2: a tol below one ulp is never reached",
    )
    def test_a_triangle_stalled_at_one_ulp_stops_before_its_budget(self):
        system = build_system(THREE_CYCLE, np.ones(3))
        trace = run(system, default_initial_state(3, 0), tol=1e-300, max_steps=5000)
        assert trace.steps_run < 5000

