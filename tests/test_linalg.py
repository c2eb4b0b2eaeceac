import numpy as np
import pytest

from consensim.engine import build_system, default_epsilon
from consensim.graph import parse_edge_list
from consensim.linalg import NullSpaceError, gmres_null_vector, null_vector

from helpers import (
    build_iteration_matrix,
    elimination_null_vector,
    power_iteration,
    random_digraph,
    random_weights,
    ring_with_chords,
)


class TestNullVector:
    def test_symmetric_pair(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_array_equal(null_vector(m), [0.5, 0.5])

    def test_weighted_three_cycle(self):
        # transposed row-rescaled Laplacian of the 3-cycle with weights 1, 2, 3;
        # the null direction is proportional to the weights
        g = parse_edge_list("0 1\n1 2\n2 0\n")
        system = build_system(g, [1.0, 2.0, 3.0])
        v = null_vector(system.lap_w.T)
        np.testing.assert_allclose(v, [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0], rtol=0, atol=1e-14)
        # substitution check against the untouched matrix
        assert np.max(np.abs(system.lap_w.T @ v)) < 1e-14

    def test_one_by_one_zero_matrix(self):
        np.testing.assert_array_equal(null_vector(np.zeros((1, 1))), [1.0])

    @pytest.mark.parametrize(
        "m, message",
        [
            (np.ones((2, 3)), "expected a square matrix"),
            ([[1.0, np.nan], [0.0, 1.0]], "matrix has non-finite entries"),
            (np.zeros((0, 0)), "expected a nonempty matrix"),
        ],
        ids=["not-square", "non-finite", "empty"],
    )
    def test_rejects_a_matrix_that_is_not_square_and_finite(self, m, message):
        with pytest.raises(ValueError, match=message):
            null_vector(m)

    def test_rejects_a_solution_that_is_not_positive(self):
        # a single arc: the bordered solve succeeds and returns [0, 1]
        system = build_system(parse_edge_list("0 1\n"), np.ones(2))
        with pytest.raises(NullSpaceError, match="not entrywise positive"):
            null_vector(system.lap.T)

    def test_rejects_nonsingular_matrix(self):
        # the bordered system is solvable, but its solution is no null vector
        with pytest.raises(NullSpaceError, match="residual"):
            null_vector(np.eye(3))

    def test_rejects_null_space_dimension_two(self):
        # Laplacian of two disconnected symmetric pairs: each component
        # contributes a null direction, so the bordered system is singular
        g = parse_edge_list("0 1\n1 0\n2 3\n3 2\n")
        system = build_system(g, np.ones(4))
        with pytest.raises(NullSpaceError, match="singular"):
            null_vector(system.lap_w.T)

    def test_random_systems_positive_normalized_small_residual(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            g = random_digraph(rng, n_hi=12, dens_lo=0.3)
            system = build_system(g, random_weights(rng, g.n))
            m = system.lap_w.T
            v = null_vector(m)
            assert float(v.min()) > 0.0
            assert abs(float(np.sum(np.abs(v))) - 1.0) < 1e-12
            resid = float(np.max(np.abs(m @ v)))
            norm = float(np.max(np.sum(np.abs(m), axis=1)))
            assert resid <= 1e-10 * norm * float(np.max(np.abs(v)))

    def test_unweighted_case_reduces_to_laplacian_null_vector(self):
        # with unit weights the rescaled Laplacian equals the plain one
        g = parse_edge_list("0 1\n1 2\n2 0\n")
        system = build_system(g, np.ones(3))
        np.testing.assert_allclose(null_vector(system.lap_w.T), np.full(3, 1.0 / 3.0), atol=1e-15)


def gmres_on(g):
    system = build_system(g, np.ones(g.n))
    return gmres_null_vector(system.d, system.listeners, system.sources)


class TestGmresNullVector:
    def test_matches_the_dense_solve(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = ring_with_chords(rng, int(rng.integers(50, 400)), int(rng.integers(1, 5)))
            u = gmres_on(g)
            dense = null_vector(build_system(g, np.ones(g.n)).lap.T)
            np.testing.assert_allclose(u, dense, rtol=1e-12, atol=0)
            assert u.sum() == pytest.approx(1.0, abs=1e-15)

    def test_componentwise_residual_within_the_acceptance_bound(self):
        g = ring_with_chords(np.random.default_rng(42), 500, 3)
        system = build_system(g, np.ones(g.n))
        u = gmres_on(g)
        lap_t = system.lap.T
        omega = np.max(np.abs(lap_t @ u) / (np.abs(lap_t) @ u))
        assert omega <= 64 * g.n * np.finfo(np.float64).eps

    def test_balanced_graph_needs_no_iteration(self):
        # every in-degree equals the out-degree, so the uniform start is exact
        n = 500
        g = parse_edge_list("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        u = gmres_on(g)
        np.testing.assert_allclose(u, 1.0 / n, rtol=2 * np.finfo(np.float64).eps, atol=0)

    def test_one_node_without_edges(self):
        # every row of |L^T||u| is 0 here: the residual test must not divide by it
        np.testing.assert_array_equal(gmres_on(parse_edge_list("nodes 1\n")), [1.0])

    def test_stalled_solve_returns_none(self):
        n = 300
        edges = "".join(f"{i} {(i + 1) % n}\n" for i in range(n))
        edges += "".join(f"{i} {(i - 1) % n}\n" for i in range(0, n, 7))
        assert gmres_on(parse_edge_list(edges)) is None

    def test_sink_gives_no_positive_vector(self):
        # 0 -> 1 -> 2 with 2 a sink: the null vector of L^T is e_2; likewise
        # e_1 for the rooted arc 0 -> 1
        assert gmres_on(parse_edge_list("0 1\n1 2\n")) is None
        assert gmres_on(parse_edge_list("0 1\n")) is None

    def test_small_graphs_exhaust_the_krylov_space_in_one_cycle(self):
        # with n <= 30 the first cycle's basis spans the whole space, which
        # the larger graphs of the other tests never reach
        rng = np.random.default_rng(43)
        for _ in range(200):
            g = random_digraph(rng, n_hi=30, dens_lo=0.05)
            u = gmres_on(g)
            assert u is not None
            oracle = elimination_null_vector(build_system(g, np.ones(g.n)).lap.T)
            np.testing.assert_allclose(u, oracle, rtol=1e-12, atol=0)


class TestPowerIteration:
    # the dense power iteration kept in the test helpers as an oracle for v
    def test_identity_converges_immediately(self):
        res = power_iteration(np.eye(3), [1.0, 2.0, 1.0])
        assert res.converged
        assert res.iterations == 1
        assert res.value == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(res.vector, [0.25, 0.5, 0.25], atol=1e-15)

    def test_diagonal_dominant_eigenpair(self):
        res = power_iteration(np.diag([2.0, 1.0]), [1.0, 1.0], tol=1e-15)
        assert res.converged
        assert res.value == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(res.vector, [1.0, 0.0], atol=1e-12)

    def test_rotation_does_not_converge_and_is_flagged(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        res = power_iteration(rot, [1.0, 0.0], max_iter=50)
        assert not res.converged
        assert res.iterations == 50

    def test_rejects_zero_start(self):
        with pytest.raises(ValueError, match="nonzero"):
            power_iteration(np.eye(2), [0.0, 0.0])

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="max_iter"):
            power_iteration(np.eye(2), [1.0, 0.0], max_iter=0)
        with pytest.raises(ValueError, match="tol"):
            power_iteration(np.eye(2), [1.0, 0.0], tol=0.0)

    def test_null_space_start_is_reported_not_fatal(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        res = power_iteration(m, [1.0, 1.0])
        assert not res.converged or res.value == 0.0

    def test_agrees_with_elimination_on_weighted_systems(self):
        # dual route: the dominant left direction of the iteration matrix is
        # the same vector the direct solve extracts
        rng = np.random.default_rng(2024)
        for _ in range(40):
            g = random_digraph(rng, n_hi=10, dens_lo=0.4)
            system = build_system(g, random_weights(rng, g.n))
            v = null_vector(system.lap_w.T)
            p = build_iteration_matrix(system, default_epsilon(system))
            res = power_iteration(
                p.T, np.full(g.n, 1.0 / g.n), max_iter=500_000, tol=1e-13
            )
            assert res.converged
            assert abs(res.value - 1.0) < 1e-10
            assert float(np.sum(np.abs(res.vector - v))) < 1e-8


class TestEliminationOracle:
    # the hand-written elimination kept in the test helpers as an oracle for v
    def test_rejects_nonsingular_matrix(self):
        with pytest.raises(NullSpaceError, match="nonsingular"):
            elimination_null_vector(np.eye(3))

    def test_rejects_null_space_dimension_two(self):
        # Laplacian of two disconnected symmetric pairs: each component
        # contributes a null direction
        g = parse_edge_list("0 1\n1 0\n2 3\n3 2\n")
        system = build_system(g, np.ones(4))
        with pytest.raises(NullSpaceError, match="at least 2"):
            elimination_null_vector(system.lap_w.T)
