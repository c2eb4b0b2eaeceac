import numpy as np
import pytest

import consensim.agents
from consensim.agents import Agent, MessageProtocolError, agent_stepper, build_agents, run_rounds
from consensim.engine import build_system, default_epsilon, matrix_stepper
from consensim.graph import parse_edge_list

from helpers import actor_update, random_system, random_weights, tap_inboxes

THREE_CYCLE = parse_edge_list("0 1\n1 2\n2 0\n")


def make_agents(graph_text, w, x0):
    system = build_system(parse_edge_list(graph_text), w)
    return system, build_agents(system, x0)


class TestLocalUpdate:
    # one send to an agent's actor, with its messages at indices 0 .. k-1
    def test_single_neighbor(self):
        a = Agent(id=0, weight=1.0, state=0.0, neighbors=(1,))
        assert actor_update(a, 0.5, [2.0]) == 1.0

    def test_no_neighbors_keeps_state(self):
        a = Agent(id=3, weight=2.0, state=-4.5, neighbors=())
        assert actor_update(a, 0.7, []) == -4.5

    def test_equal_states_are_a_fixed_point(self):
        a = Agent(id=0, weight=3.0, state=2.5, neighbors=(1, 2))
        assert actor_update(a, 0.9, [2.5, 2.5]) == 2.5

    def test_weight_scales_the_step(self):
        light = Agent(id=0, weight=1.0, state=0.0, neighbors=(1,))
        heavy = Agent(id=0, weight=4.0, state=0.0, neighbors=(1,))
        assert actor_update(light, 0.5, [4.0]) == 2.0
        assert actor_update(heavy, 0.5, [4.0]) == 0.5

    def test_repeated_neighbor_gets_one_message_per_entry(self):
        # no graph builds such an agent; a hand-built one is read positionally
        a = Agent(id=0, weight=1.0, state=0.0, neighbors=(1, 1))
        assert actor_update(a, 0.25, [2.0, 6.0]) == 2.0

    def test_does_not_commit_state(self):
        a = Agent(id=0, weight=1.0, state=0.0, neighbors=(1,))
        actor_update(a, 0.5, [2.0])
        assert a.state == 0.0


class TestRounds:
    def test_one_round_of_unit_cycle(self):
        # each node moves halfway toward the node it listens to
        system, agents = make_agents("0 1\n1 2\n2 0\n", np.ones(3), [1.0, 0.0, 0.0])
        sent = run_rounds(agents, 0.5, 1)[-1].messages_sent
        assert sent == 3
        assert [a.state for a in agents] == [0.5, 0.0, 0.5]

    def test_messages_per_round_equals_edge_count(self):
        system, agents = make_agents("0 1\n0 2\n1 0\n2 0\n", np.ones(3), [1.0, 2.0, 3.0])
        reports = run_rounds(agents, 0.4, 3)
        assert [r.messages_sent for r in reports] == [0, 4, 4, 4]

    def test_zero_rounds_reports_initial_state_only(self):
        system, agents = make_agents("0 1\n1 0\n", [1.0, 3.0], [4.0, 0.0])
        reports = run_rounds(agents, 0.5, 0)
        assert len(reports) == 1
        assert reports[0].round == 0
        assert reports[0].states == (4.0, 0.0)
        assert reports[0].messages_sent == 0

    def test_rejects_negative_rounds(self):
        system, agents = make_agents("0 1\n1 0\n", np.ones(2), [1.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            run_rounds(agents, 0.5, -1)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.5, np.inf])
    def test_rejects_a_step_size_that_is_not_positive_and_finite(self, bad):
        # as run and certify do; no round is taken, not even for rounds == 0
        system, agents = make_agents("0 1\n1 0\n", np.ones(2), [1.0, 0.0])
        for rounds in (0, 3):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                run_rounds(agents, bad, rounds)
        assert [a.state for a in agents] == [1.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.5, np.inf])
    def test_a_round_rejects_a_step_size_that_is_not_positive_and_finite(self, bad):
        system, agents = make_agents("0 1\n1 2\n2 0\n", np.ones(3), [9.0, 0.0, 3.0])
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            run_rounds(agents, bad, 1)
        assert [a.state for a in agents] == [9.0, 0.0, 3.0]

    def test_updates_commit_only_after_all_messages_computed(self):
        # 1 listens to 0 and 0 listens to 2; committing agent 0 in place
        # before agent 1 reads would give agent 1 the value 4 instead of 2
        system, agents = make_agents("0 2\n1 0\n", np.ones(3), [0.0, 4.0, 8.0])
        run_rounds(agents, 0.5, 1)
        assert [a.state for a in agents] == [4.0, 2.0, 8.0]

    def test_agent_without_neighbors_sends_nothing_and_keeps_its_state(self):
        system, agents = make_agents("nodes 3\n0 1\n1 0\n", np.ones(3), [1.0, 0.0, 7.5])
        assert agents[2].neighbors == ()
        assert run_rounds(agents, 0.5, 1)[-1].messages_sent == 2
        assert agents[2].state == 7.5
        assert run_rounds([agents[2]], 0.5, 1)[-1].messages_sent == 0
        assert agents[2].state == 7.5

    def test_each_actor_is_sent_the_published_list_and_reads_its_neighbors(self, monkeypatch):
        # agent 0 listens to 1, 2 and 3, agent 1 to 0, agents 2 and 3 to
        # nobody; a hand-built agent 4 names neighbor 1 twice
        system, agents = make_agents(
            "nodes 4\n0 1\n0 2\n0 3\n1 0\n", np.ones(4), [1.0, 2.0, 3.0, 4.0]
        )
        agents.append(Agent(id=4, weight=1.0, state=5.0, neighbors=(1, 1)))
        sent, reads = {}, {}

        class Recording(list):
            # a copy of the round's list that logs each index read and the float returned
            def __getitem__(self, j):
                x = list.__getitem__(self, j)
                self.log.append((j, x))
                return x

        def spy(agent, published):
            sent[agent.id] = published
            recording = Recording(published)
            recording.log = reads[agent.id] = []
            return recording

        tap_inboxes(monkeypatch, spy)
        assert run_rounds(agents, 0.1, 1)[-1].messages_sent == 6
        published = sent[0]
        assert type(published) is list
        assert published == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(sent[a.id] is published for a in agents)
        for a in agents:
            assert [j for j, _ in reads[a.id]] == list(a.neighbors)
            assert all(x is published[j] for j, x in reads[a.id])

    def test_report_rounds_are_sequential(self):
        system, agents = make_agents("0 1\n1 0\n", np.ones(2), [2.0, 0.0])
        reports = run_rounds(agents, 0.25, 5)
        assert [r.round for r in reports] == [0, 1, 2, 3, 4, 5]


class TestLockstepWithMatrixEngine:
    def test_trajectories_bit_identical_across_random_systems(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            system = random_system(rng, n_hi=15)
            eps = default_epsilon(system)
            x0 = rng.uniform(-10.0, 10.0, system.n)
            agents = build_agents(system, x0)
            reports = run_rounds(agents, eps, 60)
            step = matrix_stepper(system, eps)
            x = x0.copy()
            for r, report in enumerate(reports):
                assert np.array(report.states, dtype=np.float64).tobytes() == x.tobytes(), (
                    f"diverged at round {r}"
                )
                x = step(x)

    def test_agent_stepper_matches_run_rounds(self):
        rng = np.random.default_rng(78)
        system = random_system(rng, n_hi=10)
        eps = default_epsilon(system)
        x0 = rng.uniform(-5.0, 5.0, system.n)
        stepper = agent_stepper(system, x0, eps)
        agents = build_agents(system, x0)
        x = np.array(x0)
        for _ in range(20):
            x = stepper(x)
            run_rounds(agents, eps, 1)
            assert x.tobytes() == np.array([a.state for a in agents]).tobytes()

    def test_agent_stepper_rejects_a_state_other_than_its_own(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        x0 = np.array([6.0, 0.0, 0.0])
        stepper = agent_stepper(system, x0, 0.9)
        with pytest.raises(MessageProtocolError, match="node 1"):
            stepper(np.array([6.0, -0.0, 0.0]))
        x1 = stepper(x0)
        with pytest.raises(MessageProtocolError, match="node 0"):
            stepper(np.zeros(3))
        fed = x1.copy()
        fed[2] = np.nextafter(fed[2], np.inf)
        with pytest.raises(MessageProtocolError, match="node 2"):
            stepper(fed)
        np.testing.assert_array_equal(stepper(x1), matrix_stepper(system, 0.9)(x1))

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.5, np.inf])
    def test_agent_stepper_rejects_a_step_size_that_is_not_positive_and_finite(self, bad):
        system = build_system(THREE_CYCLE, np.ones(3))
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            agent_stepper(system, [6.0, 0.0, 0.0], bad)

    def test_a_network_primes_its_actors_once(self, monkeypatch):
        # agent 0 listens to 1, 2 and 3, agent 1 to 0, agent 2 to 0 and 3,
        # agents 3 and 4 to nobody: 50 steps prime one actor per agent, not
        # one per round
        primed = []
        real = consensim.agents._actor

        def counted(agent, epsilon):
            primed.append(agent.id)
            yield from real(agent, epsilon)

        monkeypatch.setattr(consensim.agents, "_actor", counted)
        system = build_system(
            parse_edge_list("nodes 5\n0 1\n0 2\n0 3\n1 0\n2 0\n2 3\n"), np.ones(5)
        )
        x0 = np.array([4.0, -1.0, 2.5, 0.0, 7.0])
        stepper = agent_stepper(system, x0, 0.2)
        step = matrix_stepper(system, 0.2)
        x = y = x0
        for _ in range(50):
            x = stepper(x)
            y = step(y)
        assert x.tobytes() == y.tobytes()
        assert primed == [0, 1, 2, 3, 4]

    def test_heavy_weight_ratio_still_bit_identical(self):
        g = parse_edge_list("0 1\n1 2\n2 0\n0 2\n")
        system = build_system(g, [0.1, 10.0, 5.0])
        eps = default_epsilon(system)
        x0 = np.array([3.7, -2.2, 9.9])
        agents = build_agents(system, x0)
        step = matrix_stepper(system, eps)
        x = x0.copy()
        for _ in range(100):
            run_rounds(agents, eps, 1)
            x = step(x)
            assert np.array([a.state for a in agents]).tobytes() == x.tobytes()


class TestBuildAgents:
    def test_neighbors_ascending(self):
        g = parse_edge_list("0 2\n0 1\n1 0\n2 0\n")
        system = build_system(g, random_weights(np.random.default_rng(3), 3))
        agents = build_agents(system, [1.0, 2.0, 3.0])
        assert agents[0].neighbors == (1, 2)
        assert agents[1].neighbors == (0,)
        assert all(type(j) is int for a in agents for j in a.neighbors)

    def test_node_without_out_edges_has_no_neighbors(self):
        g = parse_edge_list("nodes 4\n0 3\n2 0\n0 1\n")
        system = build_system(g, np.ones(4))
        agents = build_agents(system, np.zeros(4))
        assert [a.neighbors for a in agents] == [(1, 3), (), (0,), ()]

    def test_states_and_weights_copied_per_agent(self):
        system = build_system(THREE_CYCLE, [1.0, 2.0, 3.0])
        agents = build_agents(system, [5.0, 6.0, 7.0])
        assert [a.state for a in agents] == [5.0, 6.0, 7.0]
        assert [a.weight for a in agents] == [1.0, 2.0, 3.0]
