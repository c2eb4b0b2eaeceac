"""Synchronous message-passing simulation of the per-node consensus update.

Each agent owns its scalar state and updates it from received messages only;
no agent reads another agent's fields.  A round publishes, then delivers:
every committed state goes into one list, and each agent's inbox receives
one message from that list per neighbor, message k from ``neighbors[k]``:
a tuple of the published floats, filled in C, not by a Python loop, by a
gather built once per network (a lone step_round call builds its own).
Every agent then computes its update from its inbox alone, and all updates
are committed together, so all read the same committed snapshot.  An
agent's neighbors are its run of the system's edges in (listener, source)
order, so per-agent sums run in ascending id order exactly as the matrix
engine's do; the two paths produce bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

import numpy as np

from .engine import WeightedSystem, _step_size
from .linalg import as_vector


class MessageProtocolError(RuntimeError):
    """An agent's inbox did not hold exactly one message per neighbor."""


@dataclass
class Agent:
    """One node: id, weight, state, distinct neighbor ids, inbox (message k from neighbors[k])."""

    id: int
    weight: float
    state: float
    neighbors: tuple[int, ...]
    inbox: tuple[float, ...] = ()


def local_update(agent: Agent, epsilon: float) -> float:
    """Next state for one agent from its own fields and inbox alone.

    Returns x_i + (eps / w_i) * sum_j (x_j - x_i), summing the inbox left to
    right, i.e. over neighbors in ascending id order.  The caller commits the
    value; the agent's state is not modified here.  A missing or surplus
    message is a protocol violation, never treated as a zero.
    """
    state, inbox = agent.state, agent.inbox
    if len(inbox) != len(agent.neighbors):
        got, expected = len(inbox), len(agent.neighbors)
        if got < expected:
            raise MessageProtocolError(
                f"agent {agent.id} has no message from neighbor {agent.neighbors[got]} this round"
            )
        raise MessageProtocolError(f"agent {agent.id} received {got} messages, expected {expected}")
    total = 0.0
    for xj in inbox:
        total += xj - state
    return state + (epsilon / agent.weight) * total


@dataclass(frozen=True)
class RoundReport:
    """Snapshot after a round: index, committed states, messages sent."""

    round: int
    states: tuple[float, ...]
    messages_sent: int


def build_agents(system: WeightedSystem, x0) -> list[Agent]:
    """Instantiate one agent per node with its weight, initial state, and neighbor list.

    Node i's neighbors are its run of system.sources, which build_system
    sorts by (listener, source): the canonical ascending order is decided
    there alone.
    """
    x = as_vector(x0, system.n)
    sources = system.sources.tolist()
    ends = np.cumsum(system.d).tolist()
    return [
        Agent(id=i, weight=float(system.w[i]), state=float(x[i]), neighbors=tuple(sources[a:b]))
        for i, (a, b) in enumerate(zip([0, *ends], ends))
    ]


def _gatherer(neighbors: tuple[int, ...]) -> Callable[[list[float]], tuple[float, ...]]:
    # itemgetter returns a bare value, not a tuple, for a single index
    if len(neighbors) > 1:
        return itemgetter(*neighbors)
    if neighbors:
        j = neighbors[0]
        return lambda published: (published[j],)
    return lambda published: ()


def _round(agents: list[Agent], gathers: list, epsilon: float) -> list[float]:
    # publish, deliver by each agent's gather, compute, commit; returns the commits
    published = [a.state for a in agents]
    for a, gather in zip(agents, gathers):
        a.inbox = gather(published)
    staged = [local_update(a, epsilon) for a in agents]
    for a, value in zip(agents, staged):
        a.state = value
        a.inbox = ()
    return staged


def step_round(agents: list[Agent], epsilon: float) -> int:
    """One synchronous round over all agents; returns the number of messages sent.

    Phase one publishes every committed state and delivers each agent one
    message per neighbor, in neighbor order: its inbox is the tuple of the
    published floats, gathered by one itemgetter call when it has two or
    more neighbors.  Phase two computes every update from the inboxes
    alone, then commits them all and empties the inboxes.  It is one round
    of run_rounds, so each call builds its own gathers and raises ValueError
    when epsilon is not positive and finite.
    """
    return run_rounds(agents, epsilon, 1)[-1].messages_sent


def run_rounds(agents: list[Agent], epsilon: float, rounds: int) -> list[RoundReport]:
    """Drive the network for a number of rounds, reporting after each.

    The report list starts with round 0 (the initial states, no messages);
    rounds == 0 therefore yields exactly that single report.  The rounds are
    step_round's, with the gathers built once for the whole call.  Raises
    ValueError when epsilon is not positive and finite.
    """
    epsilon = _step_size(epsilon)
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    reports = [RoundReport(round=0, states=tuple(a.state for a in agents), messages_sent=0)]
    gathers = [_gatherer(a.neighbors) for a in agents]
    sent = sum(len(a.neighbors) for a in agents)
    for r in range(1, rounds + 1):
        states = tuple(_round(agents, gathers, epsilon))
        reports.append(RoundReport(round=r, states=states, messages_sent=sent))
    return reports


def agent_stepper(
    system: WeightedSystem, x0, epsilon: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Stepper backed by the agent network, for engine.run(..., stepper=...).

    The agents own the state: the returned callable runs one more round, as
    step_round does but with gathers built once for the network, and returns
    the committed snapshot.  Its argument must be bitwise equal to the
    agents' committed states (the initial states before the first round),
    which is what the run loop feeds back; any other state raises
    MessageProtocolError naming the first differing node instead of
    silently desynchronizing the two views.  Raises ValueError when epsilon
    is not positive and finite.
    """
    epsilon = _step_size(epsilon)
    agents = build_agents(system, x0)
    gathers = [_gatherer(a.neighbors) for a in agents]
    # kept as bytes so a caller mutating a returned array cannot alter it
    committed = np.array([a.state for a in agents], dtype=np.float64).tobytes()

    def step(x: np.ndarray) -> np.ndarray:
        nonlocal committed
        fed = np.asarray(x, dtype=np.float64)
        if fed.tobytes() != committed:
            ours = np.frombuffer(committed, dtype=np.uint64)
            theirs = fed.reshape(-1).view(np.uint64)
            k = min(ours.size, theirs.size)
            diff = np.flatnonzero(ours[:k] != theirs[:k])
            node = int(diff[0]) if diff.size else k
            raise MessageProtocolError(
                f"stepper fed a state that differs from the agents' committed states "
                f"at node {node}"
            )
        snapshot = np.array(_round(agents, gathers, epsilon), dtype=np.float64)
        committed = snapshot.tobytes()
        return snapshot

    return step
