"""Synchronous message-passing simulation of the per-node consensus update.

Each agent is an actor: a coroutine that owns its scalar state and answers
each inbox it is sent, message k from ``neighbors[k]``, with its next state;
no agent reads another agent's fields.  A round publishes every committed
state in one list, gathers each inbox from it in C, by a gather built once
per network, and hands it straight to the agent's coroutine.  The new list
is complete before it replaces the old one, so all agents read the same
snapshot.  ``Agent.inbox`` feeds only local_update, a one-shot actor, and
stays () after a round.  An agent's neighbors are its run of the system's
edges in (listener, source) order, so per-agent sums run in ascending id
order as the matrix engine's do: the trajectories are bit-identical.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Generator

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


def _actor(agent: Agent, epsilon: float) -> Generator[float, tuple[float, ...], None]:
    # primed by next(); each inbox sent in yields the next state, kept as its own
    state, neighbors, rate = agent.state, agent.neighbors, epsilon / agent.weight
    expected = len(neighbors)
    inbox = yield
    while True:
        if len(inbox) != expected:
            got = len(inbox)
            raise MessageProtocolError(
                f"agent {agent.id} has no message from neighbor {neighbors[got]} this round"
                if got < expected
                else f"agent {agent.id} received {got} messages, expected {expected}"
            )
        total = 0.0
        for xj in inbox:
            total += xj - state
        state = state + rate * total
        inbox = yield state


def local_update(agent: Agent, epsilon: float) -> float:
    """Next state for one agent from its own fields and inbox alone.

    Returns x_i + (eps / w_i) * sum_j (x_j - x_i), summing the inbox left to
    right, i.e. over neighbors in ascending id order.  The caller commits the
    value; the agent's state is not modified here.  A missing or surplus
    message is a protocol violation, never treated as a zero.
    """
    actor = _actor(agent, epsilon)
    next(actor)
    return actor.send(agent.inbox)


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


def _network(agents: list[Agent], epsilon: float) -> Callable[[list[float]], list[float]]:
    # one primed actor and one gather per agent; round_ answers a snapshot with the next one
    pairs = []
    for a in agents:
        actor = _actor(a, epsilon)
        next(actor)
        pairs.append((actor.send, _gatherer(a.neighbors)))

    def round_(published: list[float]) -> list[float]:
        return [send(gather(published)) for send, gather in pairs]

    return round_


def step_round(agents: list[Agent], epsilon: float) -> int:
    """One synchronous round over all agents; returns the number of messages sent.

    Phase one publishes every committed state and gathers each agent one
    message per neighbor, in neighbor order: its inbox is the tuple of the
    published floats, gathered by one itemgetter call when it has two or
    more neighbors.  Phase two hands each inbox straight to the agent's
    coroutine, which answers with its update; once all have answered, the
    updates are committed into the records, whose inboxes stay ().  It is
    one round of run_rounds, so each call builds its own network and raises
    ValueError when epsilon is not positive and finite.
    """
    return run_rounds(agents, epsilon, 1)[-1].messages_sent


def run_rounds(agents: list[Agent], epsilon: float, rounds: int) -> list[RoundReport]:
    """Drive the network for a number of rounds, reporting after each.

    The report list starts with round 0 (the initial states, no messages);
    rounds == 0 therefore yields exactly that single report.  The rounds are
    step_round's, with the network built once for the whole call.  Raises
    ValueError when epsilon is not positive and finite.
    """
    epsilon = _step_size(epsilon)
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    published = [a.state for a in agents]
    reports = [RoundReport(round=0, states=tuple(published), messages_sent=0)]
    round_ = _network(agents, epsilon)
    sent = sum(len(a.neighbors) for a in agents)
    for r in range(1, rounds + 1):
        published = round_(published)
        for a, value in zip(agents, published):
            a.state, a.inbox = value, ()
        reports.append(RoundReport(round=r, states=tuple(published), messages_sent=sent))
    return reports


def _first_difference(packed: bytes, x: np.ndarray) -> int:
    # first node where float64 array x differs bitwise from the packed floats, or the shorter size
    ours = np.frombuffer(packed, dtype=np.uint64)
    theirs = x.reshape(-1).view(np.uint64)
    k = min(ours.size, theirs.size)
    diff = np.flatnonzero(ours[:k] != theirs[:k])
    return int(diff[0]) if diff.size else k


def agent_stepper(
    system: WeightedSystem, x0, epsilon: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Stepper backed by the agent network, for engine.run(..., stepper=...).

    The agents own the state: the returned callable runs one more round of
    the network it builds once, each inbox handed straight to its agent's
    coroutine as in step_round, and returns the committed snapshot.  Its
    argument must be bitwise equal to the agents' committed states (the
    initial states before the first round), which is what the run loop
    feeds back; any other state raises MessageProtocolError naming the
    first differing node instead of silently desynchronizing the two
    views.  Raises ValueError when epsilon is not positive and finite.
    """
    epsilon = _step_size(epsilon)
    agents = build_agents(system, x0)
    round_ = _network(agents, epsilon)
    published = [a.state for a in agents]
    pack = struct.Struct(f"{len(agents)}d").pack
    # kept as bytes so a caller mutating a returned array cannot alter it
    committed = pack(*published)

    def step(x: np.ndarray) -> np.ndarray:
        nonlocal committed, published
        fed = np.asarray(x, dtype=np.float64)
        if fed.tobytes() != committed:
            raise MessageProtocolError(
                f"stepper fed a state that differs from the agents' committed states "
                f"at node {_first_difference(committed, fed)}"
            )
        published = round_(published)
        committed = pack(*published)
        return np.frombuffer(committed, dtype=np.float64).copy()

    return step
