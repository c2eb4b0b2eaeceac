"""Synchronous message-passing simulation of the per-node consensus update.

Each agent is an actor: a coroutine that owns its scalar state and answers
each round's broadcast with its next state; no agent reads another agent's
fields.  A round publishes every committed state in one list and sends that
list itself to every actor, which reads its messages from it, message k at
``neighbors[k]``.  An actor of degree 1-4 adds its terms x_j - x_i in one
written-out expression, in neighbor order from 0.0: the same additions as
the loop that every other degree runs.  The new list is complete before it
replaces the old one, so all agents read the same snapshot.  An agent's
neighbors are its run of the system's edges in (listener, source) order, so
per-agent sums run in ascending id order as the matrix engine's do: the
trajectories are bit-identical.  run_rounds drives the records and
agent_stepper drives engine.run; the CLI's compare and run --mode agents
check each matrix step against one round of a network of their own.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from .engine import WeightedSystem, _step_size
from .linalg import as_vector


class MessageProtocolError(RuntimeError):
    """The agents were fed a state other than the one they committed."""


@dataclass
class Agent:
    """One node: id, weight, state, and the distinct ids it reads, message k from neighbors[k]."""

    id: int
    weight: float
    state: float
    neighbors: tuple[int, ...]


def _actor(agent: Agent, epsilon: float) -> Generator[float, Sequence[float], None]:
    # primed by next(); each broadcast x sent in yields the next state, kept as its own.
    # Degrees 1-4 add their terms written out, in neighbor order from 0.0; others loop.
    state, neighbors, rate = agent.state, agent.neighbors, epsilon / agent.weight
    x = yield
    if len(neighbors) == 1:
        (a,) = neighbors
        while True:
            state = state + rate * (0.0 + (x[a] - state))
            x = yield state
    if len(neighbors) == 2:
        a, b = neighbors
        while True:
            state = state + rate * (0.0 + (x[a] - state) + (x[b] - state))
            x = yield state
    if len(neighbors) == 3:
        a, b, c = neighbors
        while True:
            state = state + rate * (0.0 + (x[a] - state) + (x[b] - state) + (x[c] - state))
            x = yield state
    if len(neighbors) == 4:
        a, b, c, d = neighbors
        while True:
            total = 0.0 + (x[a] - state) + (x[b] - state) + (x[c] - state) + (x[d] - state)
            state = state + rate * total
            x = yield state
    while True:
        total = 0.0
        for j in neighbors:
            total += x[j] - state
        state = state + rate * total
        x = yield state


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


def _network(agents: list[Agent], epsilon: float) -> Callable[[list[float]], list[float]]:
    # one primed actor per agent; round_ sends each the snapshot and answers with the next one
    sends = []
    for a in agents:
        actor = _actor(a, epsilon)
        next(actor)
        sends.append(actor.send)

    def round_(published: list[float]) -> list[float]:
        return [send(published) for send in sends]

    return round_


def run_rounds(agents: list[Agent], epsilon: float, rounds: int) -> list[RoundReport]:
    """Drive the network for a number of rounds, reporting after each.

    The report list starts with round 0 (the initial states, no messages);
    rounds == 0 therefore yields exactly that single report.  Each round's
    updates are committed into the records once all agents have answered;
    the network is built once for the whole call.  Raises ValueError when
    epsilon is not positive and finite.
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
            a.state = value
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
    the network it builds once, each round's list of published states sent
    to every agent's coroutine as in run_rounds, and returns the committed
    snapshot.  Its argument must be bitwise equal to the agents' committed
    states (the initial states before the first round), which is what the
    run loop feeds back; any other state raises MessageProtocolError naming
    the first differing node instead of silently desynchronizing the two
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
