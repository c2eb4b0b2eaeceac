"""Synchronous message-passing simulation of the per-node consensus update.

Each agent owns its scalar state and updates it from received messages only;
no agent reads another agent's fields.  A round is two-phase: every state is
published first, then every agent computes and commits its update, so all
updates within a round read the same committed snapshot.  Per-agent sums run
over neighbors in ascending id order, matching the matrix engine's canonical
edge order; the two paths therefore produce bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .engine import WeightedSystem
from .linalg import as_vector


class MessageProtocolError(RuntimeError):
    """An agent's inbox did not hold exactly one message per neighbor."""


@dataclass
class Agent:
    """One node: identity, weight, scalar state, listened-to neighbors, inbox."""

    id: int
    weight: float
    state: float
    neighbors: tuple[int, ...]
    inbox: dict[int, float] = field(default_factory=dict)


def local_update(agent: Agent, epsilon: float) -> float:
    """Next state for one agent from its own fields and inbox alone.

    Returns x_i + (eps / w_i) * sum_j (x_j - x_i), accumulating over
    neighbors in ascending id order.  The caller commits the value; the
    agent's state is not modified here.  A neighbor without a message in the
    inbox is a protocol violation, never treated as a zero.
    """
    total = 0.0
    for j in agent.neighbors:
        try:
            xj = agent.inbox[j]
        except KeyError:
            raise MessageProtocolError(
                f"agent {agent.id} has no message from neighbor {j} this round"
            ) from None
        total += xj - agent.state
    return agent.state + (epsilon / agent.weight) * total


class Transport(Protocol):
    """Message delivery seam; in-process delivery is the only shipped backend."""

    def send(self, sender: int, receiver: int, value: float) -> None: ...

    def collect(self, receiver: int) -> dict[int, float]: ...


class InProcessTransport:
    """Dict-backed mailbox delivery within one process."""

    def __init__(self) -> None:
        self._mail: dict[int, dict[int, float]] = {}

    def send(self, sender: int, receiver: int, value: float) -> None:
        self._mail.setdefault(receiver, {})[sender] = value

    def collect(self, receiver: int) -> dict[int, float]:
        return self._mail.pop(receiver, {})


@dataclass(frozen=True)
class RoundReport:
    """Snapshot after a round: index, committed states, messages sent."""

    round: int
    states: tuple[float, ...]
    messages_sent: int


def build_agents(system: WeightedSystem, x0) -> list[Agent]:
    """Instantiate one agent per node with its weight, initial state, and neighbor list."""
    x = as_vector(x0, system.n)
    nbrs = system.graph.out_neighbors()
    return [
        Agent(id=i, weight=float(system.w[i]), state=float(x[i]), neighbors=tuple(nbrs[i]))
        for i in range(system.n)
    ]


def _listener_map(agents: list[Agent]) -> list[list[int]]:
    # listeners[j] = agents that want j's state each round
    listeners: list[list[int]] = [[] for _ in agents]
    for a in agents:
        for j in a.neighbors:
            listeners[j].append(a.id)
    return listeners


def step_round(
    agents: list[Agent],
    epsilon: float,
    transport: Transport | None = None,
    listeners: list[list[int]] | None = None,
) -> int:
    """One synchronous round over all agents; returns the number of messages sent.

    Phase one publishes every agent's committed state to the agents listening
    to it; phase two computes every update from the delivered inboxes and only
    then commits all of them.
    """
    if transport is None:
        transport = InProcessTransport()
    if listeners is None:
        listeners = _listener_map(agents)

    sent = 0
    for a in agents:
        for receiver in listeners[a.id]:
            transport.send(a.id, receiver, a.state)
            sent += 1

    for a in agents:
        a.inbox = transport.collect(a.id)
        if len(a.inbox) != len(a.neighbors):
            raise MessageProtocolError(
                f"agent {a.id} received {len(a.inbox)} messages, expected {len(a.neighbors)}"
            )
    staged = [local_update(a, epsilon) for a in agents]
    for a, value in zip(agents, staged):
        a.state = value
        a.inbox = {}
    return sent


def run_rounds(
    agents: list[Agent],
    epsilon: float,
    rounds: int,
    transport: Transport | None = None,
) -> list[RoundReport]:
    """Drive the network for a number of rounds, reporting after each.

    The report list starts with round 0 (the initial states, no messages);
    rounds == 0 therefore yields exactly that single report.
    """
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    if transport is None:
        transport = InProcessTransport()
    listeners = _listener_map(agents)
    reports = [RoundReport(round=0, states=tuple(a.state for a in agents), messages_sent=0)]
    for r in range(1, rounds + 1):
        sent = step_round(agents, epsilon, transport, listeners)
        reports.append(
            RoundReport(round=r, states=tuple(a.state for a in agents), messages_sent=sent)
        )
    return reports


def agent_stepper(
    system: WeightedSystem,
    x0,
    epsilon: float,
    transport: Transport | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Stepper backed by the agent network, for engine.run(..., stepper=...).

    The agents own the state: the returned callable runs one more round and
    returns the committed snapshot.  Its argument must be bitwise equal to
    the agents' committed states (the initial states before the first
    round), which is what the run loop feeds back; any other state raises
    MessageProtocolError naming the first differing node instead of
    silently desynchronizing the two views.
    """
    agents = build_agents(system, x0)
    if transport is None:
        transport = InProcessTransport()
    listeners = _listener_map(agents)
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
        step_round(agents, epsilon, transport, listeners)
        snapshot = np.array([a.state for a in agents], dtype=np.float64)
        committed = snapshot.tobytes()
        return snapshot

    return step
