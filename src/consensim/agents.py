"""Synchronous message-passing simulation of the per-node consensus update.

Each agent owns its scalar state and updates it from received messages only;
no agent reads another agent's fields.  A round publishes, then delivers:
every committed state goes into one list, and each agent's inbox receives
one message from that list per neighbor.  Every agent then computes its
update from its inbox alone, and all updates are committed together, so all
updates within a round read the same committed snapshot.  An agent's
neighbors are its run of the system's edges in (listener, source) order, so
per-agent sums run in ascending id order exactly as the matrix engine's do;
the two paths therefore produce bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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


def step_round(agents: list[Agent], epsilon: float) -> int:
    """One synchronous round over all agents; returns the number of messages sent.

    Phase one publishes every agent's committed state and delivers one
    message per entry of each agent's neighbors tuple into its inbox; phase
    two computes every update from the inboxes alone and only then commits
    all of them.
    """
    published = [a.state for a in agents]
    sent = 0
    for a in agents:
        a.inbox = {j: published[j] for j in a.neighbors}
        sent += len(a.neighbors)
        if len(a.inbox) != len(a.neighbors):
            raise MessageProtocolError(
                f"agent {a.id} received {len(a.inbox)} messages, expected {len(a.neighbors)}"
            )
    staged = [local_update(a, epsilon) for a in agents]
    for a, value in zip(agents, staged):
        a.state = value
        a.inbox = {}
    return sent


def run_rounds(agents: list[Agent], epsilon: float, rounds: int) -> list[RoundReport]:
    """Drive the network for a number of rounds, reporting after each.

    The report list starts with round 0 (the initial states, no messages);
    rounds == 0 therefore yields exactly that single report.
    """
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    reports = [RoundReport(round=0, states=tuple(a.state for a in agents), messages_sent=0)]
    for r in range(1, rounds + 1):
        sent = step_round(agents, epsilon)
        reports.append(
            RoundReport(round=r, states=tuple(a.state for a in agents), messages_sent=sent)
        )
    return reports


def agent_stepper(
    system: WeightedSystem, x0, epsilon: float
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
        step_round(agents, epsilon)
        snapshot = np.array([a.state for a in agents], dtype=np.float64)
        committed = snapshot.tobytes()
        return snapshot

    return step
