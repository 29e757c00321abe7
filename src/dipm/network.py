"""Synchronous, lossless round-based message passing between agents.

The scheduler moves messages in lockstep rounds: everything sent during a
round is delivered at the next round boundary, and only pairs of agents
that share at least one variable may exchange messages. Message counts are
exact and kept per agent and per message kind, so tests can assert the
communication pattern of an algorithm rather than trust it.

A round is one flat, edge-indexed payload laid out by the scheduler's
``RoundPlan``, built once from the coupling graph: one message per directed
edge, edges listed receiver-major with senders ascending. A consensus round
carries one scalar per edge; a shared-component round carries, edge by
edge, the sender's values of the variables both parties own. A message to
a non-neighbour therefore cannot be expressed, and every round credits
each agent with exactly its degree.

Consensus primitives (boolean AND, minimum) are realized by flooding,
which is exact after diameter-many rounds on a connected graph. On a
disconnected graph with more than one agent they raise, since values
cannot propagate between components, so a solver meets a disconnected
problem at its first consensus. Fully decoupled single-agent problems are
trivially connected. Rounds are counted by the scheduler alone.

Within a round, each agent's update is a pure function of its own state
and the segments addressed to it; the round boundary is the only
synchronization point. Received values are reduced in ascending sender
order, so reductions are reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedNetworkError, StructureError

KIND_SHARED = "shared-components"
KIND_FLAG = "convergence-flag"
KIND_MIN = "step-candidate"


def _diameter(neighbors):
    """Exact graph diameter by BFS from every node; None if disconnected."""
    n = len(neighbors)
    best = 0
    for root in range(n):
        dist = [-1] * n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in neighbors[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        if min(dist) < 0:
            return None
        best = max(best, max(dist))
    return best


@dataclass(frozen=True, eq=False)
class RoundPlan:
    """Index arrays wiring every round over one coupling graph.

    Edge e runs from ``edge_src[e]`` to ``edge_dst[e]``, sorted by receiver
    then sender; ``recv_start[i]`` is agent i's first incoming edge (the
    ``reduceat`` offsets). In a shared-component payload edge e owns entries
    ``seg_start[e]:seg_start[e + 1]``; entry k is global variable
    ``seg_global[k]``, read at ``send_pos[k]`` of the concatenated local
    vectors, of which agent i owns ``agent_start[i]:agent_start[i + 1]``.
    Averaging sums own and received entries, permuted by ``acc_order`` into
    ascending sender order, into slots ``acc_slot`` of that concatenation.
    """

    edge_src: np.ndarray
    edge_dst: np.ndarray
    recv_start: np.ndarray
    out_degree: np.ndarray
    seg_start: np.ndarray
    seg_global: np.ndarray
    send_pos: np.ndarray
    agent_start: np.ndarray
    acc_order: np.ndarray
    acc_slot: np.ndarray
    local_degrees: np.ndarray

    @property
    def n_edges(self):
        return len(self.edge_src)

    def payload_length(self, kind):
        return len(self.seg_global) if kind == KIND_SHARED else self.n_edges


def _build_round_plan(coupling):
    """Lay out the directed edges and the shared-component segments once."""
    neighbors = coupling.neighbors
    g2l = coupling.global_to_local
    index_lists = [idx.tolist() for idx in coupling.index_arrays]
    agent_start = [0]
    for idx in index_lists:
        agent_start.append(agent_start[-1] + len(idx))
    edge = {}
    src, dst, recv_start, seg_start = [], [], [], [0]
    seg_global, send_pos, recv_slot = [], [], []
    for d, senders in enumerate(neighbors):
        recv_start.append(len(src))
        for s in senders:
            shared = [g for g in index_lists[s] if g in g2l[d]]
            edge[s, d] = len(src)
            src.append(s)
            dst.append(d)
            seg_start.append(seg_start[-1] + len(shared))
            seg_global += shared
            send_pos += [agent_start[s] + g2l[s][g] for g in shared]
            recv_slot += [agent_start[d] + g2l[d][g] for g in shared]
    # the terms of every average in ascending sender order, as gather_average
    # adds them: each sender's own values (the head of the summed array), then
    # the segments it sent (the payload, after them)
    acc_order, acc_slot = [], []
    for s, receivers in enumerate(neighbors):
        own = range(agent_start[s], agent_start[s + 1])
        acc_order += own
        acc_slot += own
        for d in receivers:
            a, b = seg_start[edge[s, d]], seg_start[edge[s, d] + 1]
            acc_order += range(agent_start[-1] + a, agent_start[-1] + b)
            acc_slot += recv_slot[a:b]
    arrays = (src, dst, recv_start, [len(ne) for ne in neighbors], seg_start, seg_global,
              send_pos, agent_start, acc_order, acc_slot)
    return RoundPlan(*(np.array(a, dtype=np.intp) for a in arrays),
                     local_degrees=coupling.degrees[np.concatenate(coupling.index_arrays)])


class RoundScheduler:
    """Round-based transport over the coupling graph.

    The transport itself accepts any topology; connectivity only matters to
    the consensus operations, which check it explicitly.
    """

    def __init__(self, coupling):
        self.coupling = coupling
        self.n_agents = coupling.n_agents
        self.neighbors = coupling.neighbors
        self.round_index = 0
        self.sent = np.zeros(self.n_agents, dtype=np.int64)
        self.sent_by_kind = {}
        self.total_sent = 0
        self.total_delivered = 0
        self.diameter = _diameter(self.neighbors)
        self.is_connected = self.diameter is not None
        self.plan = _build_round_plan(coupling)

    def deliver_round(self, payload, kind):
        """Deliver one synchronous round of ``kind`` laid out by ``self.plan``.

        Every directed edge carries one message. Returns the delivered
        payload; raises if its length does not match the plan.
        """
        plan = self.plan
        if len(payload) != plan.payload_length(kind):
            raise StructureError(f"{kind} payload has {len(payload)} entries; "
                                 f"the round plan lays out {plan.payload_length(kind)}")
        count = self.sent_by_kind.get(kind)
        if count is None:
            count = self.sent_by_kind[kind] = np.zeros(self.n_agents, dtype=np.int64)
        self.sent += plan.out_degree
        count += plan.out_degree
        self.total_sent += plan.n_edges
        self.total_delivered += plan.n_edges
        self.round_index += 1
        return payload

    def messages_of_kind(self, kind):
        arr = self.sent_by_kind.get(kind)
        return 0 if arr is None else int(arr.sum())


def exchange_shared_components(scheduler, contributions):
    """One data round: average each shared variable over its owners.

    Every agent sends one message per neighbor, carrying exactly the
    components both parties own. Each agent then averages, per variable,
    its own contribution with the received ones in ascending agent order,
    which reproduces the dense consensus projection bit for bit. Returns
    per-agent views into one averaged vector.
    """
    plan = scheduler.plan
    flat = np.concatenate(contributions)
    if flat.shape != (plan.agent_start[-1],):
        raise StructureError("contributions do not match the agents' index sets")
    received = scheduler.deliver_round(flat[plan.send_pos], KIND_SHARED)
    terms = np.concatenate((flat, received))[plan.acc_order]
    averaged = np.bincount(plan.acc_slot, weights=terms, minlength=flat.size)
    averaged /= plan.local_degrees
    bounds = plan.agent_start.tolist()
    return [averaged[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _flood(scheduler, state, combine, kind):
    if not scheduler.is_connected:
        raise DisconnectedNetworkError("coupling graph is disconnected; split the problem "
                                       "and solve the pieces")
    plan = scheduler.plan
    for _ in range(scheduler.diameter):
        received = scheduler.deliver_round(state[plan.edge_src], kind)
        state = combine(state, combine.reduceat(received, plan.recv_start))
    return state[0]


def all_agree(scheduler, flags):
    """Logical AND of per-agent flags, flooded over the coupling graph.

    Every agent holds the returned decision after diameter-many rounds.
    """
    return bool(_flood(scheduler, np.array(flags, dtype=bool), np.logical_and, KIND_FLAG))


def min_consensus(scheduler, values):
    """Minimum of per-agent scalars, flooded over the coupling graph."""
    values = np.array(values, dtype=float)
    if not np.isfinite(values).all():
        raise StructureError("consensus values must be finite")
    return float(_flood(scheduler, values, np.minimum, KIND_MIN))
