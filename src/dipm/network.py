"""Synchronous, lossless round-based message passing between agents.

The scheduler moves messages in lockstep rounds: everything sent during a
round is delivered at the next round boundary, and only pairs of agents
that share at least one variable may exchange messages. Message counts are
exact, per agent and per message kind, so tests can assert the
communication pattern of an algorithm rather than trust it.

A round is one flat, edge-indexed payload laid out by the scheduler's
``RoundPlan``, built once from the coupling graph: one entry per directed
edge, edges listed receiver-major with senders ascending. A consensus round
carries one scalar per edge; a shared-component round carries, edge by
edge, the sender's values of the variables both parties own, read from
the coupling's flat vector of local entries. A message to a non-neighbour
therefore cannot be expressed. Messages are credited to the directed edges
that carry them; in a shared-component exchange every edge carries one,
and a coupling without edges has nothing to exchange, so it takes no round.

Consensus primitives (boolean AND, minimum) are realized by flooding over a
connected graph, and an agent sends its value on an edge only when it is
news there: below everything that edge has carried in either direction,
which is when it is below the values both ends held a round before (before
round 1, the identity: +inf, True). A uniform start thus costs one message
per directed edge, and no value goes back over the edge it came by. Values
are compared as numbers: ``np.minimum`` returns its second argument on a
tie, so a zero may change sign without news.

A MIN flood takes diameter rounds, after which it is exact. The minimum is
idempotent and a withheld value is never below its receiver's, so it cannot
change the receiver's value; the transport delivers every value anyway, so
results are bit for bit those of a flood recombining every value each round
(a transport that drops withheld values could change only a zero's sign).
Once every agent holds the same bits, the remaining rounds are delivered,
one ``deliver_round`` each, but nothing is recombined.

An AND flood decides early (Dolev, Reischuk & Strong, J. ACM 1990): False
absorbs, so an agent that holds False knows the outcome. Let d_i be agent
i's hop distance from the nearest agent that holds False: agent i holds
False from the start of round d_i + 1, and by the rule above sends it
once, in that round, on the edge to each neighbour j with d_j >= d_i (one
that has not already sent it False), unless d_i is the diameter, by which
every agent holds the outcome. The flood ends after the last round in which
an agent sends, round 1 + the largest d_i of a sender, so it takes at most
diameter rounds, and exactly diameter silent ones when every agent starts
True. Its result is the AND of the start flags, that of a flood run for
diameter rounds.

A failed convergence AND of the splitting iteration is relayed by the data
of the next exchange (``all_agree`` with ``carry``, then
``exchange_shared_components`` with the flags as ``vote``) and sends no
flag of its own: agent i sends its next data in round d_i + 1, once the
first data have reached it (round 1 if it holds False). The exchange takes
1 + max d_i rounds, no more than an AND flood and a data round after it,
and each agent still sends each neighbour one data message, its data
unchanged. An all-True vote sends no data and takes its diameter silent
flag rounds.

Both are read from the scheduler's all-pairs hop distances, and their
rounds are still delivered one ``deliver_round`` each: an AND round carries
the flags the agents hold at its start, a relay round the data.

On a disconnected graph with more than one agent the floods raise, since
values cannot propagate between components, so a solver meets a
disconnected problem at its first consensus. Fully decoupled single-agent
problems are trivially connected. Rounds are counted by the scheduler alone.

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


def _hop_distances(neighbors):
    """All-pairs hop distances by BFS from every node; -1 where no path runs."""
    n = len(neighbors)
    distance = np.full((n, n), -1, dtype=np.intp)
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
        distance[root] = dist
    return distance


@dataclass(frozen=True, eq=False)
class RoundPlan:
    """Index arrays wiring every round over one coupling graph.

    Edge e runs from ``edge_src[e]`` to ``edge_dst[e]``, sorted by receiver
    then sender; ``recv_start[i]`` is agent i's first incoming edge (the
    ``reduceat`` offsets). In a shared-component payload edge e owns entries
    ``seg_start[e]:seg_start[e + 1]``, never none; entry k is sent by agent
    ``seg_src[k]``, is global variable ``seg_global[k]`` and is read at
    ``send_pos[k]`` of the coupling's flat vector
    of local entries. Averaging sums own and received entries, permuted by
    ``acc_order`` into ascending sender order, into slots ``acc_slot`` of
    that vector, and divides entry k by ``local_degrees[k]``.
    """

    edge_src: np.ndarray
    edge_dst: np.ndarray
    recv_start: np.ndarray
    out_degree: np.ndarray
    seg_start: np.ndarray
    seg_src: np.ndarray
    seg_global: np.ndarray
    send_pos: np.ndarray
    acc_order: np.ndarray
    acc_slot: np.ndarray
    local_degrees: np.ndarray

    @property
    def n_edges(self):
        return len(self.edge_src)


def _build_round_plan(coupling):
    """Lay out the directed edges and the shared-component segments once."""
    neighbors = coupling.neighbors
    index_lists = [idx.tolist() for idx in coupling.index_arrays]
    g2l = [{j: k for k, j in enumerate(idx)} for idx in index_lists]
    offsets = coupling.offsets.tolist()
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
            send_pos += [offsets[s] + g2l[s][g] for g in shared]
            recv_slot += [offsets[d] + g2l[d][g] for g in shared]
    # the terms of every average in ascending sender order, as gather_average
    # adds them: each sender's own values (the head of the summed array), then
    # the segments it sent (the payload, after them)
    acc_order, acc_slot = [], []
    for s, receivers in enumerate(neighbors):
        own = range(offsets[s], offsets[s + 1])
        acc_order += own
        acc_slot += own
        for d in receivers:
            a, b = seg_start[edge[s, d]], seg_start[edge[s, d] + 1]
            acc_order += range(offsets[-1] + a, offsets[-1] + b)
            acc_slot += recv_slot[a:b]
    seg_src = np.repeat(np.array(src, dtype=np.intp), np.diff(seg_start))
    arrays = (src, dst, recv_start, [len(ne) for ne in neighbors], seg_start, seg_src,
              seg_global, send_pos, acc_order, acc_slot)
    return RoundPlan(*(np.array(a, dtype=np.intp) for a in arrays),
                     local_degrees=coupling.degrees[coupling.flat_index])


class RoundScheduler:
    """Round-based transport over the coupling graph.

    The transport itself accepts any topology; connectivity only matters to
    the consensus operations, which check it explicitly. ``distance`` is the
    agents' all-pairs hop distances (-1 between components); ``diameter`` is
    None on a disconnected graph.
    """

    def __init__(self, coupling):
        self.coupling = coupling
        self.round_index = 0
        self.rounds_by_kind = {}
        self.distance = _hop_distances(coupling.neighbors)
        self.is_connected = bool((self.distance >= 0).all())
        self.diameter = int(self.distance.max(initial=0)) if self.is_connected else None
        self.plan = _build_round_plan(coupling)
        # a shared-component round carries the plan's segments, any other
        # round one entry per directed edge
        self._n_edges = self.plan.n_edges
        self._payload_lengths = {KIND_SHARED: len(self.plan.seg_global)}
        # per kind: messages every directed edge carried, then each edge's further ones
        self._tallies = {}
        self._total = 0

    def deliver_round(self, payload, kind):
        """Deliver one synchronous round of ``kind`` laid out by ``self.plan``.

        Every directed edge carries its entry; the sending operation credits
        the messages (``count_messages``). Returns the delivered payload;
        raises, counting nothing, if its length does not match the plan.
        """
        expected = self._payload_lengths.get(kind, self._n_edges)
        if len(payload) != expected:
            raise StructureError(f"{kind} payload has {len(payload)} entries; "
                                 f"the round plan lays out {expected}")
        self.rounds_by_kind[kind] = self.rounds_by_kind.get(kind, 0) + 1
        self.round_index += 1
        return payload

    def count_messages(self, kind, used):
        """Credit messages of ``kind`` to the directed edges that carried them:
        ``used`` is one count every edge carried (an integer scalar), or one
        per edge."""
        tally = self._tallies.get(kind)
        if tally is None:
            tally = self._tallies[kind] = [0, np.zeros(self._n_edges, dtype=np.intp)]
        if isinstance(used, (int, np.integer)):
            tally[0] += int(used)
            self._total += int(used) * self._n_edges
        else:
            tally[1] += used
            self._total += int(used.sum())

    def _edge_messages(self, kind):
        """Messages of ``kind`` each directed edge carried."""
        every, own = self._tallies.get(kind, (0, 0))
        return np.full(self._n_edges, every, dtype=np.intp) + own

    @property
    def sent(self):
        """Messages sent by each agent, all kinds."""
        return sum(self.sent_by_kind.values(), np.zeros_like(self.plan.out_degree))

    @property
    def sent_by_kind(self):
        """Messages sent by each agent, per kind that has had a round: those
        its out-edges carried (summed as floats, exact below 2**53)."""
        return {kind: np.bincount(self.plan.edge_src, self._edge_messages(kind),
                                  len(self.plan.out_degree)).astype(np.intp)
                for kind in self.rounds_by_kind}

    @property
    def total_sent(self):
        """Messages sent so far, all kinds: a running total, read in O(1)."""
        return self._total

    # the transport is lossless: every message sent is delivered in its round
    total_delivered = total_sent

    def messages_of_kind(self, kind):
        return int(self._edge_messages(kind).sum())


def exchange_shared_components(scheduler, flat, vote=None):
    """One data exchange: average each shared variable over its owners.

    Every agent sends one message per neighbor, carrying exactly the
    components both parties own. Each agent then averages, per variable,
    its own contribution with the received ones in ascending agent order,
    which reproduces the dense consensus projection bit for bit.
    ``flat`` is the agents' contributions as one flat array in the
    coupling's layout (``CouplingStructure.flat_index``); the averaged
    flat array is returned, and anything else raises ``StructureError``.

    ``vote`` is the per-agent flags of a failed AND that ``all_agree`` left
    to this exchange (``carry``; not all True), whose data messages relay
    it: an agent sends its data in the round after the first data reach
    it, round 1 if it holds False, so the exchange takes 1 + the largest
    hop distance from an agent that holds False rounds.
    """
    plan = scheduler.plan
    if not isinstance(flat, np.ndarray) or flat.shape != plan.local_degrees.shape:
        raise StructureError("contributions must be one flat vector of local entries")
    if not plan.n_edges:
        # no variable has two owners: there is nothing to send, so no round
        return flat.copy()
    if vote is None:
        received = scheduler.deliver_round(flat[plan.send_pos], KIND_SHARED)
    else:
        received = _relay_vote(scheduler, np.asarray(vote, dtype=bool), flat[plan.send_pos])
    scheduler.count_messages(KIND_SHARED, 1)
    terms = np.concatenate((flat, received))[plan.acc_order]
    averaged = np.bincount(plan.acc_slot, weights=terms, minlength=flat.size)
    averaged /= plan.local_degrees
    return averaged


def _relay_vote(scheduler, flags, data):
    """Deliver ``data``, a shared-component payload, in the rounds of an
    exchange that relays the failed vote ``flags``, and return it.

    Agent i sends its data in round 1 + d_i, d_i its hop distance from the
    nearest agent that holds False, so the exchange takes 1 + max d_i
    rounds. A message is its sender's data unchanged, so every round
    delivers the same payload.
    """
    _require_connected(scheduler)
    rounds = 1
    if 1 in flags.tobytes():
        rounds += int(_hops_from_false(scheduler, flags).max())
    for _ in range(rounds):
        data = scheduler.deliver_round(data, KIND_SHARED)
    return data


def _hops_from_false(scheduler, flags):
    """Each agent's hop distance from the nearest agent whose flag is False."""
    return scheduler.distance.min(axis=1, where=~flags, initial=len(flags))


def _per_agent(scheduler, values, dtype):
    """``values`` as an array of ``dtype``; ``StructureError`` unless one entry per agent."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != (scheduler.coupling.n_agents,):
        raise StructureError(f"consensus takes one value per agent "
                             f"({scheduler.coupling.n_agents}), not shape {values.shape}")
    return values


def _require_connected(scheduler):
    if not scheduler.is_connected:
        raise DisconnectedNetworkError("coupling graph is disconnected; split the problem "
                                       "and solve the pieces")


def all_agree(scheduler, flags, carry=False):
    """Logical AND of per-agent flags, by an early-deciding flood.

    With d_i agent i's hop distance from the nearest agent that holds
    False, agent i sends False once, in round d_i + 1, on the edge to each
    neighbour j with d_j >= d_i, and not at all if d_i is ``diameter``. The
    flood ends after the last round in which an agent sends, so a False
    outcome takes at most ``diameter`` rounds and an all-True start exactly
    ``diameter`` silent ones. Every agent holds the returned decision when
    the flood ends.

    With ``carry``, a vote that is not all True returns False at once and
    takes no round or message here: the data messages of the next
    ``exchange_shared_components``, given ``flags`` as ``vote``, relay it.
    ``flags`` that are not one per agent raise ``StructureError``.
    """
    flags = _per_agent(scheduler, flags, bool)
    _require_connected(scheduler)
    plan = scheduler.plan
    if 0 not in flags.tobytes() or not scheduler.diameter:
        # no agent holds False, or there is no other agent: a True agent
        # waits out diameter silent rounds
        payload = flags[plan.edge_src]
        for _ in range(scheduler.diameter):
            scheduler.deliver_round(payload, KIND_FLAG)
        return bool(flags[0])
    if carry:
        return False
    if 1 not in flags.tobytes():
        # every agent holds False and tells every neighbour in round 1
        scheduler.deliver_round(flags[plan.edge_src], KIND_FLAG)
        scheduler.count_messages(KIND_FLAG, 1)
        return False
    hops = _hops_from_false(scheduler, flags)
    src = hops[plan.edge_src]
    sends = (hops[plan.edge_dst] >= src) & (src < scheduler.diameter)
    for r in range(1, 2 + int(src.max(where=sends, initial=0))):
        # the flags the agents hold at the start of round r
        scheduler.deliver_round(src >= r, KIND_FLAG)
    scheduler.count_messages(KIND_FLAG, sends)
    return False


def min_consensus(scheduler, values):
    """Minimum of per-agent scalars, by a flood of diameter rounds in which
    an agent sends its value on an edge only when it is below everything
    that edge has carried in either direction: below the values both ends
    held a round before. ``values`` that are not one finite scalar per agent
    raise ``StructureError``."""
    state = _per_agent(scheduler, values, float)
    if not np.isfinite(state).all():
        raise StructureError("consensus values must be finite")
    _require_connected(scheduler)
    plan = scheduler.plan
    payload = state[plan.edge_src]
    # equal to the bit: a uniform state is a fixed point of np.minimum
    settled = state.tobytes() == state[:1].tobytes() * state.size
    sent = 1  # every value is below +inf, so round 1 is news on every edge
    for r in range(1, scheduler.diameter + 1):
        received = scheduler.deliver_round(payload, KIND_MIN)
        if settled:
            continue
        carried = np.minimum(payload, state[plan.edge_dst])
        state = np.minimum(state, np.minimum.reduceat(received, plan.recv_start))
        if r < scheduler.diameter:
            settled = state.tobytes() == state[:1].tobytes() * state.size
            payload = state[plan.edge_src]
            sent = sent + (payload < carried)
    scheduler.count_messages(KIND_MIN, sent)
    return float(state[0])
