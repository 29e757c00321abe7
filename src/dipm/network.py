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
in the exchange's one round or, when it relays a failed vote (below), in
the round its sender speaks in, and a coupling without edges has nothing
to exchange, so it takes no round.

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
absorbs, so an agent that holds False knows the outcome. By the rule above
it sends False once, in the round after it first holds it, on each edge to
a neighbour that has not already sent it False; an agent that holds True
stays silent, and no agent sends after round diameter, by which every agent
holds the outcome. The flood ends after the last round in which an agent
sends, so it takes at most diameter rounds, and exactly diameter silent
ones when every agent starts True. Its result is the AND of the start
flags, that of a flood run for diameter rounds.

A failed convergence AND of the splitting iteration is relayed by the data
of the next exchange (``all_agree`` with ``carry``, then
``exchange_shared_components`` with the flags as ``vote``) and sends no
flag of its own: an agent sends its next data, marked False, in the round
after it learns that the vote failed, round 1 if it holds False, and an
agent learns it from the first data it receives. The exchange takes 1 + the
largest distance from an agent that holds False rounds, no more than an
AND flood and a data round after it, and each agent still sends each
neighbour one data message. An all-True vote sends no data and takes its
diameter silent flag rounds.

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
    the consensus operations, which check it explicitly.
    """

    def __init__(self, coupling):
        self.coupling = coupling
        self.round_index = 0
        self.rounds_by_kind = {}
        self.diameter = _diameter(coupling.neighbors)
        self.is_connected = self.diameter is not None
        self.plan = _build_round_plan(coupling)
        # a shared-component round carries the plan's segments, any other
        # round one entry per directed edge
        self._n_edges = self.plan.n_edges
        self._payload_lengths = {KIND_SHARED: len(self.plan.seg_global)}
        # per kind: messages every directed edge carried, then each edge's further ones
        self._tallies = {}
        self._total = 0
        # the payload of every round that relays a failed vote
        self._carrier = np.zeros(len(self.plan.seg_global), _CARRIER)

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
        ``used`` is one count every edge carried (an int), or one per edge."""
        tally = self._tallies.get(kind)
        if tally is None:
            tally = self._tallies[kind] = [0, np.zeros(self._n_edges, dtype=np.intp)]
        if isinstance(used, int):
            tally[0] += used
            self._total += used * self._n_edges
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


# a shared-component entry of a round that relays a failed vote: the
# sender's value, and whether the sender speaks in this round
_CARRIER = np.dtype([("value", float), ("speaks", bool)])


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
    it: an agent sends its data, marked False, in the round after it
    learns that the vote failed, round 1 if it holds False. The exchange
    takes 1 + the largest distance from an agent that holds False rounds,
    and each agent averages the segments of the round in which their
    sender spoke.
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


def _relay_vote(scheduler, waits, data):
    """The rounds of an exchange of ``data`` (a payload) that relays a
    failed vote; returns the segments each receiver takes. ``waits`` holds
    the agents' flags: an agent that holds True waits for a neighbour's
    data to learn the outcome.

    As in a flood, the transport delivers every entry of a round, each
    marked with whether its sender speaks in it, and a receiver takes the
    marked ones. Every round's payload is the scheduler's one carrier.
    """
    _require_connected(scheduler)
    plan = scheduler.plan
    carrier = scheduler._carrier
    carrier["value"] = data
    if 1 not in waits.tobytes():
        # every agent holds False: round 1 carries all the data
        carrier["speaks"] = True
        return scheduler.deliver_round(carrier, KIND_SHARED)["value"]
    taken = np.empty_like(data)
    by_receiver = plan.seg_start[plan.recv_start]  # each receiver's first entry
    speaks = ~waits
    while True:
        carrier["speaks"] = speaks[plan.seg_src]
        received = scheduler.deliver_round(carrier, KIND_SHARED)
        marks = received["speaks"]
        np.copyto(taken, received["value"], where=marks)
        if 1 not in waits.tobytes():
            return taken
        heard = np.logical_or.reduceat(marks, by_receiver)
        speaks = waits & heard
        waits = waits > heard


def _require_connected(scheduler):
    if not scheduler.is_connected:
        raise DisconnectedNetworkError("coupling graph is disconnected; split the problem "
                                       "and solve the pieces")


def all_agree(scheduler, flags, carry=False):
    """Logical AND of per-agent flags, by an early-deciding flood.

    False absorbs under AND, so an agent that holds False knows the outcome:
    it sends False once, in the round after it first holds it, to each
    neighbour that has not already sent it False, and sends nothing after
    round ``diameter``. An agent that holds True waits. The flood ends after
    the last round in which an agent sends, so a False outcome takes at most
    ``diameter`` rounds and an all-True start exactly ``diameter`` silent
    ones. Every agent holds the returned decision when the flood ends.

    With ``carry``, a vote that is not all True returns False at once and
    takes no round or message here: the data messages of the next
    ``exchange_shared_components``, given ``flags`` as ``vote``, relay it.
    """
    state = np.asarray(flags, dtype=bool)
    _require_connected(scheduler)
    plan = scheduler.plan
    if 0 not in state.tobytes() or not scheduler.diameter:
        # no agent holds False, or there is no other agent: a True agent
        # waits out diameter silent rounds
        payload = state[plan.edge_src]
        for _ in range(scheduler.diameter):
            scheduler.deliver_round(payload, KIND_FLAG)
        return bool(state[0])
    if carry:
        return False
    received = scheduler.deliver_round(state[plan.edge_src], KIND_FLAG)
    if 1 not in state.tobytes():
        # every agent holds False and tells every neighbour in round 1
        scheduler.count_messages(KIND_FLAG, 1)
        return False
    starts = [state]  # the agents' flags at the start of each round
    while len(starts) < scheduler.diameter:
        before = state
        state = before & np.logical_and.reduceat(received, plan.recv_start)
        # once every agent holds False, only neighbours that both turned
        # False in the last round still tell each other
        if 1 not in state.tobytes():
            if 1 in (received & before[plan.edge_dst]).tobytes():
                starts.append(state)
                scheduler.deliver_round(state[plan.edge_src], KIND_FLAG)
            break
        starts.append(state)
        received = scheduler.deliver_round(state[plan.edge_src], KIND_FLAG)
    _count_news(scheduler, KIND_FLAG, starts, True)
    return False


def min_consensus(scheduler, values):
    """Minimum of per-agent scalars, by a flood of diameter rounds in which
    an agent sends its value on an edge only when it is below everything
    that edge has carried in either direction."""
    state = np.array(values, dtype=float)
    if not np.isfinite(state).all():
        raise StructureError("consensus values must be finite")
    _require_connected(scheduler)
    plan = scheduler.plan
    starts = []  # the agents' values at the start of each round, until they are uniform
    settled = False
    for _ in range(scheduler.diameter):
        if not settled:
            # equal to the bit: a uniform state is a fixed point of np.minimum
            settled = state.tobytes() == state[:1].tobytes() * state.size
            starts.append(state)
            payload = state[plan.edge_src]
        received = scheduler.deliver_round(payload, KIND_MIN)
        if not settled:
            state = np.minimum(state, np.minimum.reduceat(received, plan.recv_start))
    if settled and len(starts) == 1:
        # a uniform start: every agent tells every neighbour in round 1
        scheduler.count_messages(KIND_MIN, 1)
    elif starts:
        _count_news(scheduler, KIND_MIN, starts, np.inf)
    return float(state[0])


def _count_news(scheduler, kind, starts, top):
    """Credit the messages of a flood whose agents held ``starts`` at the
    start of its rounds (``top`` before round 1): an agent sends its value
    on an edge only when it is below everything that edge has carried in
    either direction, which is when it is below the values both ends of
    the edge held a round before."""
    plan = scheduler.plan
    held = np.array([np.full_like(starts[0], top), *starts])
    src = held.take(plan.edge_src, axis=1)
    sent = src[1:] < np.minimum(src[:-1], held[:-1].take(plan.edge_dst, axis=1))
    scheduler.count_messages(kind, sent.sum(axis=0))
