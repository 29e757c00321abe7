"""Message-passing simulation: exchange, consensus, accounting, locality.

The shaped couplings at the end also carry the direction, Newton and
barrier oracle checks, the only tests that run the solver off a chain.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from dipm.barrier import solve_ipm
from dipm.config import SolverConfig
from dipm.direction import DirectionWorkspace, compute_direction
from dipm.errors import DisconnectedNetworkError, StructureError
from dipm.generator import random_qp
from dipm.network import (
    KIND_FLAG,
    KIND_MIN,
    KIND_SHARED,
    RoundScheduler,
    all_agree,
    exchange_shared_components,
    min_consensus,
)
from dipm.newton import plain_stage, solve_newton
from dipm.oracle import assemble_dense, centralized_ipm, centralized_newton, direct_direction
from dipm.problem import (
    AgentBlock,
    LooselyCoupledProblem,
    QuadraticFunction,
    build_coupling,
    consistency_error,
    gather_average,
    scatter,
)


def coupling_for(index_sets, n):
    blocks = tuple(
        AgentBlock(index_set=tuple(idx), objective=QuadraticFunction(np.eye(len(idx)), np.zeros(len(idx))))
        for idx in index_sets
    )
    return build_coupling(LooselyCoupledProblem(n=n, blocks=blocks))


def chain_coupling(n_agents):
    """Path of agents sharing one variable with each neighbor."""
    return coupling_for([(i, i + 1) for i in range(n_agents)], n_agents + 1)


class TestExchange:
    def test_chain_example_with_message_count(self):
        c = coupling_for([(0, 1), (1, 2)], 3)
        sched = RoundScheduler(c)
        out = exchange_shared_components(sched, np.array([1.0, 2.0, 4.0, 6.0]))
        assert out[0:2].tolist() == [1.0, 3.0]
        assert out[2:4].tolist() == [3.0, 6.0]
        assert sched.total_sent == 2
        assert sched.messages_of_kind(KIND_SHARED) == 2
        assert sched.total_delivered == sched.total_sent

    def test_decoupled_exchange_no_messages(self):
        c = coupling_for([(0,), (1,)], 2)
        sched = RoundScheduler(c)
        contributions = np.array([5.0, -3.0])
        out = exchange_shared_components(sched, contributions)
        assert sched.total_sent == 0
        # no edge, nothing to send: no round either, as in a flood
        assert sched.round_index == 0 and sched.rounds_by_kind == {}
        np.testing.assert_array_equal(out[0], contributions[0])
        np.testing.assert_array_equal(out[1], contributions[1])

    def test_matches_gather_average_bitwise(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sets, covered, n = [], set(), 12
            for i in range(5):
                idx = tuple(sorted(rng.choice(n, size=4, replace=False).tolist()))
                sets.append(idx)
                covered.update(idx)
            missing = tuple(sorted(set(range(n)) - covered))
            if missing:
                sets[-1] = tuple(sorted(set(sets[-1]) | set(missing)))
            c = coupling_for(sets, n)
            sched = RoundScheduler(c)
            contributions = [rng.standard_normal(len(s)) for s in sets]
            if not sched.is_connected:
                continue
            out = exchange_shared_components(sched, np.concatenate(contributions))
            z = gather_average(contributions, c)
            expected = scatter(z, c)
            for got, want in zip(np.split(out, c.offsets[1:-1]), expected):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("contributions", [
        [np.zeros(2), np.zeros(3)],
        [0.0] * 5,
        np.zeros(4),
        np.zeros(6),
        np.zeros((1, 5)),
    ], ids=["per-agent-list", "list-of-floats", "short", "long", "two-dimensional"])
    def test_only_one_flat_vector_of_local_entries_is_exchanged(self, contributions):
        c = coupling_for([(0, 1), (1, 2, 3)], 4)
        sched = RoundScheduler(c)
        with pytest.raises(StructureError, match="one flat vector of local entries"):
            exchange_shared_components(sched, contributions)
        assert sched.round_index == 0

    def test_sends_exactly_neighbor_count(self):
        c = coupling_for([(0, 1), (1, 2), (2, 3), (1, 3)], 4)
        sched = RoundScheduler(c)
        exchange_shared_components(sched, np.zeros(8))
        for i in range(4):
            assert sched.sent[i] == len(c.neighbors[i])

    def test_non_neighbor_send_rejected(self):
        # a payload has one segment per neighbour pair, so a message to a
        # non-neighbour cannot be laid out; a payload of any other length is refused
        c = coupling_for([(0, 1), (1, 2), (3,), (2, 3)], 4)
        sched = RoundScheduler(c)
        plan = sched.plan
        edges = set(zip(plan.edge_src.tolist(), plan.edge_dst.tolist()))
        assert edges == {(i, j) for i, ne in enumerate(c.neighbors) for j in ne}
        assert len(edges) == plan.n_edges
        for kind, length in ((KIND_MIN, plan.n_edges), (KIND_SHARED, len(plan.seg_global))):
            with pytest.raises(StructureError, match="round plan"):
                sched.deliver_round(np.zeros(length + 1), kind)
        # a refused round counts nothing, not even its kind
        assert sched.total_sent == 0 and sched.round_index == 0
        assert sched.sent_by_kind == {} and not sched.sent.any()

    def test_payload_indices_owned_by_both_parties(self):
        # locality: only mutually owned components ever cross a boundary
        rng = np.random.default_rng(4)
        blocks = [(0, 1, 2), (1, 2, 3), (2, 3, 4)]
        c = coupling_for(blocks, 5)
        sched = RoundScheduler(c)
        sent = []
        original = sched.deliver_round

        def spy(payload, kind):
            sent.append((kind, payload.copy()))
            return original(payload, kind)

        sched.deliver_round = spy
        contributions = [rng.standard_normal(3) for _ in range(3)]
        exchange_shared_components(sched, np.concatenate(contributions))
        assert [kind for kind, _ in sent] == [KIND_SHARED]
        payload = sent[0][1]
        plan = sched.plan
        assert plan.n_edges > 0
        for e, (src, dst) in enumerate(zip(plan.edge_src.tolist(), plan.edge_dst.tolist())):
            seg = slice(plan.seg_start[e], plan.seg_start[e + 1])
            g = plan.seg_global[seg]
            assert g.size > 0
            assert set(g.tolist()) <= set(blocks[src]) & set(blocks[dst])
            local = np.searchsorted(c.index_arrays[src], g)
            np.testing.assert_array_equal(payload[seg], contributions[src][local])


class TestConsensus:
    def test_all_agree_true_and_false(self):
        sched = RoundScheduler(chain_coupling(5))
        assert all_agree(sched, [True] * 5) is True
        assert all_agree(sched, [True, True, False, True, True]) is False

    def test_flood_rounds_bounded_by_diameter(self):
        sched = RoundScheduler(chain_coupling(4))
        all_agree(sched, [True] * 4)
        assert sched.round_index <= 3

    def test_single_agent_no_rounds(self):
        c = coupling_for([(0, 1, 2)], 3)
        sched = RoundScheduler(c)
        assert all_agree(sched, [True]) is True
        assert all_agree(sched, [False]) is False
        assert sched.round_index == 0
        assert sched.total_sent == 0

    def test_min_consensus_values(self):
        sched = RoundScheduler(chain_coupling(3))
        assert min_consensus(sched, [0.5, 1.0, 0.25]) == 0.25
        assert min_consensus(sched, [1.0, 1.0, 1.0]) == 1.0

    def test_min_two_agents_one_round(self):
        sched = RoundScheduler(chain_coupling(2))
        assert min_consensus(sched, [1.0, 1e-8]) == 1e-8
        assert sched.round_index == 1

    def test_disconnected_graph_raises(self):
        c = coupling_for([(0, 1), (2, 3)], 4)
        sched = RoundScheduler(c)
        assert sched.is_connected is False and sched.diameter is None
        with pytest.raises(DisconnectedNetworkError):
            all_agree(sched, [True, True])
        with pytest.raises(DisconnectedNetworkError):
            min_consensus(sched, [1.0, 2.0])

    def test_nonfinite_consensus_value_rejected(self):
        sched = RoundScheduler(chain_coupling(2))
        with pytest.raises(StructureError, match="finite"):
            min_consensus(sched, [1.0, float("nan")])

    @pytest.mark.parametrize("values", [[np.inf, 1.0], [np.nan, np.nan],
                                        [[1.0, 2.0], [-np.inf, np.inf]],
                                        [[np.inf, 1.0], [np.inf, 1.0]],
                                        [[1e308, np.nan], [1e308, 1.0]]])
    def test_every_nonfinite_value_is_rejected_before_a_round(self, values):
        # finite values pass, however large; an infinity or a NaN in any
        # column raises and takes no round, whether or not every agent
        # holds the same bits
        sched = RoundScheduler(chain_coupling(2))
        assert min_consensus(sched, [[1e308, 1.0], [1e308, -1e308]]) == (1e308, -1e308)
        rounds = sched.round_index
        with pytest.raises(StructureError, match="finite"):
            min_consensus(sched, values)
        assert sched.round_index == rounds

    @pytest.mark.parametrize("length", [3, 5], ids=["short", "long"])
    def test_consensus_takes_one_value_per_agent(self, length):
        sched = RoundScheduler(chain_coupling(4))
        for flags in ([True] * length, [False] + [True] * (length - 1)):
            with pytest.raises(StructureError, match="one value per agent"):
                all_agree(sched, flags)
        with pytest.raises(StructureError, match="one value per agent"):
            min_consensus(sched, np.arange(length, dtype=float))
        # a refused vector counts nothing
        assert sched.round_index == 0 and sched.total_sent == 0


class CountingScheduler(RoundScheduler):
    """``RoundScheduler`` that counts its ``deliver_round`` calls."""

    calls = 0

    def deliver_round(self, payload, kind):
        self.calls += 1
        return super().deliver_round(payload, kind)


def recomputing_flood(c, state, combine):
    """Flood for diameter rounds, recombining every agent's state in every round."""
    sched = RoundScheduler(c)
    plan = sched.plan
    for _ in range(sched.diameter):
        state = combine(state, combine.reduceat(state[plan.edge_src], plan.recv_start))
    return state[0]


def reverse_edges(plan):
    """Index of the reverse of each directed edge of ``plan``."""
    edges = list(zip(plan.edge_src.tolist(), plan.edge_dst.tolist()))
    return np.array([edges.index((d, s)) for s, d in edges], dtype=int)


def news_flood(c, state, combine, identity):
    """Reference flood over a masked transport, simulated for diameter
    rounds: an agent puts its value on an edge only when it is below
    everything that edge has carried in either direction (the identity
    before round 1), and a silent edge carries the identity. A state of one
    row of k values per agent, with one identity per column or one for
    all, puts its whole row on an edge when any of its values is news
    there. Returns agent 0's value, each agent's messages, the last round
    in which an agent sent (0 if none did) and which values were news, per
    round and edge (and column)."""
    sched = RoundScheduler(c)
    plan = sched.plan
    reverse = reverse_edges(plan)
    carried = np.full(state[plan.edge_src].shape, identity, dtype=state.dtype)
    news = np.zeros((sched.diameter,) + carried.shape, dtype=bool)
    for r in range(sched.diameter):
        news[r] = state[plan.edge_src] < carried
        send = news[r].reshape(plan.n_edges, -1).any(axis=1)
        payload = np.where(send.reshape(carried.shape[:1] + (1,) * (state.ndim - 1)),
                           state[plan.edge_src], identity)
        carried = combine(carried, combine(payload, payload[reverse]))
        state = combine(state, combine.reduceat(payload, plan.recv_start))
    sends = news.any(axis=2) if state.ndim == 2 else news
    messages = np.bincount(plan.edge_src, sends.sum(axis=0), c.n_agents).astype(int)
    rounds = np.flatnonzero(sends.any(axis=1))
    return state[0], messages, int(rounds[-1]) + 1 if rounds.size else 0, news


def agent_news(c, state, combine, identity):
    """Messages of a flood in which an agent sends on all its edges whenever
    its value differs from the one it held a round before (the identity
    before round 1): the count an agent's own news bounds."""
    sched = RoundScheduler(c)
    plan = sched.plan
    before = np.full_like(state, identity)
    broadcasts = np.zeros(c.n_agents, dtype=int)
    for _ in range(sched.diameter):
        broadcasts += state != before
        before = state
        state = combine(state, combine.reduceat(state[plan.edge_src], plan.recv_start))
    return broadcasts * plan.out_degree


def deciding_flood(c, flags):
    """Reference early-deciding AND over a masked transport, simulated round
    by round from each agent's knowledge: an agent that holds False sends it
    once, in the round after the one in which it first holds it (round 1 if
    it starts False), on each edge whose receiver has not sent it False, and
    never after round ``diameter``; a silent edge carries True. Returns the
    result, each agent's messages and the rounds: up to the last one in
    which an agent sent, or ``diameter`` if none did."""
    sched = RoundScheduler(c)
    plan = sched.plan
    reverse = reverse_edges(plan)
    holds = np.array(flags, dtype=bool)
    # the round after which an agent first holds False: 0 if it starts
    # False, -1 while it holds True
    level = np.where(holds, -1, 0)
    told = np.zeros(plan.n_edges, dtype=bool)  # edge e has carried False
    messages = np.zeros(c.n_agents, dtype=int)
    last = 0
    for r in range(1, sched.diameter + 1):
        send = (level[plan.edge_src] == r - 1) & ~told[reverse]
        messages += np.bincount(plan.edge_src[send], minlength=c.n_agents)
        last = r if send.any() else last
        told |= send
        heard = np.logical_and.reduceat(~send, plan.recv_start)
        level = np.where(holds & ~heard, r, level)
        holds &= heard
    assert (holds == holds[0]).all()
    return holds[0], messages, last or sched.diameter


def relay_rounds(c, flags):
    """Rounds of an exchange that relays the failed vote ``flags``: one
    more than the largest distance from an agent that holds False."""
    adjacency = np.zeros((c.n_agents, c.n_agents))
    for i, ne in enumerate(c.neighbors):
        adjacency[i, list(ne)] = 1.0
    distance = shortest_path(adjacency, unweighted=True, indices=np.flatnonzero(~flags))
    return 1 + int(distance.min(axis=0).max())


FLOOD_COUPLINGS = {
    "chain": lambda: chain_coupling(6),
    "star": lambda: coupling_from_graph(6, [(0, i) for i in range(1, 6)]),
    "grid": lambda: grid(6, None),
}


class TestUniformFlood:
    # a uniform state is a fixed point, so a MIN flood stops recombining once
    # every agent holds the same bits, but still delivers diameter rounds; an
    # AND flood delivers the rounds of the early-deciding reference
    @pytest.mark.parametrize("shape", sorted(FLOOD_COUPLINGS))
    def test_rounds_and_results_match_a_recomputing_flood(self, shape):
        c = FLOOD_COUPLINGS[shape]()
        n = c.n_agents
        rng = np.random.default_rng(len(shape))
        flag_starts = [[True] * n, [False] * n, [True] * (n - 1) + [False],
                       [False] + [True] * (n - 1), rng.random(n) < 0.5]
        value_starts = [[2.5] * n, [-0.0] * n, [0.0] * (n - 1) + [-0.0],
                        [-0.0] + [0.0] * (n - 1), list(range(n, 0, -1)),
                        rng.standard_normal(n), rng.integers(0, 2, n)]
        sched = CountingScheduler(c)
        assert sched.diameter > 1
        rounds = 0
        for flags in flag_starts:
            before = sched.calls
            want = recomputing_flood(c, np.array(flags, dtype=bool), np.logical_and)
            assert all_agree(sched, flags) is bool(want)
            flag_rounds = deciding_flood(c, flags)[2]
            assert sched.calls - before == flag_rounds
            rounds += flag_rounds
        for values in value_starts:
            before = sched.calls
            want = recomputing_flood(c, np.array(values, dtype=float), np.minimum)
            got = min_consensus(sched, values)
            assert np.float64(got).tobytes() == want.tobytes()
            assert sched.calls - before == sched.diameter
        rounds += sched.diameter * len(value_starts)
        assert sched.calls == sched.round_index == rounds


class TestAccounting:
    def test_conservation_every_kind(self):
        sched = RoundScheduler(chain_coupling(4))
        exchange_shared_components(sched, np.zeros(8))
        all_agree(sched, [True] * 4)
        min_consensus(sched, [1.0, 2.0, 3.0, 4.0])
        assert sched.total_sent == sched.total_delivered
        total = sum(
            sched.messages_of_kind(k) for k in (KIND_SHARED, KIND_FLAG, KIND_MIN)
        )
        assert total == sched.total_sent

    @pytest.mark.parametrize("used", [1, np.int64(1), np.intp(2)])
    def test_integer_scalar_counts_once_per_edge(self, used):
        # a 4-agent chain has 6 directed edges
        sched = RoundScheduler(chain_coupling(4))
        sched.count_messages(KIND_MIN, used)
        assert sched.messages_of_kind(KIND_MIN) == sched.total_sent == 6 * int(used)
        assert type(sched.total_sent) is int

    def test_deterministic_counters(self):
        def run():
            sched = RoundScheduler(chain_coupling(5))
            exchange_shared_components(sched, np.tile(np.arange(2.0), 5))
            min_consensus(sched, [3.0, 1.0, 2.0, 5.0, 4.0])
            return sched.sent.tolist(), sched.round_index
        assert run() == run()


# ---------------------------------------------------------------------------
# properties over couplings other than chains
# ---------------------------------------------------------------------------

def coupling_from_graph(n_agents, edges, groups=()):
    """One private variable per agent, then one shared variable per edge
    and one per group (a tuple of its owners)."""
    sets = [[i] for i in range(n_agents)]
    for var, owners in enumerate(list(edges) + list(groups), start=n_agents):
        for a in owners:
            sets[a].append(var)
    return coupling_for(sets, n_agents + len(edges) + len(groups))


def star(size, rng):
    return coupling_from_graph(size, [(0, i) for i in range(1, size)])


def tree(size, rng):
    return coupling_from_graph(size, [(int(rng.integers(i)), i) for i in range(1, size)])


def grid(size, rng):
    rows, cols = 2 + size % 2, max(1, size // 2)
    at = np.arange(rows * cols).reshape(rows, cols)
    edges = [(int(a), int(b)) for a, b in zip(at[:, :-1].ravel(), at[:, 1:].ravel())]
    edges += [(int(a), int(b)) for a, b in zip(at[:-1].ravel(), at[1:].ravel())]
    return coupling_from_graph(rows * cols, edges)


def random_overlap(size, rng):
    # a random spanning tree keeps the graph connected; the groups add
    # variables owned by up to four agents and repeated overlaps of a pair
    edges = [(int(rng.integers(i)), i) for i in range(1, size)]
    groups = [
        tuple(sorted(rng.choice(size, size=int(rng.integers(2, min(4, size) + 1)),
                                replace=False).tolist()))
        for _ in range(size)
    ]
    return coupling_from_graph(size, edges, groups)


SHAPES = {"star": star, "tree": tree, "grid": grid, "random-overlap": random_overlap}
# chains reach diameter 31, where the shapes stop at 8
LONG_CHAINS = st.integers(2, 32).map(chain_coupling)
FINITE = st.floats(-1e6, 1e6)
PROPERTY = settings(max_examples=40, deadline=None, database=None)


@st.composite
def shaped_coupling(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    size = draw(st.integers(2, 9))
    return SHAPES[shape](size, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def per_agent(data, c, elements):
    return data.draw(st.lists(elements, min_size=c.n_agents, max_size=c.n_agents))


class TestShapes:
    @PROPERTY
    @given(c=shaped_coupling(), data=st.data())
    def test_exchange_is_the_dense_projection_bitwise(self, c, data):
        contributions = [
            np.array(data.draw(st.lists(FINITE, min_size=len(idx), max_size=len(idx))))
            for idx in c.index_arrays
        ]
        out = exchange_shared_components(RoundScheduler(c), np.concatenate(contributions))
        expected = scatter(gather_average(contributions, c), c)
        for got, want in zip(np.split(out, c.offsets[1:-1]), expected):
            assert np.array_equal(got, want)

    @PROPERTY
    @given(c=shaped_coupling(), data=st.data())
    def test_flooding_is_global_and_min_in_diameter_rounds(self, c, data):
        sched = RoundScheduler(c)
        adjacency = np.zeros((c.n_agents, c.n_agents))
        for i, ne in enumerate(c.neighbors):
            adjacency[i, list(ne)] = 1.0
        distance = shortest_path(adjacency, unweighted=True)
        np.testing.assert_array_equal(sched.distance, distance)
        assert sched.distance.dtype == np.intp
        assert sched.diameter == int(distance.max())
        flags = per_agent(data, c, st.booleans())
        values = per_agent(data, c, FINITE)
        assert all_agree(sched, flags) == all(flags)
        flag_rounds = deciding_flood(c, flags)[2]
        assert sched.round_index == flag_rounds
        assert min_consensus(sched, values) == min(values)
        assert sched.round_index == flag_rounds + sched.diameter

    @PROPERTY
    @given(c=shaped_coupling(), data=st.data())
    def test_per_agent_messages_are_rounds_times_degree(self, c, data):
        # a mixed sequence of rounds, with mixed or uniform consensus starts:
        # a shared-component round costs every agent its degree, a consensus
        # round at most that, exactly what the masked references send
        sched = RoundScheduler(c)
        degree = np.array([len(ne) for ne in c.neighbors])
        rounds = dict.fromkeys((KIND_SHARED, KIND_FLAG, KIND_MIN), 0)
        expected = {kind: 0 * degree for kind in rounds}
        for kind in data.draw(st.lists(st.sampled_from(sorted(rounds)), max_size=6)):
            if kind == KIND_SHARED:
                exchange_shared_components(sched, np.ones(c.offsets[-1]))
                rounds[kind] += 1
                expected[kind] += degree
                continue
            run, combine, identity, dtype = FLOODS[kind]
            values = st.booleans() if kind == KIND_FLAG else st.sampled_from([0.0, 1.0, -2.5])
            start = per_agent(data, c, values)
            run(sched, start)
            if kind == KIND_FLAG:
                _, messages, flag_rounds = deciding_flood(c, start)
                rounds[kind] += flag_rounds
                expected[kind] += messages
                continue
            rounds[kind] += sched.diameter
            expected[kind] += news_flood(c, np.array(start, dtype=dtype), combine, identity)[1]
        for kind, r in rounds.items():
            assert (expected[kind] <= r * degree).all()
            if r:
                np.testing.assert_array_equal(sched.sent_by_kind[kind], expected[kind])
            else:
                assert kind not in sched.sent_by_kind
            assert sched.messages_of_kind(kind) == expected[kind].sum()
        np.testing.assert_array_equal(expected[KIND_SHARED], rounds[KIND_SHARED] * degree)
        total = sum(expected.values())
        assert sched.round_index == sum(rounds.values())
        np.testing.assert_array_equal(sched.sent, total)
        assert sched.total_sent == sched.total_delivered == total.sum()


    @PROPERTY
    @given(c=st.one_of(shaped_coupling(), st.integers(1, 9).map(chain_coupling)),
           data=st.data())
    def test_running_total_is_the_sum_of_every_tally(self, c, data):
        # total_sent is kept as a running sum, not rebuilt from the tallies
        sched = RoundScheduler(c)
        kinds = (KIND_SHARED, KIND_FLAG, KIND_MIN)
        for kind in data.draw(st.lists(st.sampled_from(kinds), max_size=8)):
            if kind == KIND_SHARED:
                size = int(c.offsets[-1])
                exchange_shared_components(sched, np.array(
                    data.draw(st.lists(FINITE, min_size=size, max_size=size))))
            elif kind == KIND_FLAG:
                all_agree(sched, per_agent(data, c, st.booleans()))
            else:
                min_consensus(sched, per_agent(data, c, st.sampled_from([0.0, -0.0, 1.0])
                                               | FINITE))
            assert sched.total_sent == sum(sched.messages_of_kind(k) for k in kinds)
            assert sched.total_sent == sum(int(a.sum()) for a in sched.sent_by_kind.values())
            assert sched.total_sent == int(sched.sent.sum()) == sched.total_delivered


# kind -> (operation, combine, identity, dtype of the agents' values)
FLOODS = {KIND_FLAG: (all_agree, np.logical_and, True, bool),
          KIND_MIN: (min_consensus, np.minimum, np.inf, float)}


def flood_starts(kind, n):
    """Mixed and uniform starts for ``n`` agents, and signed zeros for MIN."""
    values = st.booleans() if kind == KIND_FLAG else FINITE
    starts = [st.lists(values, min_size=n, max_size=n), values.map(lambda v: [v] * n)]
    if kind == KIND_MIN:
        starts.append(st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=n, max_size=n))
    return st.one_of(starts)


class TestNewsFlood:
    """A flood relays a value only when it is news to the agent's neighbours."""

    def test_all_true_and_sends_nothing(self):
        c = grid(6, None)
        sched = RoundScheduler(c)
        assert all_agree(sched, [True] * c.n_agents) is True
        assert sched.round_index == sched.diameter > 1
        assert sched.total_sent == 0
        assert not sched.sent_by_kind[KIND_FLAG].any()

    def test_all_false_and_sends_one_message_per_directed_edge(self):
        # every agent knows the outcome at once and tells every neighbour in
        # round 1, so the flood ends there
        c = grid(6, None)
        sched = RoundScheduler(c)
        assert all_agree(sched, [False] * c.n_agents) is False
        _, messages, rounds = deciding_flood(c, [False] * c.n_agents)
        assert sched.round_index == rounds == 1 < sched.diameter
        np.testing.assert_array_equal(sched.sent_by_kind[KIND_FLAG], messages)
        np.testing.assert_array_equal(messages, sched.plan.out_degree)
        assert sched.total_sent == sched.plan.n_edges

    def test_min_from_one_end_of_a_chain(self):
        # agents 0..5 hold 0..5, so in each round every agent i > 0 whose
        # value is not yet 0 takes its left neighbour's: after telling both
        # neighbours in round 1, agent i passes each new value on to agent
        # i + 1 alone, in rounds 2..min(i + 1, 5), and agent 5 has no one to
        # pass it to
        sched = RoundScheduler(chain_coupling(6))
        assert min_consensus(sched, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]) == 0.0
        assert sched.round_index == sched.diameter == 5
        np.testing.assert_array_equal(sched.sent_by_kind[KIND_MIN], [1, 3, 4, 5, 6, 1])
        # relaying each agent's news on all its edges would send 34, and
        # resending every value in every round 5 rounds x 10 edges
        assert sched.total_sent == 20

    def test_a_zero_changing_sign_is_not_news(self):
        # np.minimum returns its second argument on a tie, so these zeros
        # change sign in every round without changing value
        c = chain_coupling(3)
        sched = RoundScheduler(c)
        got = min_consensus(sched, [0.0, -0.0, 0.0])
        want = recomputing_flood(c, np.array([0.0, -0.0, 0.0]), np.minimum)
        assert np.float64(got).tobytes() == want.tobytes()
        np.testing.assert_array_equal(sched.sent_by_kind[KIND_MIN], [1, 2, 1])

    @PROPERTY
    @given(c=st.one_of(shaped_coupling(), LONG_CHAINS),
           kind=st.sampled_from(sorted(FLOODS)), data=st.data())
    def test_counts_of_a_masked_network_and_bits_of_a_recomputing_flood(self, c, kind, data):
        run, combine, identity, dtype = FLOODS[kind]
        start = np.array(data.draw(flood_starts(kind, c.n_agents)), dtype=dtype)
        sched = RoundScheduler(c)
        got = np.array(run(sched, start.tolist()), dtype=dtype)
        want = recomputing_flood(c, start, combine)
        assert got.tobytes() == want.tobytes()
        reference, messages, last, _ = news_flood(c, start, combine, identity)
        # the masked network reaches the same value; only a zero's sign may differ
        assert reference == want
        np.testing.assert_array_equal(sched.sent_by_kind[kind], messages)
        assert sched.total_sent == messages.sum()
        if kind == KIND_FLAG:
            assert sched.round_index == (last or sched.diameter)
            np.testing.assert_array_equal(messages, deciding_flood(c, start)[1])
        else:
            assert sched.round_index == sched.diameter
        # a transport that drops every withheld entry changes no bit but a
        # zero's sign, and sees exactly the messages credited
        dropping = DroppingScheduler(c, identity)
        dropped = np.array(run(dropping, start.tolist()), dtype=dtype)
        assert dropped == want and (dropped.tobytes() == want.tobytes() or want == 0)
        np.testing.assert_array_equal(dropping.sent_by_kind[kind], messages)
        np.testing.assert_array_equal(dropping.delivered, sched._edge_messages(kind))
        # never more than relaying each agent's news on all its edges
        assert (messages <= agent_news(c, start, combine, identity)).all()


class DroppingScheduler(RoundScheduler):
    """``RoundScheduler`` whose transport delivers the identity for each
    consensus entry that is not below everything its edge has carried in
    either direction, and counts, per edge, the entries it lets through."""

    def __init__(self, coupling, identity):
        super().__init__(coupling)
        self.identity = identity
        self.reverse = reverse_edges(self.plan)
        self.carried = self.delivered = None

    def deliver_round(self, payload, kind):
        if self.carried is None:
            self.carried = np.full_like(payload, self.identity)
            self.delivered = np.zeros(self.plan.n_edges, dtype=int)
        sent = payload < self.carried
        self.delivered += sent
        payload = np.where(sent, payload, self.identity)
        self.carried = np.minimum(self.carried, np.minimum(payload, payload[self.reverse]))
        return super().deliver_round(payload, kind)


CHAIN_EDGES = [(i, i + 1) for i in range(5)]


class TestDecidingFlood:
    """An AND flood ends once every agent holds the outcome."""

    @pytest.mark.parametrize("n, edges, flags, messages, rounds", [
        # a chain: agent i first holds False after round i and tells agent
        # i + 1 in round i + 1; agent 5 would speak in round 6, after the diameter
        (6, CHAIN_EDGES, [False] + [True] * 5, [1, 1, 1, 1, 1, 0], 5),
        # the two fronts meet at agents 2 and 3, which turn False in the same
        # round and tell each other in round 3
        (6, CHAIN_EDGES, [False, True, True, True, True, False], [1] * 6, 3),
        (6, CHAIN_EDGES, [True] * 6, [0] * 6, 5),
        # on odd cycles two neighbours turn False after round diameter and
        # stay silent
        (3, [(0, 1), (1, 2), (0, 2)], [False, True, True], [2, 0, 0], 1),
        (5, [(i, (i + 1) % 5) for i in range(5)], [False] + [True] * 4, [2, 1, 0, 0, 1], 2),
    ], ids=["chain-one-end", "chain-both-ends", "chain-all-true", "triangle", "five-cycle"])
    def test_by_hand(self, n, edges, flags, messages, rounds):
        c = coupling_from_graph(n, edges)
        sched = RoundScheduler(c)
        assert all_agree(sched, flags) is all(flags)
        np.testing.assert_array_equal(sched.sent_by_kind[KIND_FLAG], messages)
        assert sched.round_index == rounds
        result, want_messages, want_rounds = deciding_flood(c, flags)
        assert result == all(flags) and want_rounds == rounds
        np.testing.assert_array_equal(want_messages, messages)

    @PROPERTY
    @given(c=st.one_of(shaped_coupling(), LONG_CHAINS),
           data=st.data())
    def test_bits_messages_and_rounds_of_the_masked_reference(self, c, data):
        flags = np.array(data.draw(flood_starts(KIND_FLAG, c.n_agents)), dtype=bool)
        sched = RoundScheduler(c)
        got = np.array(all_agree(sched, flags.tolist()))
        want = recomputing_flood(c, flags, np.logical_and)
        assert got.tobytes() == want.tobytes()
        result, messages, rounds = deciding_flood(c, flags)
        assert result == want
        np.testing.assert_array_equal(sched.sent_by_kind[KIND_FLAG], messages)
        assert sched.messages_of_kind(KIND_FLAG) == sched.total_sent == messages.sum()
        assert sched.round_index == sched.rounds_by_kind[KIND_FLAG] == rounds <= sched.diameter
        # the same messages as the per-edge rule of a MIN flood
        np.testing.assert_array_equal(news_flood(c, flags, np.logical_and, True)[1], messages)


class TestStackedMin:
    """A MIN flood of one row of k values per agent carries one k-tuple per
    message, sent on an edge when any of its values is news there."""

    def test_a_vote_rides_a_min_on_a_chain(self):
        # agent 0 holds False and a step of 1/2. The vote column alone would
        # send on edges 0 -> 1 (round 1), 1 -> 2 (2) and 2 -> 3 (3), the
        # step column alone on every edge in round 1 and on those three
        # edges in the same rounds: 8 messages, not 3 + 8
        c = chain_coupling(4)
        sched = RoundScheduler(c)
        rows = [[0.0, 0.5], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
        assert min_consensus(sched, rows) == (0.0, 0.5)
        assert sched.rounds_by_kind == {KIND_MIN: 3}
        np.testing.assert_array_equal(sched.sent_by_kind[KIND_MIN], [1, 3, 3, 1])
        assert sched.total_sent == 8

    @PROPERTY
    @given(c=st.one_of(shaped_coupling(), LONG_CHAINS), width=st.integers(1, 2),
           data=st.data())
    def test_columns_rounds_and_tallies_of_a_masked_network(self, c, width, data):
        # column 0 is a vote, False as 0.0 below True as 1.0, as the Newton
        # iteration floods it with its steps
        flags = np.array(data.draw(flood_starts(KIND_FLAG, c.n_agents)), dtype=bool)
        steps = np.column_stack([data.draw(flood_starts(KIND_MIN, c.n_agents))
                                 for _ in range(width)])
        rows = np.column_stack((flags.astype(float), steps))
        sched = RoundScheduler(c)
        got = min_consensus(sched, rows)
        assert sched.round_index == sched.rounds_by_kind[KIND_MIN] == sched.diameter
        # each column's result is a flood of that column alone, bit for bit
        assert len(got) == 1 + width
        for value, column in zip(got, rows.T):
            alone = min_consensus(RoundScheduler(c), column)
            want = recomputing_flood(c, column, np.minimum)
            assert np.float64(value).tobytes() == np.float64(alone).tobytes() == want.tobytes()
        # per edge, the masked reference's rounds in which any column is news
        _, messages, _, news = news_flood(c, rows, np.minimum, np.inf)
        fused = news.any(axis=2).sum(axis=0)
        np.testing.assert_array_equal(sched._edge_messages(KIND_MIN), fused)
        np.testing.assert_array_equal(sched.sent_by_kind[KIND_MIN], messages)
        # with True as its identity, the vote column is news where the
        # early-deciding AND sends; the steps where their own flood sends;
        # a round in which both are news is one message
        news = news_flood(c, rows, np.minimum, [1.0] + [np.inf] * width)[3]
        vote, step = news[:, :, 0], news[:, :, 1:].any(axis=2)
        separate = RoundScheduler(c)
        all_agree(separate, flags)
        and_edges = separate._edge_messages(KIND_FLAG)
        np.testing.assert_array_equal(vote.sum(axis=0), and_edges)
        np.testing.assert_array_equal(
            np.bincount(sched.plan.edge_src, and_edges, c.n_agents), deciding_flood(c, flags)[1])
        min_consensus(separate, steps)
        min_edges = separate._edge_messages(KIND_MIN)
        np.testing.assert_array_equal(step.sum(axis=0), min_edges)
        np.testing.assert_array_equal(fused, and_edges + min_edges - (vote & step).sum(axis=0))
        assert (fused <= and_edges + min_edges).all()


STAR_EDGES = [(0, 1), (0, 2), (0, 3)]


class TestCarriedVote:
    """A failed convergence AND is relayed by the next exchange's data: an
    agent sends its data in the round after the first data reach it, and
    the exchange averages the bits of a plain one."""

    @pytest.mark.parametrize("n, edges, flags, rounds", [
        # agent i learns from agent i - 1's data in round i and sends its
        # own in round i + 1
        (16, [(i, i + 1) for i in range(15)], [False] + [True] * 15, 16),
        # the fronts meet at agents 2 and 3, which send in round 3
        (6, CHAIN_EDGES, [False, True, True, True, True, False], 3),
        # every agent holds False: round 1 carries all the data
        (6, CHAIN_EDGES, [False] * 6, 1),
        # the centre's data reaches every leaf in round 1
        (4, STAR_EDGES, [False, True, True, True], 2),
        # a leaf's reaches the centre in round 1, the other leaves in round 2
        (4, STAR_EDGES, [True, False, True, True], 3),
    ], ids=["chain-one-end", "chain-both-ends", "all-false", "star-centre", "star-leaf"])
    def test_by_hand(self, n, edges, flags, rounds):
        c = coupling_from_graph(n, edges)
        sched = RoundScheduler(c)
        flat = np.arange(float(c.offsets[-1]))
        assert all_agree(sched, flags, carry=True) is False
        assert sched.round_index == 0
        out = exchange_shared_components(sched, flat, vote=flags)
        assert out.tobytes() == exchange_shared_components(RoundScheduler(c), flat).tobytes()
        assert sched.rounds_by_kind == {KIND_SHARED: rounds} == {KIND_SHARED: relay_rounds(
            c, np.array(flags))}
        # each directed edge carries one data message, and no flag
        assert sched.sent_by_kind.keys() == {KIND_SHARED}
        np.testing.assert_array_equal(sched.sent_by_kind[KIND_SHARED], sched.plan.out_degree)
        assert sched.total_sent == sched.plan.n_edges == 2 * len(edges)

    def test_an_all_true_vote_is_flooded_at_once(self):
        c = grid(6, None)
        sched = RoundScheduler(c)
        assert all_agree(sched, [True] * c.n_agents, carry=True) is True
        assert sched.rounds_by_kind == {KIND_FLAG: sched.diameter} and sched.total_sent == 0

    def test_a_single_agent_votes_and_exchanges_without_rounds(self):
        sched = RoundScheduler(coupling_for([(0, 1, 2)], 3))
        assert all_agree(sched, [False], carry=True) is False
        out = exchange_shared_components(sched, np.array([1.0, 2.0, 3.0]), vote=[False])
        assert out.tolist() == [1.0, 2.0, 3.0]
        assert sched.round_index == 0 and sched.total_sent == 0

    def test_disconnected_graph_raises_at_the_vote(self):
        sched = RoundScheduler(coupling_for([(0, 1), (1, 2), (3, 4), (4, 5)], 6))
        with pytest.raises(DisconnectedNetworkError):
            all_agree(sched, [False, True, True, True], carry=True)
        with pytest.raises(DisconnectedNetworkError):
            exchange_shared_components(sched, np.zeros(8), vote=[False, True, True, True])
        assert sched.round_index == 0

    @PROPERTY
    @given(c=st.one_of(shaped_coupling(), LONG_CHAINS),
           data=st.data())
    def test_rounds_are_one_more_than_the_distance_from_a_false_agent(self, c, data):
        flags = np.array(data.draw(flood_starts(KIND_FLAG, c.n_agents)), dtype=bool)
        size = int(c.offsets[-1])
        flat = np.array(data.draw(st.lists(FINITE, min_size=size, max_size=size)))
        sched = RoundScheduler(c)
        outcome = all_agree(sched, flags.tolist(), carry=True)
        assert outcome is all(flags)
        if outcome:
            # an all-True vote sends no data: nothing follows it
            assert sched.rounds_by_kind == {KIND_FLAG: sched.diameter}
            assert sched.total_sent == 0
            return
        assert sched.round_index == 0
        got = exchange_shared_components(sched, flat, vote=flags)
        want = exchange_shared_components(RoundScheduler(c), flat)
        assert got.tobytes() == want.tobytes()
        assert sched.rounds_by_kind == {KIND_SHARED: relay_rounds(c, flags)}
        # never more rounds than the flag flood and a data round after it
        assert relay_rounds(c, flags) <= deciding_flood(c, flags)[2] + 1
        np.testing.assert_array_equal(sched.sent_by_kind[KIND_SHARED], sched.plan.out_degree)
        assert sched.total_sent == sched.messages_of_kind(KIND_SHARED) == sched.plan.n_edges


# n_agents -> (rounds by kind, messages, outer iterations, inner iterations)
# of ``random_qp(0, n_agents, 3, overlap=1, n_eq=1)``: no golden trace
# records rounds, so a change of protocol would otherwise move them unseen.
# Every outer iteration floods its decrement vote with its steps, diameter
# MIN rounds, and every direction ends with an all-True splitting vote,
# diameter flag rounds
PINNED_CHAINS = {
    5: ({KIND_SHARED: 74, KIND_FLAG: 8, KIND_MIN: 8}, 424, 2, 51),
    16: ({KIND_SHARED: 471, KIND_FLAG: 150, KIND_MIN: 150}, 3114, 10, 89),
    50: ({KIND_SHARED: 16852, KIND_FLAG: 1911, KIND_MIN: 1911}, 101058, 39, 961),
    # relays that run the chain's length
    200: ({KIND_SHARED: 72039, KIND_FLAG: 19502, KIND_MIN: 19502}, 420021, 98, 838),
}


@pytest.mark.parametrize("n_agents", sorted(PINNED_CHAINS))
def test_rounds_and_messages_of_a_chain_solve_are_pinned(n_agents):
    problem, x0 = random_qp(0, n_agents, 3, overlap=1, n_eq=1)
    result, sched = solve_newton(problem, x0, SolverConfig())
    counts = (sched.rounds_by_kind, sched.total_sent, len(result.rows),
              sum(row.inner_iterations for row in result.rows))
    assert counts == PINNED_CHAINS[n_agents]
    assert sched.round_index == sum(sched.rounds_by_kind.values())
    assert sched.rounds_by_kind[KIND_MIN] == sched.diameter * len(result.rows)


def spd_problem_on(c, rng):
    """Random strongly convex quadratic blocks on the index sets of ``c``."""
    blocks = []
    for idx in c.index_arrays:
        M = rng.standard_normal((len(idx), len(idx)))
        blocks.append(AgentBlock(index_set=tuple(idx.tolist()), objective=QuadraticFunction(
            M @ M.T + 0.5 * np.eye(len(idx)), rng.standard_normal(len(idx)))))
    return LooselyCoupledProblem(n=c.n, blocks=tuple(blocks))


def shaped_instances(count):
    """``count`` seeded (shape, problem, x0) triples per shape, sizes 2 to 9."""
    for shape, make in SHAPES.items():
        for seed in range(count):
            rng = np.random.default_rng(seed)
            prob = spd_problem_on(make(2 + seed % 8, rng), rng)
            yield shape, prob, rng.standard_normal(prob.n)


class TestShapedSolves:
    def test_direction_matches_the_dense_oracle(self):
        # criterion 1's tolerance, on couplings the generator does not produce
        shapes = set()
        for shape, prob, x0 in shaped_instances(10):
            c = build_coupling(prob)
            s0 = scatter(x0, c)
            ws = DirectionWorkspace(plain_stage(prob), np.concatenate(s0), c, SolverConfig())
            res = compute_direction(ws, RoundScheduler(c))
            assert res.converged
            _, dx_ref = direct_direction(prob, s0, c)
            assert np.abs(res.dz - dx_ref[c.flat_index]).max() <= 1e-5, shape
            shapes.add(shape)
        assert shapes == set(SHAPES)

    def test_newton_matches_the_centralized_objective(self):
        for shape, prob, x0 in shaped_instances(5):
            result, _ = solve_newton(prob, x0, SolverConfig(eps_nt=1e-8))
            dense = assemble_dense(prob)
            x_ref = centralized_newton(dense, x0, eps_nt=1e-8)
            assert abs(dense.value(result.x) - dense.value(x_ref)) <= 1e-6, shape

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_barrier_solve_meets_the_gap_bound(self, shape):
        # six agents (a 2 x 3 grid), each with one halfspace strictly feasible
        # at x0, and on each even agent with two entries or more one equality
        # row through x0; every solve runs at least three stages, so from the
        # third on the point and the splitting duals start extrapolated along
        # the central path
        rng = np.random.default_rng(0)
        prob = spd_problem_on(SHAPES[shape](6, rng), rng)
        x0 = rng.standard_normal(prob.n)
        blocks = []
        for i, blk in enumerate(prob.blocks):
            d, s0 = len(blk.index_set), x0[list(blk.index_set)]
            a = rng.standard_normal(d)
            halfspace = QuadraticFunction(np.zeros((d, d)), a, -(a @ s0) - rng.uniform(0.2, 1.0))
            A = rng.standard_normal((1, d)) if i % 2 == 0 and d >= 2 else None
            blocks.append(replace(blk, inequality=(halfspace,), A_eq=A,
                                  b_eq=None if A is None else A @ s0))
        prob = LooselyCoupledProblem(n=prob.n, blocks=tuple(blocks))
        assert any(blk.A_eq is not None for blk in prob.blocks)
        result, sched = solve_ipm(prob, x0, SolverConfig())
        assert result.rows[-1].stage >= 2
        dense = assemble_dense(prob)
        x_ref = centralized_ipm(dense, x0, eps_p=1e-9, eps_nt=1e-10)
        gap = dense.value(result.x) - dense.value(x_ref)
        assert abs(gap) <= prob.m_total / result.t_final + 1e-6
        for blk, s in zip(prob.blocks, np.split(result.s, sched.coupling.offsets[1:-1])):
            if blk.A_eq is not None:
                assert np.abs(blk.A_eq @ s - blk.b_eq).max() <= 1e-9
        assert result.max_dual_average <= 1e-10
        assert result.max_consistency_error == 0.0
        assert consistency_error(result.s, sched.coupling) == 0.0
