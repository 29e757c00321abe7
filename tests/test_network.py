"""Message-passing simulation: exchange, consensus, accounting, locality.

The shaped couplings at the end also carry the direction and Newton
oracle checks, the only tests that run the solver off a chain.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from dipm.config import SolverConfig
from dipm.direction import DirectionWorkspace, compute_direction
from dipm.errors import DisconnectedNetworkError, StructureError
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
from dipm.oracle import assemble_dense, centralized_newton, direct_direction
from dipm.problem import (
    AgentBlock,
    LooselyCoupledProblem,
    QuadraticFunction,
    build_coupling,
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
        out = exchange_shared_components(
            sched, [np.array([1.0, 2.0]), np.array([4.0, 6.0])]
        )
        assert out[0].tolist() == [1.0, 3.0]
        assert out[1].tolist() == [3.0, 6.0]
        assert sched.total_sent == 2
        assert sched.messages_of_kind(KIND_SHARED) == 2
        assert sched.total_delivered == sched.total_sent

    def test_decoupled_exchange_no_messages(self):
        c = coupling_for([(0,), (1,)], 2)
        sched = RoundScheduler(c)
        contributions = [np.array([5.0]), np.array([-3.0])]
        out = exchange_shared_components(sched, contributions)
        assert sched.total_sent == 0
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
            out = exchange_shared_components(sched, contributions)
            z = gather_average(contributions, c)
            expected = scatter(z, c)
            for got, want in zip(out, expected):
                np.testing.assert_array_equal(got, want)

    def test_sends_exactly_neighbor_count(self):
        c = coupling_for([(0, 1), (1, 2), (2, 3), (1, 3)], 4)
        sched = RoundScheduler(c)
        exchange_shared_components(sched, [np.zeros(2)] * 4)
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
        assert sched.total_sent == 0 and sched.round_index == 0

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
        exchange_shared_components(sched, contributions)
        assert [kind for kind, _ in sent] == [KIND_SHARED]
        payload = sent[0][1]
        plan = sched.plan
        assert plan.n_edges > 0
        for e, (src, dst) in enumerate(zip(plan.edge_src.tolist(), plan.edge_dst.tolist())):
            seg = slice(plan.seg_start[e], plan.seg_start[e + 1])
            g = plan.seg_global[seg]
            assert g.size > 0
            assert set(g.tolist()) <= set(blocks[src]) & set(blocks[dst])
            local = [c.global_to_local[src][j] for j in g.tolist()]
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
        assert not sched.is_connected
        with pytest.raises(DisconnectedNetworkError):
            all_agree(sched, [True, True])
        with pytest.raises(DisconnectedNetworkError):
            min_consensus(sched, [1.0, 2.0])

    def test_nonfinite_consensus_value_rejected(self):
        sched = RoundScheduler(chain_coupling(2))
        with pytest.raises(StructureError, match="finite"):
            min_consensus(sched, [1.0, float("nan")])


class TestAccounting:
    def test_conservation_every_kind(self):
        sched = RoundScheduler(chain_coupling(4))
        exchange_shared_components(sched, [np.zeros(2)] * 4)
        all_agree(sched, [True] * 4)
        min_consensus(sched, [1.0, 2.0, 3.0, 4.0])
        assert sched.total_sent == sched.total_delivered
        total = sum(
            sched.messages_of_kind(k) for k in (KIND_SHARED, KIND_FLAG, KIND_MIN)
        )
        assert total == sched.total_sent

    def test_deterministic_counters(self):
        def run():
            sched = RoundScheduler(chain_coupling(5))
            exchange_shared_components(sched, [np.arange(2.0)] * 5)
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
        out = exchange_shared_components(RoundScheduler(c), contributions)
        expected = scatter(gather_average(contributions, c), c)
        for got, want in zip(out, expected):
            assert np.array_equal(got, want)

    @PROPERTY
    @given(c=shaped_coupling(), data=st.data())
    def test_flooding_is_global_and_min_in_diameter_rounds(self, c, data):
        sched = RoundScheduler(c)
        adjacency = np.zeros((c.n_agents, c.n_agents))
        for i, ne in enumerate(c.neighbors):
            adjacency[i, list(ne)] = 1.0
        assert sched.diameter == int(shortest_path(adjacency, unweighted=True).max())
        flags = per_agent(data, c, st.booleans())
        values = per_agent(data, c, FINITE)
        assert all_agree(sched, flags) == all(flags)
        assert sched.round_index == sched.diameter
        assert min_consensus(sched, values) == min(values)
        assert sched.round_index == 2 * sched.diameter

    @PROPERTY
    @given(c=shaped_coupling())
    def test_per_agent_messages_are_rounds_times_degree(self, c):
        sched = RoundScheduler(c)
        exchange_shared_components(sched, [np.ones(len(idx)) for idx in c.index_arrays])
        all_agree(sched, [True] * c.n_agents)
        min_consensus(sched, [1.0] * c.n_agents)
        degree = np.array([len(ne) for ne in c.neighbors])
        rounds = {KIND_SHARED: 1, KIND_FLAG: sched.diameter, KIND_MIN: sched.diameter}
        for kind, r in rounds.items():
            np.testing.assert_array_equal(sched.sent_by_kind[kind], r * degree)
        np.testing.assert_array_equal(sched.sent, (1 + 2 * sched.diameter) * degree)


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
            ws = DirectionWorkspace(plain_stage(prob), s0, c, SolverConfig())
            res = compute_direction(ws, RoundScheduler(c))
            assert res.converged
            _, dx_ref = direct_direction(prob, s0, c)
            assert np.abs(res.dx - dx_ref).max() <= 1e-5, shape
            shapes.add(shape)
        assert shapes == set(SHAPES)

    def test_newton_matches_the_centralized_objective(self):
        for shape, prob, x0 in shaped_instances(5):
            result, _ = solve_newton(prob, x0, SolverConfig(eps_nt=1e-8))
            dense = assemble_dense(prob)
            x_ref = centralized_newton(dense, x0, eps_nt=1e-8)
            assert abs(dense.value(result.x) - dense.value(x_ref)) <= 1e-6, shape
