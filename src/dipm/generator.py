"""Seeded random families of strongly convex loosely coupled QPs."""

import numpy as np

from .problem import AgentBlock, LooselyCoupledProblem, QuadraticFunction


def _random_spd(rng, dim, spectrum):
    lo, hi = spectrum
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(lo, hi, size=dim)
    return (Q * eigs) @ Q.T


def random_qp(seed, n_agents=4, block_size=3, overlap=1, n_ineq=0, n_eq=0,
              spectrum=(0.5, 3.0)):
    """Random chain-coupled QP with a strictly feasible starting point.

    Agents cover consecutive windows of the global variable, each sharing
    ``overlap`` entries with its predecessor. Objectives are strongly
    convex quadratics with eigenvalues drawn from ``spectrum``. Optional
    inequality constraints (alternating halfspaces and balls) are generated
    with positive margin at the starting point, and optional equality rows
    are generated to hold exactly there, so the returned x0 is strictly
    feasible by construction.

    Returns (problem, x0).
    """
    if n_agents < 1 or block_size < 1:
        raise ValueError("need at least one agent and a positive block size")
    if n_agents > 1 and not 1 <= overlap < block_size:
        raise ValueError("overlap must lie in [1, block_size) for coupled chains")
    if n_eq >= block_size:
        raise ValueError("equality rows must be fewer than the block size")

    rng = np.random.default_rng(seed)
    stride = block_size - overlap if n_agents > 1 else block_size
    n = stride * (n_agents - 1) + block_size
    x0 = rng.standard_normal(n)

    blocks = []
    for i in range(n_agents):
        start = i * stride
        idx = tuple(range(start, start + block_size))
        P = _random_spd(rng, block_size, spectrum)
        q = rng.standard_normal(block_size)
        r = 0.1 * rng.standard_normal()
        s0 = x0[list(idx)]

        ineqs = []
        for c in range(n_ineq):
            margin = rng.uniform(0.2, 1.0)
            if c % 2 == 0:
                a = rng.standard_normal(block_size)
                a /= max(np.linalg.norm(a), 1e-12)
                const = -(a @ s0) - margin
                ineqs.append(QuadraticFunction(np.zeros((block_size, block_size)), a, const))
            else:
                radius = rng.uniform(1.0, 2.0)
                center = s0 + rng.uniform(-0.3, 0.3, size=block_size)
                # 1/2 |s - center|^2 - 1/2 radius^2 <= 0, strictly inside at s0
                const = 0.5 * float(center @ center) - 0.5 * radius**2
                ineqs.append(QuadraticFunction(np.eye(block_size), -center, const))

        A = b = None
        if n_eq:
            A = rng.standard_normal((n_eq, block_size))
            b = A @ s0

        blocks.append(AgentBlock(index_set=idx, objective=QuadraticFunction(P, q, r),
                                 inequality=tuple(ineqs), A_eq=A, b_eq=b))

    return LooselyCoupledProblem(n=n, blocks=tuple(blocks)), x0


def random_direction_instance(seed, max_agents=10, max_block=5):
    """Instance family for direction-equivalence sweeps.

    Varies agent count, block size, and overlap with the seed while keeping
    every overlap at least one variable wide.
    """
    rng = np.random.default_rng(seed)
    n_agents = int(rng.integers(2, max_agents + 1))
    block_size = int(rng.integers(2, max_block + 1))
    overlap = int(rng.integers(1, block_size))
    return random_qp(seed, n_agents=n_agents, block_size=block_size, overlap=overlap)
