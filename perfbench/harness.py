"""Measurement loop: set-up, timed solves, oracle checks and metrics.

One run measures one workload in one process, one solve at a time (a
closed loop with a single client). The family is the instances with seeds
``0 .. family_size - 1``; the run's ``seed`` fixes the order in which each
pass visits them (NOTES.md says why the family itself does not move). The
timed phase solves the whole family in passes, at least the workload's
``passes`` of them and until ``seconds`` have elapsed; the timing metrics use
exactly the first ``passes`` passes, so they do not depend on how fast the
code is. Later passes only check that every count and result repeats.

End-to-end metrics come from untraced solves only. The traced run solves
the family once untraced and once traced, requires every count and every
result to match bit for bit, and derives the per-layer metrics from the
traced pass.
"""

import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import dipm.linalg
from dipm import RoundScheduler, build_coupling
from dipm.network import KIND_FLAG, KIND_MIN, KIND_SHARED

from tracing import DELIVER, ROOT, Recorder, tracing
from workloads import solve

# set-ups timed before the timed phase; one more is timed after each pass
SETUP_REPEATS = 5
KINDS = (KIND_FLAG, KIND_MIN, KIND_SHARED)
# solve times are taken per chunk of this many network rounds (about 1-5 ms)
CHUNK_ROUNDS = 32

# workload and metric names, units and print order, as BENCHMARK.json declares them
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SPEC_WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

# printed with the end-to-end table but not gated: it is zero on a good run
TABLE_ONLY = (("fail_rate", "ratio"),)

# per-layer counters read from public solver state; the untraced table shows them too
PUBLIC_LAYER = (
    "generator.s", "problem.build_coupling_s", "network.scheduler_init_s",
    "network.flag_messages", "network.min_messages", "network.shared_messages",
    "linalg.factorizations", "direction.inner_iters_per_direction",
    "direction.unconverged", "newton.full_step_ratio", "barrier.stages_per_solve",
    "oracle.solve_s", "oracle.worst_margin",
)


@dataclass
class Instance:
    seed: int
    problem: object
    x0: np.ndarray
    coupling: object
    scheduler: RoundScheduler

    @property
    def sends_per_exchange(self):
        """Messages in one shared-component round: one per agent per neighbour."""
        return sum(len(ne) for ne in self.coupling.neighbors)

    @property
    def floats_per_exchange(self):
        """Floats in one shared-component round: |J_i & J_j| per message i -> j."""
        sets = [set(idx.tolist()) for idx in self.coupling.index_arrays]
        return sum(len(sets[i] & sets[j])
                   for i, ne in enumerate(self.coupling.neighbors) for j in ne)


class ClockedScheduler(RoundScheduler):
    """``RoundScheduler`` that notes the clock after every ``CHUNK_ROUNDS`` rounds.

    Solves repeat bit for bit, so in every pass over an instance the marks
    fall at the same points of its work, and the time between two marks is
    the time of the same chunk of work.
    """

    def start_clock(self):
        self.marks = [time.perf_counter()]
        self._rounds = 0

    def deliver_round(self, outgoing, kind):
        inboxes = super().deliver_round(outgoing, kind)
        self._rounds += 1
        if self._rounds == CHUNK_ROUNDS:
            self._rounds = 0
            self.marks.append(time.perf_counter())
        return inboxes


@dataclass
class SolveRecord:
    seed: int
    wall: float
    segments: list  # wall time of each chunk of CHUNK_ROUNDS rounds, then of the rest
    error: str
    x: np.ndarray
    t_final: float
    rounds: int
    messages: int
    by_kind: dict
    factorizations: int
    outer: int
    inner: int
    steps: int
    full_steps: int
    stages: int
    ok: bool = False
    margin: float = float("nan")

    def counts(self):
        return (self.rounds, self.messages, tuple(sorted(self.by_kind.items())),
                self.factorizations, self.outer, self.inner, self.steps,
                self.full_steps, self.stages)

    def same_as(self, other):
        same_x = (self.x is None and other.x is None) or (
            self.x is not None and other.x is not None and np.array_equal(self.x, other.x))
        return self.counts() == other.counts() and same_x and self.error == other.error


@dataclass
class Report:
    workload: str
    order: list
    trace: bool
    env: dict
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    table: list = field(default_factory=list)  # (name, value, unit, note)
    failures: list = field(default_factory=list)  # (seed, detail)
    problems: list = field(default_factory=list)  # benchmark self-check failures
    attempted: int = 0
    recorder: Recorder = None

    @property
    def failed(self):
        return len(self.failures)

    @property
    def correct(self):
        return not self.failures and not self.problems


def family_order(workload, seed, family_size=None):
    """The family's instance seeds in the order the run's passes visit them."""
    k = family_size or workload.family_size
    return [int(s) for s in np.random.default_rng(seed).permutation(k)]


def time_import():
    """Time a fresh ``import dipm``, then put back the modules in use.

    numpy and scipy are already imported: their import time is the host's,
    not the solver's.
    """
    def ours():
        return [m for m in sys.modules if m == "dipm" or m.startswith("dipm.")]

    in_use = {name: sys.modules.pop(name) for name in ours()}
    t0 = time.perf_counter()
    importlib.import_module("dipm")
    elapsed = time.perf_counter() - t0
    for name in ours():
        del sys.modules[name]
    sys.modules.update(in_use)
    return elapsed


def set_up(make, seeds):
    """Generate the instances and their coupling and scheduler; return parts' times."""
    clock = time.perf_counter
    t0 = clock()
    made = [make(s) for s in seeds]
    t1 = clock()
    couplings = [build_coupling(p) for p, _ in made]
    t2 = clock()
    schedulers = [ClockedScheduler(c) for c in couplings]
    t3 = clock()
    instances = [Instance(s, p, x0, c, sch)
                 for s, (p, x0), c, sch in zip(seeds, made, couplings, schedulers)]
    return instances, (t1 - t0, t2 - t1, t3 - t2)


def solve_one(workload, inst):
    """Solve one instance; a raising solve is recorded, never dropped."""
    sched = inst.scheduler
    r0, m0 = sched.round_index, sched.total_sent
    k0 = {k: sched.messages_of_kind(k) for k in KINDS}
    f0 = dipm.linalg.factorization_count()
    x = t_final = error = None
    rows = []
    sched.start_clock()
    try:
        x, t_final = solve(workload, inst.problem, inst.x0, inst.coupling, sched, rows)
    except Exception as exc:  # the run goes on; the failure is listed with its seed
        error = f"{type(exc).__name__}: {exc}"
    marks = sched.marks + [time.perf_counter()]
    wall = marks[-1] - marks[0]
    steps = [r.alpha for r in rows if r.alpha > 0.0]
    return SolveRecord(
        seed=inst.seed, wall=wall, segments=list(np.diff(marks)), error=error, x=x,
        t_final=t_final,
        rounds=sched.round_index - r0, messages=sched.total_sent - m0,
        by_kind={k: sched.messages_of_kind(k) - k0[k] for k in KINDS},
        factorizations=dipm.linalg.factorization_count() - f0,
        outer=len(rows), inner=sum(r.inner_iterations for r in rows),
        steps=len(steps), full_steps=sum(a == 1.0 for a in steps),
        stages=len({r.stage for r in rows}) if workload.uses_barrier else 0,
    )


def check(workload, inst, rec, ref):
    """Fill in rec.ok / rec.margin; return a failure detail or None."""
    if rec.error is not None:
        return rec.error
    if isinstance(ref, str):
        return f"oracle failed: {ref}"
    verdict = workload.check(inst.problem, inst.coupling, rec.x, rec.t_final, ref)
    rec.margin = verdict.margin
    expected = inst.problem.n_agents * rec.outer
    if rec.factorizations != expected:
        return (f"{rec.factorizations} factorizations for {rec.outer} directions of "
                f"{inst.problem.n_agents} agents (expected {expected})")
    if not verdict.ok:
        return f"oracle check missed: {verdict.detail}"
    rec.ok = True
    return None


def references(workload, instances):
    """Oracle reference per instance (or the error text) and the time each took."""
    refs, times = {}, []
    for inst in instances:
        t0 = time.perf_counter()
        try:
            refs[inst.seed] = workload.reference(inst.problem, inst.x0)
        except Exception as exc:  # reported as a failed check of every solve of it
            refs[inst.seed] = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
    return refs, times


def _mean(values):
    return sum(values) / len(values)


def run(workload, seed, seconds, trace, family_size=None, make=None, env=None):
    """Measure one workload; ``make`` overrides the instance generator (self-test)."""
    make = make or workload.make
    order = family_order(workload, seed, family_size)
    report = Report(workload.name, order, trace, env or {})

    setups = []  # per repeat: import, generation, coupling and scheduler times

    def timed_set_up():
        import_s = time_import()
        instances, parts = set_up(make, order)
        setups.append((import_s, *parts))
        return instances

    for _ in range(SETUP_REPEATS):
        instances = timed_set_up()

    warm, _ = set_up(workload.make_tiny, [seed])
    solve_one(workload, warm[0])

    if trace:
        records = [solve_one(workload, inst) for inst in instances]
        recorder = Recorder()
        root = recorder.wrap(solve_one, ROOT)
        traced = []
        with tracing(recorder):
            for sid, inst in enumerate(instances):
                recorder.solve_id = sid
                traced.append(root(workload, inst))
        report.recorder = recorder
    else:
        # whole passes only, so every run of a seed times the same mix of instances
        records = []
        t_start = time.perf_counter()
        while (len(records) < workload.passes * len(instances)
               or time.perf_counter() - t_start < seconds):
            records += [solve_one(workload, inst) for inst in instances]
            timed_set_up()  # spreads the set-up repeats over the run

    # like the solve times, set-up times are the best of their repeats
    parts = [min(column) for column in zip(*setups)]
    setup_totals = [sum(row) for row in setups]

    refs, oracle_times = references(workload, instances)
    by_seed = {inst.seed: inst for inst in instances}
    checked = records + (traced if trace else [])
    for rec in checked:
        detail = check(workload, by_seed[rec.seed], rec, refs[rec.seed])
        if detail is not None:
            report.failures.append((rec.seed, detail))
    report.attempted = len(checked)

    n = len(instances)
    first = records[:n]
    for j, rec in enumerate(records[n:]):
        if not rec.same_as(first[j % n]):
            report.problems.append(f"seed {rec.seed}: repeated solve differs from the first")
    if trace:
        for a, b in zip(first, traced):
            if not a.same_as(b):
                report.problems.append(f"seed {a.seed}: traced solve differs from untraced "
                                       f"({a.counts()} vs {b.counts()})")

    margins = [r.margin for r in checked if not np.isnan(r.margin)]
    directions = sum(r.outer for r in first)
    steps = sum(r.steps for r in first)
    layer = {
        "generator.s": parts[1],
        "problem.build_coupling_s": parts[2],
        "network.scheduler_init_s": parts[3],
        "network.flag_messages": _mean([r.by_kind[KIND_FLAG] for r in first]),
        "network.min_messages": _mean([r.by_kind[KIND_MIN] for r in first]),
        "network.shared_messages": _mean([r.by_kind[KIND_SHARED] for r in first]),
        "linalg.factorizations": _mean([r.factorizations for r in first]),
        "direction.inner_iters_per_direction":
            sum(r.inner for r in first) / directions if directions else 0.0,
        "direction.unconverged": sum(
            1 for r in checked
            if r.error is not None and r.error.startswith("DirectionConvergenceError")),
        "newton.full_step_ratio": sum(r.full_steps for r in first) / steps if steps else 0.0,
        "barrier.stages_per_solve": _mean([r.stages for r in first]),
        "oracle.solve_s": _mean(oracle_times),
        "oracle.worst_margin": max(margins) if margins else float("nan"),
    }

    if trace:
        layer.update(_traced_layer(recorder, instances, records, traced, report))
        for name, unit in PER_LAYER:
            report.metrics[name] = (layer[name], unit)
        report.table = [(name, value, unit, "") for name, (value, unit) in report.metrics.items()]
        return report

    # every pass repeats each chunk of each solve exactly, so an instance's
    # time is the sum over its chunks of the fastest of that chunk's timings in
    # the first ``passes`` passes: a chunk takes milliseconds, passes are
    # seconds apart, and the fastest timing is the one least slowed by other
    # tenants of the host
    timed = records[:workload.passes * n]
    best = [sum(map(min, zip(*(r.segments for r in timed[i::n])))) for i in range(n)]
    best_whole = [min(r.wall for r in timed[i::n]) for i in range(n)]
    clean = sum(all(r.ok for r in timed[i::n]) for i in range(n))
    passed = sum(r.ok for r in records)
    e2e = {
        "setup_s": min(setup_totals),
        "solves_per_s": clean / sum(best),
        "solve_s_p50": statistics.median(best),
        "rounds_per_solve": _mean([r.rounds for r in first]),
        "messages_per_solve": _mean([r.messages for r in first]),
        "outer_iters_per_solve": _mean([r.outer for r in first]),
        "inner_iters_per_solve": _mean([r.inner for r in first]),
        "pass_rate": passed / len(records),
        "fail_rate": 1.0 - passed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, unit in END_TO_END:
        report.metrics[name] = (e2e[name], unit)
    walls = [r.wall for r in timed]
    notes = {
        "setup_s": f"best of {len(setups)} set-ups, {parts[0]:.4g} s of it the import; "
                   f"median {statistics.median(setup_totals):.4g} s",
        "solve_s_p50": f"n={n} instances, best of {workload.passes} per {CHUNK_ROUNDS}-round chunk; best whole solve "
                       f"{statistics.median(best_whole):.4g} s; "
                       f"median of all {len(walls)} timed solves {statistics.median(walls):.4g} s",
        "solves_per_s": f"{len(walls)} timed solves in {sum(walls):.2f} s "
                        f"({len(records)} solved in all)",
    }
    report.table = [(name, e2e[name], unit, notes.get(name, ""))
                    for name, unit in END_TO_END + TABLE_ONLY]
    units = dict(PER_LAYER)
    report.table += [(name, layer[name], units[name], "") for name in PUBLIC_LAYER]
    return report


def _traced_layer(recorder, instances, untraced, traced, report):
    """Per-layer metrics of the traced pass, per solve."""
    spans = recorder.summary()
    n = len(traced)

    def count(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    delivers = sum(count(v) for v in DELIVER.values())
    rounds = sum(r.rounds for r in traced)
    if delivers != rounds:
        report.problems.append(f"{delivers} traced deliveries but {rounds} rounds counted")
    if count(ROOT) != n:
        report.problems.append(f"{count(ROOT)} solve spans for {n} solves")
    inner = sum(r.inner for r in traced)
    shared_floats = sum(r.by_kind[KIND_SHARED] // inst.sends_per_exchange
                        * inst.floats_per_exchange
                        for inst, r in zip(instances, traced) if inst.sends_per_exchange)
    return {
        "network.flag_rounds": count(DELIVER[KIND_FLAG]) / n,
        "network.min_rounds": count(DELIVER[KIND_MIN]) / n,
        "network.shared_rounds": count(DELIVER[KIND_SHARED]) / n,
        "network.shared_floats": shared_floats / n,
        "network.flag_s": total("network.flag") / n,
        "network.min_s": total("network.min") / n,
        "network.exchange_s": total("network.exchange") / n,
        "network.deliver_self_s": sum(own(v) for v in DELIVER.values()) / n,
        "linalg.factor_spd_s": total("linalg.factor_spd") / n,
        "linalg.factor_kkt_s": total("linalg.factor_kkt") / n,
        "linalg.solve_calls": (count("linalg.spd_solve") + count("linalg.kkt_solve")) / n,
        "linalg.spd_solve_s": total("linalg.spd_solve") / n,
        "linalg.kkt_solve_s": total("linalg.kkt_solve") / n,
        "direction.s": total("direction.compute") / n,
        "direction.self_s": own("direction.compute") / n,
        "direction.prox_self_s": own("direction.prox") / n,
        "direction.workspace_self_s": own("direction.workspace") / n,
        "direction.us_per_inner_iter":
            1e6 * total("direction.compute") / inner if inner else 0.0,
        "problem.gather_average_s": total("problem.gather_average") / n,
        "newton.line_search_s": total("newton.line_search") / n,
        "newton.decrement_s": total("newton.decrement") / n,
        "newton.self_s": own("newton.solve") / n,
        "barrier.calculus_calls": count("barrier.calculus") / n,
        "barrier.calculus_s": total("barrier.calculus") / n,
        "bench.trace_overhead":
            sum(r.wall for r in traced) / sum(r.wall for r in untraced),
    }


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
