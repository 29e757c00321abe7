"""Span recording around the library's layer boundaries, from outside it.

Nothing in ``dipm`` is edited: each traced function is replaced, for the
duration of a ``with tracing(recorder):`` block, at the place its caller
looks it up. Names bound by ``from .x import y`` are wrapped in the
importing module, ``linalg.factor_*`` on the ``linalg`` module (callers go
through the module attribute), and methods on their classes.

Spans live in flat arrays in memory (name code, start, end, parent span,
solve id) and are written out once, after the traced pass.
"""

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

from dipm.network import KIND_FLAG, KIND_MIN, KIND_SHARED

ROOT = "bench.solve"
DELIVER = {
    KIND_SHARED: "network.deliver.shared",
    KIND_FLAG: "network.deliver.flag",
    KIND_MIN: "network.deliver.min",
}

# (owner, attribute, span name); owner is a module name or "module:Class"
WRAPPED = (
    ("dipm.direction", "all_agree", "network.flag"),
    ("dipm.direction", "exchange_shared_components", "network.exchange"),
    ("dipm.direction", "gather_average", "problem.gather_average"),
    ("dipm.direction", "prox_step_unconstrained", "direction.prox"),
    ("dipm.direction", "prox_step_equality", "direction.prox"),
    ("dipm.newton", "all_agree", "network.flag"),
    ("dipm.newton", "min_consensus", "network.min"),
    ("dipm.newton", "DirectionWorkspace", "direction.workspace"),
    ("dipm.newton", "compute_direction", "direction.compute"),
    ("dipm.newton", "distributed_line_search", "newton.line_search"),
    ("dipm.newton", "local_decrement", "newton.decrement"),
    # the benchmark's own lookup site for plain Newton, and the barrier's
    ("dipm.newton", "newton_solve", "newton.solve"),
    ("dipm.barrier", "newton_solve", "newton.solve"),
    ("dipm.linalg", "factor_spd", "linalg.factor_spd"),
    ("dipm.linalg", "factor_kkt", "linalg.factor_kkt"),
    ("dipm.linalg:SymmetricFactorization", "solve", "linalg.spd_solve"),
    ("dipm.linalg:KKTFactorization", "solve", "linalg.kkt_solve"),
    ("dipm.barrier:BarrierFunction", "value", "barrier.calculus"),
    ("dipm.barrier:BarrierFunction", "gradient", "barrier.calculus"),
    ("dipm.barrier:BarrierFunction", "hessian", "barrier.calculus"),
    ("dipm.network:RoundScheduler", "deliver_round", DELIVER),
)


class Recorder:
    """In-memory span store; one instance per traced pass."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.code = array("H")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.solve_id = -1

    def code_of(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, fn, name, key=None):
        """Return ``fn`` recording one span per call.

        With ``key``, the span name is ``name[key(args)]`` instead, a dict
        from a call argument to span names.
        """
        codes = ({k: self.code_of(v) for k, v in name.items()} if key is not None
                 else self.code_of(name))
        code_arr, parent, solve = self.code, self.parent, self.solve
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            sid = len(start)
            code_arr.append(codes if key is None else codes[key(args, kwargs)])
            parent.append(stack[-1])
            solve.append(rec.solve_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        return {
            "code": np.frombuffer(self.code, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "solve": np.frombuffer(self.solve, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self):
        """Per span name: call count, total duration and total self time.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children nest inside parents.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        k = len(self.names)
        count = np.bincount(a["code"], minlength=k)
        total = np.bincount(a["code"], weights=dur, minlength=k)
        own = np.bincount(a["code"], weights=dur - child, minlength=k)
        return {
            name: (int(count[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def _owner(spec):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _deliver_kind(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["kind"]


@contextmanager
def tracing(recorder):
    """Install span wrappers for the body of the block, then restore."""
    installed = []
    try:
        for spec, attr, name in WRAPPED:
            owner = _owner(spec)
            original = getattr(owner, attr)
            key = _deliver_kind if isinstance(name, dict) else None
            setattr(owner, attr, recorder.wrap(original, name, key=key))
            installed.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)

