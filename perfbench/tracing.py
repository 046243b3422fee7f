"""Span tracing of the ocmeta layers, installed from outside the library.

`Tracer.install()` replaces the public functions of each layer module (and
the hot methods of `Rng` and `Adam`) with wrappers that record one span per
call: name, start, end and the index of the enclosing span. Spans live in
flat in-memory arrays and are written out once, at the end of a run.
`uninstall()` puts the original functions back, so an untraced phase runs
the library exactly as shipped.

Layer names are the module names; `backend` is the kernel beneath `linalg`
and `rng`. The scalar draws `Rng.u64/uniform/below` are not wrapped: they
are the inner loop of `permutation` and of task synthesis, and one span per
draw would cost more than the draw.
"""

import functools
import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYER_MODULES = (
    "rng", "backend", "linalg", "mlp", "svdd", "meta", "optim",
    "gradcheck", "metrics", "synth", "data", "model_io",
)
RNG_METHODS = ("gaussian_matrix", "gaussian", "permutation", "sample_indices")


def _matmul_flops(counts, args, kwargs):
    a, b = args[0], args[1]
    counts["linalg.matmul_flops"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _matrix_draws(counts, args, kwargs):
    counts["rng.gaussian_draws"] += args[1] * args[2]


def _scalar_draw(counts, args, kwargs):
    counts["rng.gaussian_draws"] += 1


def _adam_elements(counts, args, kwargs):
    counts["optim.adam_elements"] += sum(p.size for p in args[0].params)


def span_cost(calls=20000):
    """Seconds one traced call adds over a plain call, timed on a two-argument
    no-op with a tracer of its own. It leaves out the cache misses that the
    span arrays cause in real work, so it is a lower bound."""

    def noop(a, b):
        return None

    wrapped = Tracer().wrap("probe", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop(1, 2)
    t1 = perf_counter()
    for _ in range(calls):
        wrapped(1, 2)
    t2 = perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {
            "linalg.matmul_flops": 0,
            "rng.gaussian_draws": 0,
            "optim.adam_elements": 0,
            "gradcheck.coords": 0,
        }
        self.active = True
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (set-up and operation roots)."""
        idx = self._open(self._id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, perf_counter())

    @contextmanager
    def paused(self):
        """Calls made here (the benchmark's own output checks) leave no span."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name, fn, count=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs)
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())

        return traced

    def _wrap_grad_check(self, fn):
        traced = self.wrap("gradcheck.grad_check", fn)

        @functools.wraps(fn)
        def grad_check(loss_and_grad, params, *args, **kwargs):
            if self.active:
                self.counts["gradcheck.coords"] += sum(p.size for p in params)
            return traced(self.wrap("gradcheck.loss_eval", loss_and_grad), params, *args, **kwargs)

        return grad_check

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import importlib

        from ocmeta.optim import Adam
        from ocmeta.rng import Rng

        counters = {
            "linalg.matmul": _matmul_flops,
            "rng.gaussian_matrix": _matrix_draws,
            "rng.gaussian": _scalar_draw,
        }
        for layer in LAYER_MODULES:
            mod = importlib.import_module(f"ocmeta.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == "gradcheck.grad_check":
                    self._patch(mod, attr, self._wrap_grad_check(obj))
                else:
                    self._patch(mod, attr, self.wrap(name, obj, counters.get(name)))
        for attr in RNG_METHODS:
            name = f"rng.{attr}"
            self._patch(Rng, attr, self.wrap(name, getattr(Rng, attr), counters.get(name)))
        self._patch(Adam, "step", self.wrap("optim.adam_step", Adam.step, _adam_elements))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def write(self, path):
        """Spans as columns: name index, parent span index (-1 at a root),
        start and end in seconds of the process's performance counter."""
        name_id, parent, start, end = self.arrays()
        np.savez(path, name_id=name_id, parent=parent, start=start, end=end,
                 names=np.array(json.dumps(self.names)))

    def summarize(self, root_name):
        """Per-name and per-layer totals over the spans beneath roots named
        `root_name`.

        Returns ({name: (calls, inclusive_s, self_s)}, {layer: (calls, self_s)},
        number of roots). Self time is a span's duration minus the durations of
        its direct children.
        """
        name_id, parent, start, end = self.arrays()
        n = name_id.shape[0]
        dur = end - start
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child_s
        # root of every span: parents precede children, so pointer jumping ends
        root = np.where(has_parent, parent, np.arange(n))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        target = self._ids.get(root_name, -1)
        under = (name_id[root] == target) & has_parent
        n_roots = int(np.count_nonzero((name_id == target) & ~has_parent))

        per_name = {}
        per_layer = {}
        for nid, name in enumerate(self.names):
            sel = under & (name_id == nid)
            calls = int(np.count_nonzero(sel))
            if calls == 0:
                continue
            incl, own = float(dur[sel].sum()), float(self_s[sel].sum())
            per_name[name] = (calls, incl, own)
            layer = name.split(".", 1)[0]
            c, s = per_layer.get(layer, (0, 0.0))
            per_layer[layer] = (c + calls, s + own)
        return per_name, per_layer, n_roots
