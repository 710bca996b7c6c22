"""Spans around calls into the package's layers, recorded from outside it.

A Tracer replaces a name as it is bound in the calling module (for example
`groupact.model.encode`, the encoder as the model module sees it) with a
wrapper that records a span: name, start, end and the enclosing span. The
layer of a span is the module that defines the wrapped function, so
`groupact.model.encode` counts for `transformer`. Spans stay in memory until
the run ends; self time is a span's duration minus the time its children
cover.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import groupact.checkpoint as gcheckpoint
import groupact.cli as gcli
import groupact.evaluation as gevaluation
import groupact.model as gmodel
import groupact.scenes as gscenes
import groupact.tensor as gtensor
import groupact.training as gtraining

# (owner, attribute) pairs wrapped in traced rounds. Every public entry of a
# layer that a workload reaches is listed where its caller binds it.
_MODULE_BINDINGS = {
    gmodel: ("forward_branch", "apply_pe", "encode", "branch_inputs", "predict"),
    gtraining: ("train", "branch_inputs", "loss_terms", "atomic_write_text"),
    gevaluation: ("evaluate_model", "branch_inputs", "predict", "atomic_write_text"),
    gscenes: ("generate", "save_dataset", "load_dataset", "atomic_write_text"),
    gcheckpoint: ("save_model", "load_model"),
    gcli: ("main", "load_run_config", "cmd_generate", "cmd_train", "cmd_evaluate",
           "cmd_attention_dump", "generate", "save_dataset", "load_dataset", "train",
           "evaluate_model", "write_report", "save_model", "load_model", "branch_inputs",
           "atomic_write_text"),
}
_CLASS_BINDINGS = {
    gmodel.BranchModel: ("forward",),
    gmodel.EarlyFusionModel: ("forward",),
    gmodel.LateFusionModel: ("forward",),
    gtensor.Tensor: ("backward",),
    gtraining.Adam: ("zero_grads", "step"),
    gtraining.SgdMomentum: ("zero_grads", "step"),
}
# Wrappers that also count the bytes of their text argument.
_SIZED = {"atomic_write_text"}

BENCH_LAYER = "bench"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.bytes_written = {}  # span id -> characters handed to a text writer
        self.tape_nodes = {}  # phase -> tape nodes recorded by training graphs
        self._patches = []

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def phase_name(self) -> str:
        """Name of the outermost open span: the phase the caller is in."""
        return self.names[self.name[self.stack[1]]] if len(self.stack) > 1 else ""

    def _begin(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, such as a phase of a round."""
        sid = self._begin(self._name_id(name, BENCH_LAYER))
        try:
            yield
        finally:
            self._finish(sid)

    def _wrap(self, owner, attr: str, label: str):
        fn = owner.__dict__[attr]
        nid = self._name_id(label, fn.__module__.rsplit(".", 1)[-1])
        begin, finish, sized = self._begin, self._finish, attr in _SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(sid)
                if sized:
                    self.bytes_written[sid] = len(args[1])

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    @contextmanager
    def installed(self):
        """Wrap every listed binding for the duration of the block."""
        for module, attrs in _MODULE_BINDINGS.items():
            for attr in attrs:
                self._wrap(module, attr, f"{module.__name__}.{attr}")
        for cls, attrs in _CLASS_BINDINGS.items():
            for attr in attrs:
                self._wrap(cls, attr, f"{cls.__module__}.{cls.__qualname__}.{attr}")
        tracer, base = self, gtraining.Graph

        class CountingGraph(base):
            def __exit__(self, *exc):
                phase = tracer.phase_name()
                tracer.tape_nodes[phase] = tracer.tape_nodes.get(phase, 0) + len(self.nodes)
                return super().__exit__(*exc)

        gtraining.Graph = CountingGraph
        try:
            yield self
        finally:
            gtraining.Graph = base
            for owner, attr, fn in reversed(self._patches):
                setattr(owner, attr, fn)
            self._patches.clear()

    def write_csv(self, path) -> None:
        """All spans, one per line, in start order."""
        lines = ["id,parent,layer,name,start_s,end_s"]
        for sid in range(len(self.start)):
            nid = self.name[sid]
            lines.append(f"{sid},{self.parent[sid]},{self.layers[nid]},{self.names[nid]},"
                         f"{self.start[sid]:.9f},{self.end[sid]:.9f}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def summary(self, blocks) -> "SpanSummary":
        return SpanSummary(self, blocks)


class SpanSummary:
    """Per (phase, name) counts, total time and self time.

    The phase of a span is the name of its root span, which the harness
    opens around each phase of a round. blocks are (start, end, slowdown)
    stretches: a span that starts in one has its duration divided by the
    slowdown, as the end-to-end times are.
    """

    def __init__(self, tracer: Tracer, blocks):
        n = len(tracer.start)
        parent = np.frombuffer(tracer.parent, dtype=np.int64, count=n)
        start = np.frombuffer(tracer.start, count=n)
        dur = np.frombuffer(tracer.end, count=n) - start
        b = np.array(sorted(blocks))
        i = np.maximum(np.searchsorted(b[:, 0], start, side="right") - 1, 0)
        inside = (b[i, 0] <= start) & (start <= b[i, 1])
        dur = dur / np.where(inside, b[i, 2], 1.0)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        root = np.arange(n)
        for sid in np.flatnonzero(nested):  # parents precede their children
            root[sid] = root[parent[sid]]
        names = np.frombuffer(tracer.name, dtype=np.int64, count=n)
        self.names, self.layers = tracer.names, tracer.layers
        self.phase = np.array([tracer.names[i] for i in names[root]]) if n else np.array([])
        self._name = names
        self._parent = parent
        self._dur, self._child, self._self = dur, child, dur - child
        self._bytes = tracer.bytes_written

    def by_layer(self) -> dict:
        """layer -> {calls, total_s, self_s}; a call nested in its own layer adds no total."""
        layer = np.array(self.layers)[self._name] if len(self._name) else np.array([])
        outer = np.ones(len(layer), dtype=bool)
        nested = self._parent >= 0
        outer[nested] = layer[nested] != layer[self._parent[nested]]
        out = {}
        for name in sorted(set(self.layers)):
            m = layer == name
            out[name] = {"calls": int(m.sum()), "total_s": float(self._dur[m & outer].sum()),
                         "self_s": float(self._self[m].sum())}
        return out

    def _mask(self, phase, suffix):
        ids = [i for i, nm in enumerate(self.names) if nm.endswith(suffix)]
        m = np.isin(self._name, ids)
        if phase is not None:
            phases = (phase,) if isinstance(phase, str) else phase
            m &= np.isin(self.phase, phases)
        return m

    def count(self, suffix, phase=None) -> int:
        return int(self._mask(phase, suffix).sum())

    def total(self, suffix, phase=None) -> float:
        return float(self._dur[self._mask(phase, suffix)].sum())

    def self_time(self, suffix, phase=None) -> float:
        return float(self._self[self._mask(phase, suffix)].sum())

    def child_time(self, suffix, phase=None) -> float:
        return float(self._child[self._mask(phase, suffix)].sum())

    def written(self, suffix) -> int:
        sids = np.flatnonzero(self._mask(None, suffix))
        return sum(self._bytes.get(int(s), 0) for s in sids)
