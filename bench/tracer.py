"""Spans around the calls into each offlang module, recorded from outside.

`Tracer.installed()` wraps each public function at the name its caller
looks it up by (for example `training.mtl_loss`, `mtl.encoder_forward` and,
with `ops=True`, the `Tensor` op methods) and puts every original back on
exit. Backward time is attributed per op by wrapping the closure each op
attaches to its output. Spans stay in memory as parallel arrays of name,
start, end and parent, and are written out once the run ends. Counters are
kept per phase, the `bench.<phase>` span that `Tracer.phase` opens at the
top of the tree. Nothing is wrapped unless a tracer is installed.

A span's clock window holds its own bookkeeping: `begin` reads the clock
before it records anything, `finish` reads it after, and counters and
closures are handled inside the window. The cost of tracing a call then
lands in that call's span, not in its parent's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from offlang import autodiff, checkpoint, corpus, encoder, evaluation, mtl
from offlang import textnorm, tokenizer, training


def _count_chars(tracer, args):
    tracer.count("textnorm.segment_hashtag.chars", len(args[0]))


def _count_padding(tracer, args):
    mask = np.asarray(args[3])
    tracer.count("encoder.positions", mask.size)
    tracer.count("encoder.pad_positions", mask.size - np.count_nonzero(mask))


# (owner, attribute, span name, counter hook)
SPAN_TARGETS = (
    (corpus, "normalize", "textnorm.normalize", None),
    (textnorm, "emoji_to_words", "textnorm.emoji_to_words", None),
    (textnorm, "segment_hashtag", "textnorm.segment_hashtag", _count_chars),
    (corpus, "load_labeled", "corpus.load_labeled", None),
    (tokenizer, "encode_batch", "tokenizer.encode_batch", None),
    (mtl, "encode_batch", "tokenizer.encode_batch", None),
    (training, "encode_batch", "tokenizer.encode_batch", None),
    (mtl, "encoder_forward", "encoder.encode", _count_padding),
    (mtl.MtlModel, "logits_mtl", "mtl.logits_mtl", None),
    (training, "mtl_loss", "mtl.mtl_loss", None),
    (mtl, "predict", "mtl.predict", None),
    (autodiff.Tensor, "backward", "autodiff.backward", None),
    (training.Adam, "step", "training.adam_step", None),
    (training, "validation_f1", "training.validation_f1", None),
    (training, "train", "training.train", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "task_report", "evaluation.task_report", None),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
)

# every op that creates a graph node; (owner, attribute, op name)
OP_TARGETS = tuple(
    (autodiff.Tensor, attr, op) for attr, op in (
        ("__add__", "add"), ("__radd__", "add"), ("__mul__", "mul"),
        ("__rmul__", "mul"), ("__neg__", "neg"), ("__pow__", "pow"),
        ("__matmul__", "matmul"), ("__getitem__", "getitem"),
        ("reshape", "reshape"), ("transpose", "transpose"), ("sum", "sum"),
        ("exp", "exp"), ("log", "log"), ("tanh", "tanh"),
        ("sigmoid", "sigmoid"), ("gelu", "gelu"), ("softmax", "softmax"),
    )
) + ((encoder, "rows", "rows"),)

COUNTERS = ("autodiff.graph_nodes", "autodiff.op.getitem.bwd_bytes",
            "textnorm.segment_hashtag.chars", "encoder.positions", "encoder.pad_positions")

_MARK = "_bench_wrapper"


class Tracer:
    """In-memory spans plus counters taken at the same boundaries."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters: dict[str, Counter] = {}     # phase -> counter -> value
        self._phase = ""
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        now = self.clock()
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(now)
        self.end.append(0)
        self._open.append(index)
        return index

    def finish(self, index: int) -> None:
        self._open.pop()
        self.end[index] = self.clock()

    def count(self, name: str, n: float) -> None:
        self.counters.setdefault(self._phase, Counter())[name] += n

    @contextmanager
    def phase(self, name: str):
        """A top-level `bench.<name>` span; counters go to `name` inside it."""
        outer, self._phase = self._phase, name
        try:
            with self.span(f"bench.{name}"):
                yield
        finally:
            self._phase = outer

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.finish(index)

    @contextmanager
    def installed(self, ops: bool = True):
        """Wrap every module target, and with `ops` every op, for the
        duration of the block. Thousands of op spans run inside each layer
        call, so layer times are best read from a run with `ops=False`."""
        saved = []
        try:
            for owner, attr, name, hook in SPAN_TARGETS:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self._span_wrapper(vars(owner)[attr], name, hook))
            for owner, attr, op in OP_TARGETS if ops else ():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self._op_wrapper(vars(owner)[attr], op))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _span_wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                if hook is not None:
                    hook(self, args)
                return fn(*args, **kwargs)
            finally:
                self.finish(index)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _op_wrapper(self, fn, op):
        forward, backward = f"autodiff.op.{op}.fwd", f"autodiff.op.{op}.bwd"
        counts_bytes = op == "getitem"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(forward)
            try:
                out = fn(*args, **kwargs)
                closure = out._backward
                if closure is not None:
                    self.count("autodiff.graph_nodes", 1)
                    # slice backward scatters into a zero array the size of its input
                    nbytes = args[0].data.nbytes if counts_bytes else 0
                    out._backward = self._timed_backward(closure, backward, nbytes)
                return out
            finally:
                self.finish(index)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _timed_backward(self, closure, name, nbytes):
        def timed(g):
            index = self.begin(name)
            try:
                if nbytes:
                    self.count("autodiff.op.getitem.bwd_bytes", nbytes)
                closure(g)
            finally:
                self.finish(index)

        return timed

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Each span's duration minus the part of it its children cover."""
        children: list[list[int]] = [[] for _ in self.names]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(index)
        return [
            (self.end[i] - self.start[i])
            - covered(self.start[i], self.end[i],
                      [(self.start[c], self.end[c]) for c in children[i]])
            for i in range(len(self.names))
        ]

    def phases(self) -> list[str]:
        """The phase each span runs in: the name of its root span without
        `bench.`, or "" outside any phase."""
        out: list[str] = []
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                out.append(out[parent])     # parents are recorded before children
            else:
                name = self.names[index]
                out.append(name[len("bench."):] if name.startswith("bench.") else "")
        return out

    def summary(self, phases=None) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, total self time in ns), over the spans that
        run in one of `phases`, or over all spans."""
        out: dict[str, list[int]] = {}
        for name, self_ns, phase in zip(self.names, self.self_times(), self.phases()):
            if phases is not None and phase not in phases:
                continue
            entry = out.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += self_ns
        return {name: (calls, ns) for name, (calls, ns) in out.items()}

    def write(self, path) -> None:
        """All spans as gzipped JSON columns; names are indexes into `names`."""
        table = sorted(set(self.names))
        lookup = {name: i for i, name in enumerate(table)}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({
                "names": table,
                "name": [lookup[n] for n in self.names],
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
            }, handle)


def covered(lo: int, hi: int, intervals) -> int:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def wrapped_targets() -> list[str]:
    """Targets that currently hold a benchmark wrapper; empty when untraced."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in SPAN_TARGETS + OP_TARGETS
        if getattr(vars(owner)[attr], _MARK, False)
    ]


def layer_metrics(tracer: Tracer, names, phases, units: float) -> dict[str, float]:
    """Per-layer values per unit of work, from the spans and counters of
    `phases`, for each requested metric name the trace can give.

    `<span>.self_ms` and op `<span>_ms` names are self time; other names are
    counters. `encoder.pad_fraction` is a ratio and is not divided by units.
    """
    summary = tracer.summary(phases)
    counters = Counter()
    for phase in phases:
        counters.update(tracer.counters.get(phase, {}))
    out = {}
    for name in names:
        if name == "encoder.pad_fraction":
            out[name] = counters["encoder.pad_positions"] / max(counters["encoder.positions"], 1)
        elif name.endswith(".self_ms"):
            out[name] = summary.get(name[:-len(".self_ms")], (0, 0))[1] / 1e6 / units
        elif name.endswith("_ms"):
            out[name] = summary.get(name[:-len("_ms")], (0, 0))[1] / 1e6 / units
        elif name in COUNTERS:
            out[name] = counters[name] / units
    return out


def format_table(tracer: Tracer, phases, units: float, unit_name: str, prefix: str = "") -> list[str]:
    """Self time per span name whose name starts with `prefix`, in
    `phases`, largest first, with its share of those spans' self time."""
    summary = {name: entry for name, entry in tracer.summary(phases).items()
               if name.startswith(prefix) and not name.startswith("bench.")}
    total = sum(ns for _, ns in summary.values()) or 1
    lines = [f"{'span':<34}{'calls':>9}{'self ms':>12}{'ms/' + unit_name:>12}{'share':>8}"]
    for name, (calls, ns) in sorted(summary.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<34}{calls:>9}{ns / 1e6:>12.1f}"
                     f"{ns / 1e6 / units:>12.4f}{100 * ns / total:>7.1f}%")
    counters = Counter()
    for phase in phases:
        counters.update(tracer.counters.get(phase, {}))
    for name, value in sorted(counters.items()):
        lines.append(f"counter {name} = {value:g} ({value / units:.4g}/{unit_name})")
    return lines
