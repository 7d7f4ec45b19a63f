"""Host-time spans recorded from outside the library.

A :class:`Tracer` keeps spans in memory (name, start, end, parent) and
aggregate counters for calls too frequent to keep one by one.
:func:`install` wraps the public attribute at each layer boundary of
``repro`` so calls through it open a span; :meth:`Tracer.uninstall` puts
the original objects back.  Nothing under ``src/`` is edited: the
boundaries are the classes and methods the packages export.

Only the *outermost* call of a name opens a span — ``Module.__call__``
fires for every sub-module, a prefetching loader pulls from the loader it
wraps — so a layer's span is the whole of that layer's work and its self
time (span minus child spans) is what the layer did itself.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Union

#: A span is ``[name, start, end, parent_index]`` (a list: the compile
#: wrapper names its span only once the call has returned).
Span = list

NameOrFn = Union[str, Callable[[object], str]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: name -> [calls, seconds] since the last :meth:`take_counters`.
        self.counters: Dict[str, List[float]] = {}
        self._stack: List[int] = []
        self._active: set = set()
        self._patches: list = []

    # -- spans ----------------------------------------------------------
    def begin(self, name: str) -> Optional[int]:
        """Open a span; ``None`` if ``name`` is already open (nested call)."""
        if name in self._active:
            return None
        self._active.add(name)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: Optional[int], rename: Optional[str] = None) -> None:
        if index is None:
            return
        span = self.spans[index]
        span[2] = perf_counter()
        self._stack.pop()
        self._active.discard(span[0])
        if rename is not None:
            span[0] = rename

    def cancel(self, index: Optional[int]) -> None:
        """Drop a span that wrapped no work (an exhausted iterator's last ``next``).

        A span that other spans opened inside is kept: they index it as
        their parent.
        """
        if index is None:
            return
        if index != len(self.spans) - 1:
            self.end(index)
            return
        self._stack.pop()
        self._active.discard(self.spans[index][0])
        self.spans.pop()

    def take_counters(self) -> Dict[str, List[float]]:
        taken, self.counters = self.counters, {}
        return taken

    # -- wrapping -------------------------------------------------------
    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def wrap_span(self, owner, attr: str, name: NameOrFn) -> None:
        """Calls of ``owner.attr`` open a span; ``name`` may depend on ``self``."""

        def make(original):
            def traced(obj, *args, **kwargs):
                index = self.begin(name if isinstance(name, str) else name(obj))
                try:
                    return original(obj, *args, **kwargs)
                finally:
                    self.end(index)

            return traced

        self._patch(owner, attr, make)

    def wrap_iter(self, owner, name: NameOrFn) -> None:
        """Each ``next()`` of ``owner.__iter__``'s iterator that yields opens a span."""

        def make(original):
            def traced(obj):
                label = name if isinstance(name, str) else name(obj)
                iterator = iter(original(obj))
                while True:
                    index = self.begin(label)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        self.cancel(index)
                        return
                    except BaseException:
                        self.end(index)
                        raise
                    self.end(index)
                    yield item

            return traced

        self._patch(owner, "__iter__", make)

    def wrap_counter(self, owner, attr: str, name: str) -> None:
        """Calls of ``owner.attr`` add to ``counters[name]`` (no span kept)."""

        def make(original):
            def counted(*args, **kwargs):
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    cell = self.counters.setdefault(name, [0, 0.0])
                    cell[0] += 1
                    cell[1] += perf_counter() - start

            return counted

        self._patch(owner, attr, make)

    def wrap_compiled_step(self, owner) -> None:
        """``CompiledStep.__call__`` spans, named by what the call turned out to be."""

        def make(original):
            def traced(step, *args, **kwargs):
                index = self.begin("compile.step")
                stats = step.stats
                before = (stats.captures, stats.replays, stats.guard_failures)
                kind = "compile.eager"
                try:
                    return original(step, *args, **kwargs)
                finally:
                    if stats.captures > before[0]:
                        kind = "compile.capture"
                    elif stats.replays > before[1]:
                        kind = "compile.replay"
                    elif stats.guard_failures > before[2]:
                        kind = "compile.guard_failure"
                    self.end(index, rename=kind)

            return traced

        self._patch(owner, "__call__", make)

    def uninstall(self) -> None:
        """Restore every wrapped attribute to the object it held before."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of ``repro`` (see the README's layer table)."""
    from repro.compile import CompiledStep
    from repro.device import Device, PrefetchLoader
    from repro.dglx import GraphDataLoader
    from repro.fleet import FleetSimulator
    from repro.nn import Module
    from repro.optim import Optimizer
    from repro.pygx import DataLoader
    from repro.serve import InferenceModel, ServeSimulator
    from repro.tensor import Tensor
    from repro.train import GraphClassificationTrainer, NodeClassificationTrainer

    def prefetch_pack(loader) -> str:
        # repro.pygx.prefetch / repro.dglx.prefetch subclass the shared loader.
        return type(loader).__module__.split(".")[1] + ".collate"

    tracer.wrap_iter(DataLoader, "pygx.collate")
    tracer.wrap_iter(GraphDataLoader, "dglx.collate")
    tracer.wrap_iter(PrefetchLoader, prefetch_pack)
    tracer.wrap_span(InferenceModel, "collate", lambda m: m.framework + ".collate")
    tracer.wrap_span(Module, "__call__", "nn.forward")
    tracer.wrap_span(InferenceModel, "forward", "nn.forward")
    tracer.wrap_span(Tensor, "backward", "tensor.backward")
    tracer.wrap_span(Optimizer, "step", "optim.step")
    tracer.wrap_counter(Device, "launch", "device.launch")
    tracer.wrap_counter(Device, "host", "device.host")
    tracer.wrap_counter(Device, "transfer", "device.transfer")
    tracer.wrap_compiled_step(CompiledStep)
    tracer.wrap_span(GraphClassificationTrainer, "measure_epoch", "train.loop")
    tracer.wrap_span(NodeClassificationTrainer, "run", "train.loop")
    tracer.wrap_span(ServeSimulator, "replay", "serve.replay")
    tracer.wrap_span(FleetSimulator, "replay", "fleet.replay")


# ----------------------------------------------------------------------
# reading a finished trace
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def totals_by_root(spans: List[Span], root_name: str) -> List[Dict[str, Dict[str, float]]]:
    """One ``{name: {"calls", "total_s", "self_s"}}`` table per ``root_name`` span.

    Spans are stored in start order, so a parent always precedes its
    children and one forward pass resolves every span's root.
    """
    own = self_times(spans)
    root_of: List[Optional[int]] = []
    tables: Dict[int, Dict[str, Dict[str, float]]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        if parent is None:
            root = index if name == root_name else None
            if root is not None:
                tables[root] = {}
        else:
            root = root_of[parent]
        root_of.append(root)
        if root is None:
            continue
        row = tables[root].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[index]
    return [tables[root] for root in sorted(tables)]


def write_chrome_trace(spans: List[Span], path) -> None:
    """Complete ("X") events, microseconds from the first span; ``cat`` = layer."""
    if not spans:
        raise ValueError("no spans to write")
    origin = spans[0][1]
    own = self_times(spans)
    events = [
        {
            "name": name,
            "cat": name.split(".")[0],
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"self_us": own[index] * 1e6},
        }
        for index, (name, start, end, _) in enumerate(spans)
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
