"""The simulated device: clock + memory + profiler behind one handle.

Every tensor operation in :mod:`repro.tensor` reports itself here via
:meth:`Device.launch`; data loaders report CPU work via :meth:`Device.host`.
A module-level *current device* (settable with :func:`use_device`) plays the
role of the CUDA current-device context.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.device.clock import SimClock
from repro.device.gpu import GPUSpec, RTX_2080TI, kernel_efficiency
from repro.device.host import DEFAULT_HOST_COSTS, HostCostModel
from repro.device.kernel import KernelRecord, Profiler
from repro.device.memory import MemoryPool
from repro.device.streams import Event, Stream


#: Precisions the device models and the tensor-byte scale each implies.
#: fp16 halves every tensor byte: 2x effective bandwidth on the memory leg,
#: half the footprint against peak memory, half the PCIe traffic.  Numerics
#: are untouched (master weights and arithmetic stay fp32), so results are
#: bitwise-identical across precisions — the policy docs/kernels.md states.
PRECISION_BYTE_SCALE = {"fp32": 1.0, "fp16": 0.5}


class Device:
    """A simulated GPU plus its host, observed through one clock.

    ``precision`` selects the roofline mode: ``"fp16"`` halves all tensor
    bytes (see :data:`PRECISION_BYTE_SCALE`), which doubles effective
    bandwidth and memory capacity for bandwidth-bound kernels while leaving
    FLOPs, launch overhead and numerics unchanged.
    """

    def __init__(
        self,
        spec: GPUSpec = RTX_2080TI,
        host_costs: HostCostModel = DEFAULT_HOST_COSTS,
        precision: str = "fp32",
    ) -> None:
        if precision not in PRECISION_BYTE_SCALE:
            raise ValueError(
                f"unknown precision {precision!r}, expected one of "
                f"{tuple(PRECISION_BYTE_SCALE)}"
            )
        self.spec = spec
        self.host_costs = host_costs
        self.precision = precision
        self._byte_scale = PRECISION_BYTE_SCALE[precision]
        self.clock = SimClock()
        self.memory = MemoryPool(spec.memory_bytes)
        self.profiler = Profiler()
        #: Names of the active :meth:`scope` blocks, outermost first.  Kept
        #: as the tuple records and :attr:`scope_elapsed` are keyed by, so a
        #: launch reads it instead of rebuilding it.
        self._scope: Tuple[str, ...] = ()
        #: Wall time (host + GPU) attributed to each active scope stack —
        #: the layer-execution-time observable of the paper's Fig. 3.
        self.scope_elapsed: dict = {}
        #: Active graph-capture tracer (``repro.compile``), if any.
        self._tracer = None
        #: Active compiled-replay session (``repro.compile``), if any.
        self._replay = None
        #: Active fault injector (``repro.faults``), if any.
        self._faults = None
        #: Named streams; id 0 is the default (serial) stream.
        self.default_stream = Stream(0, "default", self.clock)
        self._streams: Dict[str, Stream] = {"default": self.default_stream}
        #: Stream that launches inside a :meth:`on` block run on (``None``
        #: outside any block — the serial default-stream semantics).
        self._current_stream: Optional[Stream] = None
        #: Streams receiving redirected host/transfer charges inside an
        #: :meth:`offload` block (``None`` outside).
        self._offload: Optional[Stream] = None
        self._offload_copy: Optional[Stream] = None

    # ------------------------------------------------------------------
    # kernel and host work
    # ------------------------------------------------------------------
    def launch(
        self,
        name: str,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        stream: Optional[Stream] = None,
    ) -> float:
        """Simulate one kernel launch; returns the kernel duration.

        The host pays the launch overhead (driver + framework dispatch).
        On the default stream (``stream=None`` outside any :meth:`on`
        block) the host then also waits out the kernel's roofline duration
        — the serial launch-then-wait model matching the low-utilisation
        regime the paper measures for GNN training.  On an explicit stream
        the kernel is *enqueued* instead: the host returns after the launch
        overhead, the stream's timeline carries the duration, and wall time
        only meets it at a synchronisation point.

        A launch is :meth:`_charge` plus one profiler record.  The hooks
        only decide: a fault injector (:meth:`injecting`) is consulted
        first, so eager and compiled execution see the same fault-decision
        stream, and its stall or failed dispatch is charged here; under
        compiled replay the :class:`~repro.compile.plan.ReplaySession`
        charges fused kernels through :meth:`_charge` or hands the launch
        back to run eagerly; under capture the launch additionally streams
        into the active tracer.
        """
        if stream is None:
            stream = self._current_stream
        # Precision scaling applies at the entry point so eager, captured
        # and replayed launches all see the same (scaled) byte counts.
        bytes_moved = bytes_moved * self._byte_scale
        if self._faults is not None:
            self._inject(name, stream)
        if self._replay is not None:
            duration = self._replay.on_launch(self, name, flops, bytes_moved, stream, self._charge)
            if duration is not None:
                return duration
        duration = self._charge(name, flops, bytes_moved, stream)
        if self.profiler.enabled:
            self.record_kernel(name, duration, flops, bytes_moved, stream=stream)
        if self._tracer is not None:
            self._tracer.on_launch(name, flops, bytes_moved, self.current_scope)
        return duration

    def _charge(
        self,
        name: str,
        flops: float,
        bytes_moved: float,
        stream: Optional[Stream],
        issued: bool = True,
    ) -> float:
        """Charge one kernel on ``stream``; returns its duration.

        An ``issued`` kernel first pays the launch overhead on the host
        that issues it; a fused kernel's members ride on their head's
        launch and pay none.  The serial / :meth:`on` / :meth:`offload`
        rule below is the only place a kernel turns into time.
        """
        spec, clock, default = self.spec, self.clock, self.default_stream
        overhead = spec.launch_overhead if issued else 0.0
        serial = stream is None or stream is default
        offloaded = self._offload is not None and not serial
        if issued and offloaded:
            # A host *worker* (an offloaded replica/loader process) issues
            # the launch: the overhead lands on the worker's timeline, not
            # the shared frontend clock, and the kernel cannot start before
            # the worker has issued it.
            self._offload.enqueue(overhead)
        elif issued:
            clock.advance_host(overhead)
        duration = spec.kernel_time(flops, bytes_moved, kernel_efficiency(name))
        if serial:
            clock.advance_gpu(duration)
            self._attribute_scope(overhead + duration)
            default.busy += duration
            default.ready = clock.elapsed
        else:
            # Async: the stream carries the duration; the host only paid
            # the launch overhead, so only that much wall time is
            # attributable to the enclosing scope.
            stream.enqueue(duration, after=self._offload.ready if offloaded else None)
            clock.account_gpu_async(duration)
            if issued and not offloaded:
                self._attribute_scope(overhead)
        return duration

    def _inject(self, name: str, stream: Optional[Stream]) -> None:
        """Charge the fault injector's decision for one launch.

        A stall and a failed dispatch cost host time where this launch's
        overhead would land (see :meth:`_charge`): the frontend clock, or
        the offload worker's timeline for a kernel on an explicit stream.
        A failed dispatch then raises its :class:`~repro.faults.KernelFault`.
        """
        stall, fault = self._faults.on_launch(name)
        worker = None if stream is None or stream is self.default_stream else self._offload
        for seconds in (stall, self.spec.launch_overhead if fault is not None else 0.0):
            if seconds and worker is not None:
                worker.enqueue(seconds)
            elif seconds:
                self.clock.advance_host(seconds)
                self._attribute_scope(seconds)
        if fault is not None:
            raise fault

    def record_kernel(
        self,
        name: str,
        duration: float,
        flops: float,
        bytes_moved: float,
        *,
        scope: Optional[Tuple[str, ...]] = None,
        phase: Optional[str] = None,
        stream: Optional[Stream] = None,
    ) -> None:
        """Hand one kernel's :class:`KernelRecord` to the profiler.

        The record is stamped when ``stream`` (default: the default stream)
        completes — the clock for the default stream, ``stream.ready``
        otherwise — so call it right after charging the work.  ``scope``
        and ``phase`` default to the active :meth:`scope` stack and clock
        phase.  Does nothing while the profiler is disabled.
        """
        if not self.profiler.enabled:
            return
        if stream is None or stream is self.default_stream:
            timestamp, stream_id = self.clock.elapsed, self.default_stream.id
        else:
            timestamp, stream_id = stream.ready, stream.id
        self.profiler.record(
            KernelRecord(
                name=name,
                scope=self._scope if scope is None else scope,
                duration=duration,
                flops=flops,
                bytes_moved=bytes_moved,
                timestamp=timestamp,
                memory=self.memory.current,
                stream=stream_id,
                phase=(self.clock.current_phase or "") if phase is None else phase,
            )
        )

    # ------------------------------------------------------------------
    # streams and events
    # ------------------------------------------------------------------
    def stream(self, name: str) -> Stream:
        """Return the named stream, creating it on first use.

        Get-or-create semantics let long-lived components (a prefetching
        loader, a serving simulator) reattach to the same timeline across
        epochs without threading stream handles everywhere.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        created = Stream(len(self._streams), name, self.clock)
        self._streams[name] = created
        return created

    @property
    def streams(self) -> List[Stream]:
        """All streams created on this device, default stream first."""
        return sorted(self._streams.values(), key=lambda s: s.id)

    def stream_names(self) -> Dict[int, str]:
        """Mapping of stream id to name (for the Chrome-trace tracks)."""
        return {s.id: s.name for s in self._streams.values()}

    @contextmanager
    def on(self, stream: Stream) -> Iterator[Stream]:
        """Launch every kernel in the block asynchronously on ``stream``.

        The CUDA analogue of setting the current stream: host launch
        overhead stays serial, kernel durations land on the stream's
        timeline, and the host meets them again at :meth:`synchronize` /
        :meth:`wait_event`.
        """
        previous = self._current_stream
        self._current_stream = None if stream is self.default_stream else stream
        try:
            yield stream
        finally:
            self._current_stream = previous

    @contextmanager
    def offload(self, stream: Stream, copy_stream: Optional[Stream] = None) -> Iterator[Stream]:
        """Charge host work in the block to ``stream`` instead of the clock.

        Models a host *worker* (a prefetching DataLoader process): the work
        still costs what it costs, but on the worker's timeline, so the
        main host thread keeps running.  ``copy_stream`` receives
        :meth:`transfer` charges issued inside the block (the H2D copy of
        a collated batch), sequenced after the producing work on
        ``stream`` — a transfer cannot start before the buffer it copies
        exists.  Without a ``copy_stream``, transfers stay on ``stream``.
        """
        if self._offload is not None:
            raise RuntimeError("device already has an active offload stream")
        # A worker cannot have started before the host asked it to.
        stream.ready = max(stream.ready, self.clock.elapsed)
        self._offload = stream
        self._offload_copy = copy_stream or stream
        try:
            yield stream
        finally:
            self._offload = None
            self._offload_copy = None

    def record_event(self, stream: Optional[Stream] = None) -> Event:
        """Record an event on ``stream`` (default stream if omitted)."""
        return (stream or self.default_stream).record()

    def wait_event(self, event: Event) -> None:
        """Block the host until ``event`` completes (cudaEventSynchronize).

        Advances wall time to the event's timestamp when it lies in the
        future; free when the event already completed.
        """
        gap = event.timestamp - self.clock.elapsed
        if gap > 0:
            self.clock.advance_wait(gap)

    def synchronize(self) -> None:
        """Block the host until every stream has drained."""
        gap = max(s.ready for s in self._streams.values()) - self.clock.elapsed
        if gap > 0:
            self.clock.advance_wait(gap)

    # ------------------------------------------------------------------
    # graph capture / compiled replay (repro.compile)
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """The active capture tracer, or ``None`` outside capture."""
        return self._tracer

    @property
    def capturing_or_replaying(self) -> bool:
        return self._tracer is not None or self._replay is not None

    @contextmanager
    def capturing(self, tracer) -> Iterator[None]:
        """Stream every launch in the block into ``tracer``."""
        if self.capturing_or_replaying:
            raise RuntimeError("device is already capturing or replaying")
        self._tracer = tracer
        try:
            yield
        finally:
            self._tracer = None

    @contextmanager
    def replaying(self, session) -> Iterator[None]:
        """Route every launch in the block through a replay ``session``."""
        if self.capturing_or_replaying:
            raise RuntimeError("device is already capturing or replaying")
        self._replay = session
        try:
            yield
        finally:
            self._replay = None
            session.finish(self)

    # ------------------------------------------------------------------
    # fault injection (repro.faults)
    # ------------------------------------------------------------------
    @property
    def faults(self):
        """The active :class:`~repro.faults.FaultInjector`, or ``None``."""
        return self._faults

    @contextmanager
    def injecting(self, plan) -> Iterator[object]:
        """Inject faults from ``plan`` into every launch/alloc in the block.

        ``plan`` is a :class:`~repro.faults.FaultPlan` (a fresh injector is
        started from it) or an already-started
        :class:`~repro.faults.FaultInjector` (so a caller can keep one
        decision stream across several blocks, e.g. restart attempts of a
        fault-tolerant training run).  Yields the active injector.
        """
        if self._faults is not None:
            raise RuntimeError("device already has an active fault injector")
        injector = plan.start() if hasattr(plan, "start") else plan
        self._faults = injector
        self.memory.injector = injector
        try:
            yield injector
        finally:
            self._faults = None
            self.memory.injector = None

    def host(self, seconds: float) -> None:
        """Charge host-side (CPU) work to the clock.

        Inside an :meth:`offload` block the charge lands on the worker
        stream's timeline instead: the main host thread keeps running and
        only meets the work again at a synchronisation point.
        """
        if self._offload is not None:
            self._offload.enqueue(seconds)
            return
        self.clock.advance_host(seconds)
        self._attribute_scope(seconds)

    def _attribute_scope(self, seconds: float) -> None:
        key = self._scope
        if key:
            self.scope_elapsed[key] = self.scope_elapsed.get(key, 0.0) + seconds

    def scope_component_time(self, component: str, since: Optional[dict] = None) -> float:
        """Elapsed time spent in scopes containing ``component``.

        ``since`` is an earlier copy of :attr:`scope_elapsed` to difference
        against (pass ``dict(device.scope_elapsed)`` taken before the
        region of interest).
        """
        total = 0.0
        for key, value in self.scope_elapsed.items():
            if component in key:
                total += value - (since or {}).get(key, 0.0)
        return total

    def transfer(self, nbytes: float) -> None:
        """Charge a PCIe transfer (host<->device or peer-to-peer).

        Inside an :meth:`offload` block the copy is enqueued on the block's
        copy stream, sequenced after the worker stream's pending work — the
        double-buffered H2D pattern of a prefetching loader.

        Copies are recorded in the profiler as ``memcpy_h2d`` with
        ``flops=0`` and ``bytes_moved=nbytes`` so operation-level
        attribution (:mod:`repro.device.roofline`) sees transfer traffic —
        nvprof reports ``[CUDA memcpy HtoD]`` rows the same way.
        """
        nbytes = nbytes * self._byte_scale
        duration = self.spec.transfer_time(nbytes)
        if self._offload is not None:
            copy = self._offload_copy or self._offload
            copy.enqueue(duration, after=self._offload.ready)
        else:
            self.clock.advance_host(duration)
            copy = None
        self.record_kernel("memcpy_h2d", duration, 0.0, float(nbytes), stream=copy)

    # ------------------------------------------------------------------
    # scopes (used by nn.Module for Fig. 3 layer-wise attribution)
    # ------------------------------------------------------------------
    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Tag kernels launched inside the block with ``name``."""
        enclosing = self._scope
        self._scope = enclosing + (name,)
        try:
            yield
        finally:
            self._scope = enclosing

    @property
    def current_scope(self) -> Tuple[str, ...]:
        return self._scope

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def track(self, array) -> None:
        """Account a numpy buffer against device memory (freed on GC).

        Under fp16 precision the charge is half the array's fp32 bytes —
        tensors ship at half width, so peak memory effectively doubles.
        """
        self.memory.track(array, scale=self._byte_scale)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset clock, profiler records and the memory high-water mark."""
        self.clock.reset()
        self.profiler.clear()
        self.memory.reset_peak()
        self.scope_elapsed.clear()
        for stream in self._streams.values():
            stream.ready = 0.0
            stream.busy = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device({self.spec.name!r}, elapsed={self.clock.elapsed:.6f}s)"


_CURRENT: Device = Device()


def current_device() -> Device:
    """Return the active simulated device."""
    return _CURRENT


@contextmanager
def use_device(device: Device) -> Iterator[Device]:
    """Temporarily make ``device`` the active device."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = device
    try:
        yield device
    finally:
        _CURRENT = previous
