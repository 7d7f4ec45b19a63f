"""Simulated device memory pool with peak tracking.

Every tensor (and gradient buffer) that the engine materialises "on the GPU"
registers its byte size here.  Buffers are released when the owning numpy
array is garbage collected, which mirrors the lifetime behaviour of a real
caching allocator closely enough for the paper's purposes.  The autograd
tape holds grad nodes, and each node holds only the arrays its backward
reads, as PyTorch's saved tensors do.  An activation no backward reads is
freed as soon as the forward stops using it, and a saved one is freed once
backward has propagated through its node.  So the peak lands at the end of
the forward pass, where PyTorch's peak sits, at the size of what the step
saves rather than of everything it computed.  Under graph capture the pool
also holds the charge of every array the tracer saw until the capture
ends (:meth:`MemoryPool.hold`), though the host frees the array as usual.

The paper reads peak usage off ``nvidia-smi``; benchmarks here read it off
:meth:`MemoryPool.peak`.

The host underneath is told to behave the same way.  glibc's defaults hand
large arrays to ``mmap`` and trim the heap top the moment a step's tape is
freed, so each training step faulted its ~150 MB of activations back in
page by page.  Importing this module raises both thresholds once per
process (:data:`HOST_HEAP_RETAINED`), so freed activations stay mapped for
the next step — what a caching allocator does.
``MALLOC_TRIM_THRESHOLD_`` and the other glibc malloc settings in the
environment switch this off; see docs/architecture.md, "What a step pays
for memory it already had".
"""

from __future__ import annotations

import ctypes
import os
import weakref
from typing import Any, Dict, List

# <malloc.h> parameter numbers, and what they are raised to: no trimming
# below 1 GiB of free heap top, and ``mmap`` only past 32 MiB — the ceiling
# glibc's own dynamic threshold stops at, above any activation in the tree.
_M_TRIM_THRESHOLD, _TRIM_BYTES = -1, 1 << 30
_M_MMAP_THRESHOLD, _MMAP_BYTES = -3, 32 << 20

# An operator who set any of these has already tuned the allocator: that
# existing glibc interface is the opt-out.
_MALLOC_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_")


def _retain_host_heap() -> bool:
    """Raise glibc's trim and mmap thresholds; ``True`` when both took effect.

    Both or neither: setting either one switches off glibc's dynamic
    threshold adjustment, and each alone measured slower than the defaults.
    A no-op (``False``) where ``mallopt`` is absent or refuses — musl returns
    0, macOS has no such symbol, Windows no such library.
    """
    if any(name in os.environ for name in _MALLOC_ENV):
        return False
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # The mmap threshold first: it is the call glibc can refuse (32-bit
    # builds cap it lower), and refusing it must leave the trim threshold alone.
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES) and mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES))


# Decided once per process: ``importlib.reload`` re-runs this module in the
# same namespace and must not retune the allocator.
if "HOST_HEAP_RETAINED" not in globals():
    #: Whether freed host memory stays mapped for the next step (read-only fact).
    HOST_HEAP_RETAINED: bool = _retain_host_heap()


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation would exceed the device capacity."""


class _TrackedRef(weakref.ref):
    """Weak reference to a tracked array, carrying what its death gives back.

    ``hold`` is the ref's place in the pool's capture hold, or ``None``.
    """

    __slots__ = ("key", "nbytes", "hold")


class MemoryPool:
    """Tracks current and peak simulated memory usage of one device."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("device capacity must be positive")
        self.capacity = capacity_bytes
        self.current: int = 0
        self._peak: int = 0
        #: Active :class:`~repro.faults.FaultInjector`, installed by
        #: :meth:`Device.injecting`; consulted on every :meth:`alloc`.
        self.injector = None
        # numpy arrays are unhashable, so track identities: id -> the weak
        # reference whose callback frees the bytes.  The callback runs while
        # the array is being collected, before its id can be handed out
        # again, and removes only its own entry — CPython id reuse is safe.
        self._tracked: Dict[int, _TrackedRef] = {}
        # The capture hold (:meth:`hold`): refs whose charge outlives their
        # array until :meth:`release_held`, in the order they were first held.
        self._held: List[_TrackedRef] = []

    # ------------------------------------------------------------------
    def alloc(self, nbytes: int) -> None:
        """Reserve ``nbytes``; raises :class:`OutOfMemoryError` on overflow."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.injector is not None:
            self.injector.on_alloc(self, nbytes)
        if self.current + nbytes > self.capacity:
            raise OutOfMemoryError(
                f"device out of memory: requested {nbytes} bytes "
                f"with {self.current} in use of {self.capacity} capacity "
                f"({self.capacity - self.current} free)"
            )
        self.current += nbytes
        if self.current > self._peak:
            self._peak = self.current

    def free(self, nbytes: int) -> None:
        """Release ``nbytes`` previously reserved with :meth:`alloc`."""
        self.current = max(0, self.current - nbytes)

    def track(self, array: Any, scale: float = 1.0) -> None:
        """Account ``array`` (a numpy ndarray) against this pool.

        The bytes are freed automatically when the array is garbage
        collected.  Tracking the same array twice is a no-op, so wrapping an
        already-tracked buffer in a second view or Tensor is safe.
        ``scale`` adjusts the charged size (0.5 under the device's fp16
        precision mode: tensors ship at half width).
        """
        key = id(array)
        if key in self._tracked:
            return
        nbytes = int(array.nbytes * scale)
        self.alloc(nbytes)
        self._tracked[key] = self._ref(array, nbytes)

    def _ref(self, array: Any, nbytes: int) -> _TrackedRef:
        ref = _TrackedRef(array, self._release)
        ref.key = id(array)
        ref.nbytes = nbytes
        ref.hold = None
        return ref

    def hand_over(self, holder: Any, array: Any) -> None:
        """Move ``holder``'s charge to ``array``, to be freed when ``array`` is.

        Neither an alloc nor a free: the bytes stay charged and only the
        object whose collection frees them changes.  Two callers: an object
        that builds its array lazily and then keeps it (``DeclaredTensor``),
        so the charge lasts until both are gone, and ``gather_mul``, whose
        zero-size stand-in keeps the gathered rows' charge while the host
        frees the rows.  A held charge stays held: the new ref takes the old
        one's place in the hold.  ``holder`` must be tracked here.
        """
        old = self._tracked.pop(id(holder))
        # ``old`` dies with this frame, so its callback never runs.
        ref = self._ref(array, old.nbytes)
        if old.hold is not None:
            ref.hold = old.hold
            self._held[ref.hold] = ref
        self._tracked[ref.key] = ref

    def hold(self, array: Any) -> None:
        """Keep the charges of ``array`` and its bases until :meth:`release_held`.

        A graph capture holds every array its tracer sees: the device pays
        for each one until the capture ends, or later if the array lives
        longer, while the host frees it as an eager step would.  Untracked
        arrays and those already held are skipped.
        """
        while array is not None:
            ref = self._tracked.get(id(array))
            if ref is not None and ref.hold is None:
                ref.hold = len(self._held)
                self._held.append(ref)
            array = getattr(array, "base", None)

    def release_held(self) -> None:
        """End the hold: free the held charges whose arrays are gone, in hold order.

        A held array still alive is freed at its death, like any other.
        """
        held, self._held = self._held, []
        for ref in held:
            ref.hold = None
            if ref() is None:
                self.free(ref.nbytes)

    def _release(self, ref: _TrackedRef) -> None:
        if self._tracked.get(ref.key) is ref:
            del self._tracked[ref.key]
        if ref.hold is None:
            self.free(ref.nbytes)

    # ------------------------------------------------------------------
    @property
    def peak(self) -> int:
        """High-water mark of simulated usage, in bytes."""
        return self._peak

    def reset_peak(self) -> None:
        """Reset the high-water mark to the current usage."""
        self._peak = self.current
