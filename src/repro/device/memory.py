"""Simulated device memory pool with peak tracking.

Every tensor (and gradient buffer) that the engine materialises "on the GPU"
registers its byte size here.  Buffers are released when the owning numpy
array is garbage collected, which mirrors the lifetime behaviour of a real
caching allocator closely enough for the paper's purposes: activations stay
alive through the backward pass because the autograd graph references them,
so the peak naturally lands at the end of the forward pass, exactly where
PyTorch's peak sits.

The paper reads peak usage off ``nvidia-smi``; benchmarks here read it off
:meth:`MemoryPool.peak`.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation would exceed the device capacity."""


class _TrackedRef(weakref.ref):
    """Weak reference to a tracked array, carrying what its death gives back."""

    __slots__ = ("key", "nbytes")


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
        ref = _TrackedRef(array, self._release)
        ref.key = key
        ref.nbytes = nbytes
        self._tracked[key] = ref

    def _release(self, ref: _TrackedRef) -> None:
        if self._tracked.get(ref.key) is ref:
            del self._tracked[ref.key]
        self.free(ref.nbytes)

    # ------------------------------------------------------------------
    @property
    def peak(self) -> int:
        """High-water mark of simulated usage, in bytes."""
        return self._peak

    def reset_peak(self) -> None:
        """Reset the high-water mark to the current usage."""
        self._peak = self.current
