"""Simulated device memory pool with peak tracking.

The unit of account is a :class:`Charge`: bytes allocated once and freed
once, when its last holder drops it.  A tracked array holds its charge (an
array maps to it by identity); a backward closure, a ``DeclaredTensor`` or
the capture hold keeps one by holding a reference to it, so the device can
pay for a buffer the host has freed, or never made.  The autograd tape
holds grad nodes, and each node holds only what its backward reads, as
PyTorch's saved tensors do: an activation no backward reads is freed as
soon as the forward stops using it, and a saved one once backward has
propagated through its node.  So the peak lands at the end of the forward
pass, where PyTorch's sits.  Under graph capture the pool also holds the
charge of every array the tracer saw until the capture ends
(:meth:`MemoryPool.hold`), though the host frees the array as usual.

The paper reads peak usage off ``nvidia-smi``; benchmarks here read it off
:meth:`MemoryPool.peak`.

The host underneath is told to behave the same way.  glibc's defaults hand
large arrays to ``mmap`` and trim the heap top the moment a step's tape is
freed, so each training step faulted its ~150 MB of activations back in
page by page.  Importing this module raises both thresholds once per
process (:data:`HOST_HEAP_RETAINED`), so freed activations stay mapped for
the next step — what a caching allocator does.
``MALLOC_TRIM_THRESHOLD_`` and the other glibc malloc settings in the
environment switch this off; see docs/architecture.md, "A step keeps the
host memory it already had".
"""

from __future__ import annotations

import ctypes
import os
import weakref
from typing import Any, Dict, Tuple

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


class Charge:
    """Bytes a pool allocated (:meth:`MemoryPool.reserve`), freed when its last holder drops it.

    ``pool`` is a weak reference: the charges of a pool that is gone free nothing.
    A charge may stand in for an array the host never built (a fused op's
    interior output), so a capture tracer can name it by a weak reference.
    """

    __slots__ = ("pool", "nbytes", "__weakref__")

    def __del__(self) -> None:
        pool = self.pool()
        if pool is not None:
            pool.free(self.nbytes)


class _Holding(weakref.ref):
    """A tracked array's hold on its charge, dropped by the pool when the array dies."""

    __slots__ = ("key", "charge")


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
        # numpy arrays are unhashable, so track identities: id -> holding.
        tracked: Dict[int, _Holding] = {}

        def drop(ref: _Holding) -> None:
            # Runs while the array is collected, before its id can be reused,
            # and removes only its own entry: CPython id reuse is safe.
            if tracked.get(ref.key) is ref:
                del tracked[ref.key]

        self._tracked = tracked
        self._drop = drop
        self._weakself = weakref.ref(self)
        # The capture hold (:meth:`hold`): id -> charge, in the order first held.
        self._held: Dict[int, Charge] = {}

    # ------------------------------------------------------------------
    def alloc(self, nbytes: int) -> None:
        """Allocate ``nbytes``; raises :class:`OutOfMemoryError` on overflow."""
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
        """Release ``nbytes`` taken by :meth:`alloc`; more than is in use raises."""
        if not 0 <= nbytes <= self.current:
            raise ValueError(f"cannot free {nbytes} bytes with {self.current} in use")
        self.current -= nbytes

    def reserve(self, nbytes: int) -> Charge:
        """Allocate ``nbytes`` as a new :class:`Charge` that no array holds yet."""
        self.alloc(nbytes)
        charge = Charge()
        charge.pool, charge.nbytes = self._weakself, nbytes
        return charge

    def track(self, array: Any, scale: float = 1.0) -> Charge:
        """Charge ``array`` (a numpy ndarray) to this pool, held by the array; the charge.

        Tracking an array again returns the charge it holds, so wrapping a
        tracked buffer in a second Tensor is safe.  ``scale`` adjusts the
        charged size (0.5 under the device's fp16 precision mode).
        """
        key = id(array)
        if key in self._tracked:
            return self._tracked[key].charge
        charge = self.reserve(int(array.nbytes * scale))
        # :meth:`share`, inlined: this runs for every array an op makes.
        ref = self._tracked[key] = _Holding(array, self._drop)
        ref.key, ref.charge = key, charge
        return charge

    def share(self, array: Any, charge: Charge) -> None:
        """Make untracked ``array`` one more holder of ``charge``: no alloc, no free."""
        ref = self._tracked[id(array)] = _Holding(array, self._drop)
        ref.key, ref.charge = id(array), charge

    def charges(self, array: Any) -> Tuple[Charge, ...]:
        """The charges of ``array`` and of each numpy base under it, nearest first.

        Untracked arrays in the chain are skipped.  Holding these keeps the
        device paying for ``array`` as holding the array itself would, while
        the host may free it.
        """
        found = []
        while array is not None:
            ref = self._tracked.get(id(array))
            if ref is not None:
                found.append(ref.charge)
            array = getattr(array, "base", None)
        return tuple(found)

    def hold(self, array: Any) -> None:
        """Hold the charges of ``array`` and its bases until :meth:`release_held`.

        A graph capture holds every array its tracer sees: the device pays
        for each until the capture ends (or its last other holder goes),
        while the host frees it as an eager step would.  ``array`` may be a
        :class:`Charge` itself, held as it is.  Untracked arrays are skipped;
        a charge already held is held once.
        """
        for charge in (array,) if type(array) is Charge else self.charges(array):
            self._held.setdefault(id(charge), charge)

    def release_held(self) -> None:
        """End the hold: drop the held charges in hold order, freeing those it alone held."""
        held, self._held = self._held, {}
        for key in list(held):
            del held[key]

    # ------------------------------------------------------------------
    @property
    def peak(self) -> int:
        """High-water mark of simulated usage, in bytes."""
        return self._peak

    def reset_peak(self) -> None:
        """Reset the high-water mark to the current usage."""
        self._peak = self.current
