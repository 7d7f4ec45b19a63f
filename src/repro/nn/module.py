"""Module system: parameter registration, train/eval mode, profiler scopes.

Mirrors ``torch.nn.Module`` in the ways the reproduction needs:

* attribute assignment auto-registers :class:`Parameter` and sub-``Module``
  objects, so ``parameters()`` walks the whole tree;
* ``__call__`` wraps ``forward`` in a device profiler *scope* named after the
  attribute the module was assigned to.  That is what lets the Fig. 3 bench
  attribute kernel time to ``conv1`` .. ``conv4`` without any model-side
  instrumentation, the way nvprof attributes kernels to NVTX ranges.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.device import current_device
from repro.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a learnable module parameter."""

    def __init__(self, data) -> None:
        if isinstance(data, Tensor):
            data = data.data
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_scope_name", None)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
            if value._scope_name is None:
                object.__setattr__(value, "_scope_name", name)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        """Register a non-learnable state array (e.g. BN running stats)."""
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    # ------------------------------------------------------------------
    # mode and gradient management
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def num_parameters(self) -> int:
        """Total number of learnable scalars."""
        return sum(p.size for p in self.parameters())

    def param_bytes(self) -> int:
        """Total parameter size in bytes (used by the DataParallel model)."""
        return sum(p.nbytes for p in self.parameters())

    # ------------------------------------------------------------------
    # state dict (checkpointing and DataParallel replica sync)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            own[name] = param.data
        for name, buf in self.named_buffers():
            own[name] = buf
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")
        for name, array in state.items():
            target = own[name]
            if target.shape != array.shape:
                raise ValueError(f"shape mismatch for {name}: {target.shape} vs {array.shape}")
            target[...] = array

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        scope = self._scope_name or type(self).__name__
        with current_device().scope(scope):
            return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"
