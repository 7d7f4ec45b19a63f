"""Adam optimizer (the paper uses Adam in every experiment, Section III-C)."""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from repro.device import current_device
from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer


class Adam(Optimizer):
    """Adam with bias correction, matching PyTorch defaults."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        device = current_device()
        self._m = []
        self._v = []
        for p in self.params:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
            device.track(m)
            device.track(v)
            self._m.append(m)
            self._v.append(v)

    def _step(self) -> None:
        device = current_device()
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            # A fused Adam would be one kernel; PyTorch's default eager Adam
            # launches several per parameter, which we mirror.
            n = grad.size
            device.launch("adam_exp_avg", 2.0 * n, 12.0 * n)
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            device.launch("adam_exp_avg_sq", 3.0 * n, 12.0 * n)
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            device.launch("adam_update", 5.0 * n, 16.0 * n)
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = super().state_dict()
        state["t"] = np.int64(self.t)
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m/{i}"] = m
            state[f"v/{i}"] = v
        return state

    def _load_state(self, state: Dict[str, np.ndarray]) -> None:
        self.t = int(state["t"])
        # Copy in place: the moment buffers are already tracked against
        # device memory, so rebinding would double-count them.
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            m[...] = state[f"m/{i}"]
            v[...] = state[f"v/{i}"]
