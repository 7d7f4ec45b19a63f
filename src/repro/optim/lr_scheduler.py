"""Learning-rate schedules.

The graph-classification experiments (Section IV-B) reduce the LR by half
when the validation loss has not improved for 25 epochs and stop training
once it decays below 1e-6.  :class:`ReduceLROnPlateau` implements exactly
that protocol.
"""

from __future__ import annotations

from repro.optim.optimizer import Optimizer


class ReduceLROnPlateau:
    """Halve (by ``factor``) the LR when a monitored value plateaus."""

    def __init__(
        self,
        optimizer: Optimizer,
        factor: float = 0.5,
        patience: int = 25,
    ) -> None:
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        if patience < 0:
            raise ValueError("patience must be non-negative")
        self.optimizer = optimizer
        self.factor = factor
        self.patience = patience
        self.best = float("inf")
        self.num_bad_epochs = 0

    @property
    def lr(self) -> float:
        return self.optimizer.lr

    def step(self, metric: float) -> None:
        """Record one epoch's monitored value (lower is better)."""
        if metric < self.best:
            self.best = metric
            self.num_bad_epochs = 0
            return
        self.num_bad_epochs += 1
        if self.num_bad_epochs > self.patience:
            self.optimizer.lr *= self.factor
            self.num_bad_epochs = 0

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The schedule's mutable state (the LR itself lives on the optimizer)."""
        return {"best": self.best, "num_bad_epochs": self.num_bad_epochs}

    def load_state_dict(self, state: dict) -> None:
        self.best = float(state["best"])
        self.num_bad_epochs = int(state["num_bad_epochs"])
