"""Optimizers and LR schedules."""

from repro.optim.adam import Adam
from repro.optim.lr_scheduler import ReduceLROnPlateau
from repro.optim.optimizer import Optimizer

__all__ = ["Optimizer", "Adam", "ReduceLROnPlateau"]
