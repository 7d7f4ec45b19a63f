"""Neural-network modules built on the tensor engine."""

from repro.nn import functional, init
from repro.nn.activation import ReLU
from repro.nn.container import ModuleList
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.loss import accuracy, cross_entropy
from repro.nn.module import Module, Parameter
from repro.nn.normalization import BatchNorm1d

__all__ = [
    "functional",
    "init",
    "Module",
    "Parameter",
    "Linear",
    "BatchNorm1d",
    "Dropout",
    "ReLU",
    "ModuleList",
    "cross_entropy",
    "accuracy",
]
