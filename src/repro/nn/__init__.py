"""Numpy deep-learning substrate: layers, losses, accuracy, initializers.

This package re-implements, from scratch and on top of numpy, the subset of a
deep-learning framework that the DeepMorph reproduction needs: layer-wise
forward/backward computation, parameter management, classification losses and
accuracy.  It deliberately exposes every intermediate activation — the raw
material of data-flow footprints.
"""

from . import functional
from .dtype import DEFAULT_DTYPE, as_compute, autocast, compute_dtype, resolve_dtype
from .initializers import (
    GlorotNormal,
    GlorotUniform,
    HeNormal,
    HeUniform,
    Initializer,
    Ones,
    RandomNormal,
    RandomUniform,
    Zeros,
    get_initializer,
)
from .layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    DenseBlock,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
    ResidualBlock,
    Sequential,
    TransitionLayer,
)
from .losses import Loss, MeanSquaredError, NegativeLogLikelihood, SoftmaxCrossEntropy, get_loss
from .metrics import accuracy
from .module import Layer, Parameter

__all__ = [
    "functional",
    "Layer",
    "Parameter",
    # dtype policy
    "DEFAULT_DTYPE",
    "autocast",
    "as_compute",
    "compute_dtype",
    "resolve_dtype",
    # layers
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "BatchNorm2D",
    "Dropout",
    "Flatten",
    "Sequential",
    "ReLU",
    "ResidualBlock",
    "DenseBlock",
    "TransitionLayer",
    # initializers
    "Initializer",
    "Zeros",
    "Ones",
    "RandomNormal",
    "RandomUniform",
    "GlorotUniform",
    "GlorotNormal",
    "HeNormal",
    "HeUniform",
    "get_initializer",
    # losses
    "Loss",
    "SoftmaxCrossEntropy",
    "NegativeLogLikelihood",
    "MeanSquaredError",
    "get_loss",
    # metrics
    "accuracy",
]
