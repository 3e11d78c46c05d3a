"""Layer catalogue of the numpy deep-learning substrate."""

from .activations import ReLU
from .blocks import DenseBlock, ResidualBlock, TransitionLayer
from .container import Sequential
from .conv import Conv2D
from .dense import Dense
from .dropout import Dropout
from .normalization import BatchNorm2D
from .pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from .reshape import Flatten

__all__ = [
    "ReLU",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool2D",
    "BatchNorm2D",
    "Dropout",
    "Flatten",
    "Sequential",
    "ResidualBlock",
    "DenseBlock",
    "TransitionLayer",
]
