"""The Adam optimizer and the learning-rate schedule interface for the numpy substrate."""

from .optimizers import Adam, Optimizer, clip_gradients
from .schedules import Schedule

__all__ = ["Optimizer", "Adam", "clip_gradients", "Schedule"]
