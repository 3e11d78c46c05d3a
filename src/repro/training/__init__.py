"""Training loop, the callback interface, and history."""

from .callbacks import Callback
from .history import EpochRecord, History
from .trainer import Trainer, evaluate

__all__ = ["Trainer", "evaluate", "History", "EpochRecord", "Callback"]
