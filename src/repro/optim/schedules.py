"""The learning-rate schedule interface.

A schedule maps an epoch index to a learning-rate value; the trainer applies
it by assigning to ``optimizer.lr`` at the start of each epoch.
"""

from __future__ import annotations

from ..exceptions import ConfigurationError

__all__ = ["Schedule"]


class Schedule:
    """Base class of learning-rate schedules."""

    def __init__(self, base_lr: float):
        if base_lr <= 0:
            raise ConfigurationError(f"base_lr must be positive, got {base_lr}")
        self.base_lr = float(base_lr)

    def lr_at(self, epoch: int) -> float:
        """Learning rate to use during ``epoch`` (0-based)."""
        raise NotImplementedError

    def __call__(self, epoch: int) -> float:
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        return self.lr_at(epoch)
