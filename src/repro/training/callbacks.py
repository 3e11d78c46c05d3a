"""The training-callback interface.

Callbacks observe the training loop: they receive the record of every finished
epoch and may request early termination.  They never mutate the model — that
keeps the trainer's control flow easy to reason about.
"""

from __future__ import annotations

from .history import EpochRecord

__all__ = ["Callback"]


class Callback:
    """Base class of training callbacks."""

    def on_train_begin(self) -> None:
        """Called once before the first epoch."""

    def on_epoch_end(self, record: EpochRecord) -> None:
        """Called after every epoch with that epoch's metrics."""

    def on_train_end(self) -> None:
        """Called once after the last epoch."""

    def should_stop(self) -> bool:
        """Whether training should terminate before the next epoch."""
        return False
