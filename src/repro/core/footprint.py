"""Data-flow footprints.

A footprint is the record of how one input flowed through the instrumented
model: the probe distribution at every hidden layer (the *trajectory*), the
model's own final distribution, the resulting prediction, and — when known —
the true label.  Footprints are what DeepMorph compares against class
execution patterns to reason about defects.

The diagnosis pipelines carry footprints as a :class:`FootprintBatch`: the
``(N, L, C)`` trajectories and ``(N,)`` predictions and labels of a whole
batch, as :meth:`FootprintExtractor.from_arrays` returns them.  Indexing or
iterating a batch yields one :class:`Footprint` per case for drill-down.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence as SequenceABC
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..analysis.trajectory import check_trajectory, check_trajectory_stack
from ..exceptions import ConfigurationError, ShapeError
from ..obs import span as obs_span
from .instrument import SoftmaxInstrumentedModel

__all__ = ["Footprint", "FootprintBatch", "FootprintExtractor", "validate_labels"]


def validate_labels(labels, num_classes: Optional[int] = None) -> np.ndarray:
    """Return ``labels`` as an int64 array of class ids, or raise naming ``labels``.

    Integer labels pass, and so do floats that are finite and integral
    (``3.0`` is class 3).  Booleans, non-integral or non-finite floats,
    strings and any other non-numeric values raise
    :class:`~repro.exceptions.ConfigurationError`.  With ``num_classes``,
    every label must also lie in ``[0, num_classes)``; without it, a float
    label must fit in int64.  Ranges are checked before the cast, so the
    error reports the labels as given.
    """
    array = np.asarray(labels)
    kind = array.dtype.kind
    # numpy reads [True, 2] as integers, so a list is checked element-wise.
    if kind == "b" or (
        isinstance(labels, (list, tuple))
        and any(isinstance(value, (bool, np.bool_)) for value in labels)
    ):
        raise ConfigurationError("labels must be integer class ids, got booleans")
    if kind == "f":
        if not np.all(np.isfinite(array)) or np.any(array != np.floor(array)):
            raise ConfigurationError(
                "labels must be integer class ids, got non-integral or non-finite values"
            )
    elif kind not in "iu":
        raise ConfigurationError(
            f"labels must be integer class ids, got values of dtype {array.dtype}"
        )
    if num_classes is not None:
        low, high = 0, num_classes
    elif kind == "f":
        low, high = -(2**63), 2**63  # what int64 holds
    else:
        low = high = None
    if low is not None and array.size and (array.min() < low or array.max() >= high):
        raise ConfigurationError(
            f"labels must be class ids in [{low}, {high}), got range "
            f"[{array.min()}, {array.max()}]"
        )
    return array.astype(np.int64, copy=False)


# FootprintBatch rows are views into a batch that FootprintExtractor.from_arrays
# validated once, so building them skips the per-case __post_init__ checks;
# the flag is thread-local so concurrent serving threads cannot leak it into
# each other's directly-constructed Footprints.
_bulk_state = threading.local()


@contextmanager
def _prevalidated():
    _bulk_state.active = True
    try:
        yield
    finally:
        _bulk_state.active = False


@dataclass(frozen=True)
class Footprint:
    """Layer-by-layer execution record of one input.

    Attributes
    ----------
    trajectory:
        ``(num_layers, num_classes)`` probe distributions, in execution order.
    final_probs:
        The model's final softmax distribution, shape ``(num_classes,)``.
    predicted:
        ``argmax`` of ``final_probs``.
    true_label:
        Ground-truth label if known, else ``None``.
    layer_names:
        Names of the instrumented layers (row labels of ``trajectory``).
    """

    trajectory: np.ndarray
    final_probs: np.ndarray
    predicted: int
    true_label: Optional[int] = None
    layer_names: Optional[tuple] = None

    def __post_init__(self):
        if getattr(_bulk_state, "active", False):
            return
        check_trajectory(self.trajectory)
        final = np.asarray(self.final_probs, dtype=np.float64)
        if final.ndim != 1:
            raise ShapeError(f"final_probs must be 1-D, got shape {final.shape}")
        if final.shape[0] != self.trajectory.shape[1]:
            raise ShapeError(
                f"final_probs has {final.shape[0]} classes but trajectory has "
                f"{self.trajectory.shape[1]}"
            )
        if not 0 <= self.predicted < final.shape[0]:
            raise ShapeError(
                f"predicted class {self.predicted} out of range for {final.shape[0]} classes"
            )

    # -- basic geometry ------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return int(self.trajectory.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.trajectory.shape[1])

    @property
    def is_misclassified(self) -> Optional[bool]:
        """Whether prediction and true label disagree (``None`` if no label)."""
        if self.true_label is None:
            return None
        return int(self.true_label) != int(self.predicted)

    @property
    def final_confidence(self) -> float:
        """The model's confidence in its own prediction."""
        return float(self.final_probs[self.predicted])

    def __repr__(self) -> str:
        truth = f", true={self.true_label}" if self.true_label is not None else ""
        return (
            f"Footprint(layers={self.num_layers}, classes={self.num_classes}, "
            f"predicted={self.predicted}{truth}, confidence={self.final_confidence:.3f})"
        )


@dataclass(frozen=True, eq=False, repr=False)
class FootprintBatch(SequenceABC):
    """The footprints of ``N`` cases as arrays, built by :meth:`FootprintExtractor.from_arrays`.

    Attributes
    ----------
    trajectories:
        ``(N, L, C)`` float64 probe distributions.
    final_probs:
        ``(N, C)`` float64 final softmax distributions.
    predicted:
        ``(N,)`` int64 ``argmax`` of ``final_probs``.
    true_labels:
        ``(N,)`` int64 ground-truth labels, or ``None`` if unknown.
    layer_names:
        Names of the instrumented layers.

    ``batch[i]`` and iteration yield :class:`Footprint` rows (views into the
    arrays); ``batch[a:b]`` is again a batch.
    """

    trajectories: np.ndarray
    final_probs: np.ndarray
    predicted: np.ndarray
    true_labels: Optional[np.ndarray] = None
    layer_names: Optional[tuple] = None

    def __len__(self) -> int:
        return int(self.trajectories.shape[0])

    def __getitem__(self, index: Union[int, slice]) -> Union[Footprint, "FootprintBatch"]:
        if isinstance(index, slice):
            return self.select(index)
        trajectory = self.trajectories[index]  # raises IndexError past the end
        with _prevalidated():
            return Footprint(
                trajectory=trajectory,
                final_probs=self.final_probs[index],
                predicted=int(self.predicted[index]),
                true_label=None if self.true_labels is None else int(self.true_labels[index]),
                layer_names=self.layer_names,
            )

    @property
    def final_confidences(self) -> np.ndarray:
        """``(N,)`` model confidence in each case's own prediction."""
        return self.final_probs[np.arange(len(self)), self.predicted]

    def select(self, rows: Union[slice, np.ndarray]) -> "FootprintBatch":
        """The batch of a subset of rows (a slice, an index array or a mask)."""
        return FootprintBatch(
            trajectories=self.trajectories[rows],
            final_probs=self.final_probs[rows],
            predicted=self.predicted[rows],
            true_labels=None if self.true_labels is None else self.true_labels[rows],
            layer_names=self.layer_names,
        )

    def misclassified(self) -> "FootprintBatch":
        """The cases whose prediction differs from their true label (needs labels)."""
        if self.true_labels is None:
            raise ConfigurationError("finding misclassified cases requires true labels")
        return self.select(self.predicted != self.true_labels)

    def __repr__(self) -> str:
        _, num_layers, num_classes = self.trajectories.shape
        labeled = ", labeled" if self.true_labels is not None else ""
        return (
            f"FootprintBatch(cases={len(self)}, layers={num_layers}, "
            f"classes={num_classes}{labeled})"
        )


class FootprintExtractor:
    """Extracts footprints from a fitted instrumented model."""

    def __init__(self, instrumented: SoftmaxInstrumentedModel, batch_size: int = 128):
        self.instrumented = instrumented
        self.batch_size = int(batch_size)

    def extract(
        self, inputs: np.ndarray, labels: Optional[Sequence[int]] = None
    ) -> FootprintBatch:
        """Extract the footprints of a batch of inputs.

        Parameters
        ----------
        inputs:
            Batch of model inputs, shape ``(n, ...)``.
        labels:
            Optional ground-truth labels, length ``n``.
        """
        inputs = np.asarray(inputs)
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape[0] != inputs.shape[0]:
                raise ShapeError(
                    f"labels and inputs disagree on batch size: "
                    f"{labels.shape[0]} vs {inputs.shape[0]}"
                )

        trajectories, final_probs = self.instrumented.layer_distributions(
            inputs, batch_size=self.batch_size
        )
        return self.from_arrays(trajectories, final_probs, labels)

    def from_arrays(
        self,
        trajectories: np.ndarray,
        final_probs: np.ndarray,
        labels: Optional[Sequence[int]] = None,
    ) -> FootprintBatch:
        """Wrap precomputed ``(trajectories, final_probs)`` arrays into a :class:`FootprintBatch`.

        The inverse of :meth:`extract_arrays`: serving layers that batch raw
        extraction arrays use this to rebuild footprints without touching
        the model again.  The whole batch is validated once (shapes,
        class-count agreement, integral labels) and predictions are one
        ``argmax``; no per-case object is built.
        """
        trajectories = check_trajectory_stack(trajectories)
        final_probs = np.asarray(final_probs, dtype=np.float64)
        if final_probs.ndim != 2:
            raise ShapeError(
                f"final_probs must be 2-D (batch, classes), got shape {final_probs.shape}"
            )
        if trajectories.shape[0] != final_probs.shape[0]:
            raise ShapeError(
                f"trajectories and final_probs disagree on batch size: "
                f"{trajectories.shape[0]} vs {final_probs.shape[0]}"
            )
        if final_probs.shape[1] != trajectories.shape[2]:
            raise ShapeError(
                f"final_probs has {final_probs.shape[1]} classes but trajectories "
                f"have {trajectories.shape[2]}"
            )
        if labels is not None:
            labels = validate_labels(labels)
            if labels.shape != (trajectories.shape[0],):
                raise ShapeError(
                    f"labels and trajectories disagree on batch size: "
                    f"{labels.shape} vs {trajectories.shape[0]}"
                )
        return FootprintBatch(
            trajectories=trajectories,
            final_probs=final_probs,
            predicted=final_probs.argmax(axis=1),
            true_labels=labels,
            layer_names=tuple(self.instrumented.layer_names),
        )

    def extract_arrays(
        self, inputs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized variant returning ``(trajectories, final_probs)`` arrays."""
        return self.instrumented.layer_distributions(
            np.asarray(inputs), batch_size=self.batch_size
        )

    def extract_coalesced(
        self, input_groups: Sequence[np.ndarray]
    ) -> List[tuple[np.ndarray, np.ndarray]]:
        """Extract several independent input groups through ONE instrumented pass.

        ``input_groups`` is a sequence of arrays, each ``(n_i, ...)`` with the
        same per-example shape.  The groups are concatenated, pushed through a
        single :meth:`SoftmaxInstrumentedModel.layer_distributions` call (so
        its fixed-size chunks run full across group boundaries), and the
        resulting arrays are split back into one ``(trajectories,
        final_probs)`` pair per group.  This is the vectorized substrate of
        the request batching engine in :mod:`repro.serve`.
        """
        total = sum(int(group.shape[0]) for group in input_groups)
        with obs_span(
            "extract.coalesced", {"num_groups": len(input_groups), "num_cases": total}
        ):
            return self.instrumented.layer_distributions_grouped(
                input_groups, batch_size=self.batch_size
            )
