"""Dataset abstractions.

A :class:`Dataset` is an indexable collection of ``(input, label)`` pairs
with a known class count.  :class:`ArrayDataset` (numpy-array backed) is the
concrete type used throughout the library; its :meth:`~ArrayDataset.select`
and :meth:`~ArrayDataset.with_labels` build the subsampled and relabelled
training sets that defect injection needs.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DatasetError, ShapeError

__all__ = [
    "Dataset",
    "ArrayDataset",
    "class_counts",
    "class_indices",
]


class Dataset:
    """Abstract indexable dataset of ``(input, label)`` pairs."""

    @property
    def num_classes(self) -> int:
        raise NotImplementedError

    @property
    def input_shape(self) -> Tuple[int, ...]:
        """Shape of a single input, excluding the batch dimension."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialize the whole dataset as ``(inputs, labels)`` arrays."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Tuple[np.ndarray, int]]:
        for i in range(len(self)):
            yield self[i]


class ArrayDataset(Dataset):
    """Dataset backed by in-memory numpy arrays.

    Parameters
    ----------
    inputs:
        Array of shape ``(n, ...)``.
    labels:
        Integer array of shape ``(n,)`` with values in ``[0, num_classes)``.
    num_classes:
        Total number of classes.  Must be given explicitly (it cannot be
        inferred reliably from labels when a defect removed whole classes).
    class_names:
        Optional human-readable names, one per class.
    name:
        Dataset name used in reports.
    """

    def __init__(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        class_names: Optional[Sequence[str]] = None,
        name: str = "dataset",
    ):
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
        if inputs.shape[0] != labels.shape[0]:
            raise ShapeError(
                f"inputs and labels disagree on size: {inputs.shape[0]} vs {labels.shape[0]}"
            )
        if num_classes <= 0:
            raise DatasetError(f"num_classes must be positive, got {num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise DatasetError(
                f"labels must lie in [0, {num_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        if class_names is not None and len(class_names) != num_classes:
            raise DatasetError(
                f"class_names has {len(class_names)} entries but num_classes={num_classes}"
            )

        self._inputs = inputs
        self._labels = labels.astype(np.int64)
        self._num_classes = int(num_classes)
        self.class_names = list(class_names) if class_names is not None else [
            str(i) for i in range(num_classes)
        ]
        self.name = name

    @property
    def num_classes(self) -> int:
        return self._num_classes

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return tuple(self._inputs.shape[1:])

    @property
    def inputs(self) -> np.ndarray:
        return self._inputs

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def __len__(self) -> int:
        return int(self._inputs.shape[0])

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self._inputs[index], int(self._labels[index])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._inputs, self._labels

    def select(self, indices: np.ndarray, name: Optional[str] = None) -> "ArrayDataset":
        """A new dataset containing only the rows at ``indices`` (copies)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ArrayDataset(
            self._inputs[indices],
            self._labels[indices],
            self._num_classes,
            class_names=self.class_names,
            name=name or f"{self.name}[selected]",
        )

    def with_labels(self, labels: np.ndarray, name: Optional[str] = None) -> "ArrayDataset":
        """A new dataset with the same inputs and replaced labels (used by UTD injection)."""
        return ArrayDataset(
            self._inputs,
            np.asarray(labels),
            self._num_classes,
            class_names=self.class_names,
            name=name or f"{self.name}[relabeled]",
        )

    def __repr__(self) -> str:
        return (
            f"ArrayDataset(name={self.name!r}, n={len(self)}, "
            f"input_shape={self.input_shape}, classes={self.num_classes})"
        )


def class_indices(labels: np.ndarray, num_classes: int) -> Dict[int, np.ndarray]:
    """Map each class id to the indices of its examples."""
    labels = np.asarray(labels)
    return {c: np.nonzero(labels == c)[0] for c in range(num_classes)}


def class_counts(dataset: Dataset) -> np.ndarray:
    """Number of examples per class."""
    _, labels = dataset.arrays()
    counts = np.zeros(dataset.num_classes, dtype=np.int64)
    for c in range(dataset.num_classes):
        counts[c] = int(np.sum(labels == c))
    return counts
