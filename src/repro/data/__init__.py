"""Datasets, loaders, and synthetic corpus generators."""

from .dataset import ArrayDataset, Dataset, class_counts, class_indices
from .loader import DataLoader, batch_iterator
from .synthetic import (
    SyntheticCIFAR,
    SyntheticConfig,
    SyntheticImageClassification,
    SyntheticMNIST,
    make_prototypes,
)

__all__ = [
    "Dataset",
    "ArrayDataset",
    "class_counts",
    "class_indices",
    "DataLoader",
    "batch_iterator",
    "SyntheticConfig",
    "SyntheticImageClassification",
    "SyntheticMNIST",
    "SyntheticCIFAR",
    "make_prototypes",
]
