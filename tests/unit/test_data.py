"""Tests for dataset abstractions, loaders, and synthetic generators."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    SyntheticCIFAR,
    SyntheticConfig,
    SyntheticMNIST,
    batch_iterator,
    class_counts,
    class_indices,
)
from repro.exceptions import ConfigurationError, DatasetError, ShapeError


class TestArrayDataset:
    def test_basic_properties(self, small_dataset):
        assert len(small_dataset) == 30
        assert small_dataset.num_classes == 3
        assert small_dataset.input_shape == (1, 6, 6)
        x, y = small_dataset[0]
        assert x.shape == (1, 6, 6)
        assert isinstance(y, int)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ShapeError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4, dtype=int), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(DatasetError):
            ArrayDataset(np.zeros((3, 2)), np.array([0, 1, 5]), 2)

    def test_select_keeps_classes(self, small_dataset):
        subset = small_dataset.select(np.array([0, 1, 2]))
        assert len(subset) == 3
        assert subset.num_classes == small_dataset.num_classes

    def test_with_labels_replaces_labels(self, small_dataset):
        new_labels = np.zeros(len(small_dataset), dtype=int)
        relabeled = small_dataset.with_labels(new_labels)
        assert np.all(relabeled.labels == 0)
        # Original untouched.
        assert not np.all(small_dataset.labels == 0)

    def test_class_counts_and_indices(self, small_dataset):
        counts = class_counts(small_dataset)
        np.testing.assert_array_equal(counts, [10, 10, 10])
        idx = class_indices(small_dataset.labels, 3)
        assert sum(len(v) for v in idx.values()) == 30


class TestDataLoader:
    def test_batches_cover_dataset(self, small_dataset):
        loader = DataLoader(small_dataset, batch_size=7, shuffle=True, rng=0)
        seen = sum(batch_x.shape[0] for batch_x, _ in loader)
        assert seen == len(small_dataset)
        assert len(loader) == 5

    def test_drop_last(self, small_dataset):
        loader = DataLoader(small_dataset, batch_size=7, drop_last=True, rng=0)
        sizes = [x.shape[0] for x, _ in loader]
        assert all(s == 7 for s in sizes)
        assert len(loader) == 4

    def test_batch_iterator_no_shuffle_preserves_order(self):
        inputs = np.arange(10)[:, None]
        labels = np.arange(10)
        batches = list(batch_iterator(inputs, labels, 4, shuffle=False))
        np.testing.assert_array_equal(batches[0][1], [0, 1, 2, 3])
        np.testing.assert_array_equal(batches[-1][1], [8, 9])

    def test_invalid_batch_size(self, small_dataset):
        with pytest.raises(ConfigurationError):
            DataLoader(small_dataset, batch_size=0)

    def test_batch_iterator_rejects_length_mismatch(self):
        # Mismatched arrays used to truncate silently via fancy indexing.
        with pytest.raises(ShapeError, match="disagree on length"):
            list(batch_iterator(np.zeros((10, 2)), np.zeros(7), 4))


class TestSyntheticGenerators:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticConfig(num_classes=1)
        with pytest.raises(ConfigurationError):
            SyntheticConfig(channels=2)
        with pytest.raises(ConfigurationError):
            SyntheticConfig(blobs_per_template=0, bars_per_template=0)

    def test_sample_shapes_and_range(self, tiny_generator):
        data = tiny_generator.sample(5, rng=0)
        assert len(data) == 5 * tiny_generator.num_classes
        assert data.input_shape == tiny_generator.input_shape
        assert data.inputs.min() >= 0.0
        assert data.inputs.max() <= 1.5

    def test_samples_are_reproducible_from_seed(self, tiny_generator):
        a = tiny_generator.sample(3, rng=11)
        b = tiny_generator.sample(3, rng=11)
        np.testing.assert_allclose(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_train_test_splits_are_independent(self, tiny_generator):
        train, test = tiny_generator.splits(4, 4, rng=0)
        assert not np.allclose(train.inputs[:4], test.inputs[:4])

    def test_classes_are_visually_distinct(self, tiny_generator):
        # The mean image of each class should differ from every other class.
        data = tiny_generator.sample(10, rng=0)
        means = [data.inputs[data.labels == c].mean(axis=0) for c in range(data.num_classes)]
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                assert np.abs(means[i] - means[j]).mean() > 1e-3

    def test_mnist_and_cifar_shapes(self):
        assert SyntheticMNIST().input_shape == (1, 14, 14)
        assert SyntheticCIFAR().input_shape == (3, 16, 16)
        assert SyntheticMNIST().num_classes == 10

    def test_sample_class_rejects_bad_class(self, tiny_generator):
        with pytest.raises(ConfigurationError):
            tiny_generator.sample_class(99, 1)
