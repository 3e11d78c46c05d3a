"""Tests for defect injection (ITD, UTD, SD)."""

import numpy as np
import pytest

from repro.data import ArrayDataset, class_counts
from repro.defects import (
    DefectType,
    InsufficientTrainingData,
    StructureDefect,
    UnreliableTrainingData,
)
from repro.exceptions import DefectInjectionError
from repro.models import AlexNet, DenseNet, LeNet, ResNet


@pytest.fixture()
def balanced_dataset():
    rng = np.random.default_rng(0)
    inputs = rng.random((100, 1, 8, 8))
    labels = np.repeat(np.arange(5), 20)
    return ArrayDataset(inputs, labels, num_classes=5, name="balanced")


class TestDefectType:
    def test_parse_case_insensitive(self):
        assert DefectType.from_string("ITD") is DefectType.ITD
        assert DefectType.from_string(" utd ") is DefectType.UTD

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            DefectType.from_string("bitrot")

    def test_injectable_excludes_none(self):
        assert DefectType.NONE not in DefectType.injectable()
        assert len(DefectType.injectable()) == 3


class TestInsufficientTrainingData:
    def test_removes_data_only_from_affected_classes(self, balanced_dataset):
        injector = InsufficientTrainingData(affected_classes=[1, 3], keep_fraction=0.25)
        injected, report = injector.apply(balanced_dataset, rng=0)
        counts = class_counts(injected)
        np.testing.assert_array_equal(counts[[0, 2, 4]], 20)
        assert counts[1] == 5 and counts[3] == 5
        assert report.defect_type is DefectType.ITD
        assert report.affected_classes == [1, 3]
        assert report.removed_per_class == {1: 15, 3: 15}
        assert report.injected_size == len(injected)

    def test_random_class_selection_is_reproducible(self, balanced_dataset):
        injector = InsufficientTrainingData(num_affected=2, keep_fraction=0.1)
        _, report_a = injector.apply(balanced_dataset, rng=7)
        _, report_b = injector.apply(balanced_dataset, rng=7)
        assert report_a.affected_classes == report_b.affected_classes

    def test_keeps_at_least_one_example_when_fraction_positive(self, balanced_dataset):
        injector = InsufficientTrainingData(affected_classes=[0], keep_fraction=0.01)
        injected, _ = injector.apply(balanced_dataset, rng=0)
        assert class_counts(injected)[0] >= 1

    def test_original_dataset_is_untouched(self, balanced_dataset):
        InsufficientTrainingData(affected_classes=[0], keep_fraction=0.1).apply(balanced_dataset, rng=0)
        np.testing.assert_array_equal(class_counts(balanced_dataset), 20)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DefectInjectionError):
            InsufficientTrainingData(keep_fraction=1.0)
        with pytest.raises(DefectInjectionError):
            InsufficientTrainingData(affected_classes=None, num_affected=0)

    def test_rejects_out_of_range_class(self, balanced_dataset):
        with pytest.raises(DefectInjectionError):
            InsufficientTrainingData(affected_classes=[9]).apply(balanced_dataset)


class TestUnreliableTrainingData:
    def test_relabels_expected_fraction(self, balanced_dataset):
        injector = UnreliableTrainingData(source_class=2, target_class=4, fraction=0.5)
        injected, report = injector.apply(balanced_dataset, rng=0)
        counts = class_counts(injected)
        assert counts[2] == 10
        assert counts[4] == 30
        assert report.relabeled_count == 10
        assert report.relabel_map == {2: 4}
        assert len(injected) == len(balanced_dataset)

    def test_inputs_are_preserved(self, balanced_dataset):
        injector = UnreliableTrainingData(source_class=0, target_class=1, fraction=0.3)
        injected, _ = injector.apply(balanced_dataset, rng=0)
        np.testing.assert_allclose(injected.inputs, balanced_dataset.inputs)

    def test_random_source_and_target_differ(self, balanced_dataset):
        injector = UnreliableTrainingData(fraction=0.2)
        _, report = injector.apply(balanced_dataset, rng=3)
        (source, target), = report.relabel_map.items()
        assert source != target

    def test_rejects_equal_source_and_target(self):
        with pytest.raises(DefectInjectionError):
            UnreliableTrainingData(source_class=1, target_class=1)

    def test_rejects_invalid_fraction(self):
        with pytest.raises(DefectInjectionError):
            UnreliableTrainingData(fraction=0.0)


class TestStructureDefect:
    def test_lenet_loses_conv_stages_and_width(self):
        model = LeNet(input_shape=(1, 14, 14), num_classes=10, rng=0)
        degraded, report = StructureDefect(keep_fraction=0.5, narrow_factor=0.5).apply(model, rng=1)
        original_convs = [n for n in model.stage_names() if n.startswith("conv")]
        degraded_convs = [n for n in degraded.stage_names() if n.startswith("conv")]
        assert len(degraded_convs) < len(original_convs)
        assert degraded.num_parameters() < model.num_parameters()
        assert report.defect_type is DefectType.SD
        assert report.removed_units

    def test_alexnet_pool_indices_stay_valid(self):
        model = AlexNet(input_shape=(1, 14, 14), num_classes=10, rng=0)
        degraded, _ = StructureDefect(keep_fraction=0.3).apply(model, rng=1)
        assert degraded.forward(np.zeros((2, 1, 14, 14))).shape == (2, 10)

    def test_resnet_block_budget_shrinks(self):
        model = ResNet(input_shape=(3, 16, 16), num_classes=10,
                       base_channels=8, block_counts=(2, 2), rng=0)
        degraded, _ = StructureDefect(keep_fraction=0.34).apply(model, rng=1)
        original_blocks = sum(1 for n in model.stage_names() if n.startswith("block"))
        degraded_blocks = sum(1 for n in degraded.stage_names() if n.startswith("block"))
        assert degraded_blocks < original_blocks
        assert degraded.forward(np.zeros((2, 3, 16, 16))).shape == (2, 10)

    def test_densenet_units_shrink(self):
        model = DenseNet(input_shape=(3, 16, 16), num_classes=10,
                         growth_rate=4, units_per_block=(3, 3), rng=0)
        degraded, _ = StructureDefect(keep_fraction=0.4).apply(model, rng=1)
        assert degraded.num_parameters() < model.num_parameters()
        assert degraded.forward(np.zeros((1, 3, 16, 16))).shape == (1, 10)

    def test_degraded_model_is_freshly_initialized(self):
        model = LeNet(input_shape=(1, 14, 14), num_classes=10, rng=0)
        degraded, _ = StructureDefect().apply(model, rng=1)
        assert degraded is not model
        # Same class count and input shape, though.
        assert degraded.num_classes == model.num_classes
        assert degraded.input_shape == model.input_shape

    def test_rejects_invalid_fractions(self):
        with pytest.raises(DefectInjectionError):
            StructureDefect(keep_fraction=0.0)
        with pytest.raises(DefectInjectionError):
            StructureDefect(narrow_factor=1.5)

    def test_rejects_unknown_architecture_config(self):
        with pytest.raises(DefectInjectionError):
            StructureDefect().apply_to_config({
                "kind": "transformer",
                "input_shape": [1, 14, 14],
                "num_classes": 10,
                "hyperparameters": {},
            })
