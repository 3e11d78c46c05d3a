"""Tests for the defect classifier, reports, and the DeepMorph facade."""

import numpy as np
import pytest

from repro.core import (
    DeepMorph,
    DefectCaseClassifier,
    DefectClassifierConfig,
    DiagnosisContext,
    FEATURE_NAMES,
    build_feature_vector,
    error_concentration,
    find_faulty_cases,
)
from repro.core.specifics import FootprintSpecifics
from repro.defects import DefectType
from repro.exceptions import ConfigurationError, DatasetError, NotFittedError


def make_specifics(**overrides) -> FootprintSpecifics:
    base = dict(
        predicted=1,
        true_label=0,
        final_confidence=0.7,
        commitment=0.5,
        match_predicted=0.7,
        match_true=0.6,
        best_match=0.75,
        best_match_class=1,
        atypicality_true=0.8,
        mean_entropy=0.5,
        early_entropy=0.6,
        divergence_point=0.2,
        stability=0.9,
        late_entropy=0.4,
        feature_quality=0.95,
        nn_typicality_predicted=0.3,
        nn_typicality_true=0.2,
    )
    base.update(overrides)
    return FootprintSpecifics(**base)


class TestErrorConcentration:
    def test_uniform_spread_is_zero(self):
        labels = list(range(10)) * 3
        assert error_concentration(labels, num_classes=10) == pytest.approx(0.0)

    def test_fully_concentrated_is_one(self):
        assert error_concentration([2] * 20, num_classes=10) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert error_concentration([], num_classes=10) == 0.0

    def test_invalid_num_classes(self):
        with pytest.raises(ConfigurationError):
            error_concentration([0], num_classes=0)


class TestClassifierConfig:
    def test_default_config_has_full_weight_rows(self):
        config = DefectClassifierConfig()
        matrix = config.weight_matrix()
        assert matrix.shape == (3, len(FEATURE_NAMES))

    def test_round_trip_from_weight_matrix(self):
        matrix = np.arange(3 * len(FEATURE_NAMES), dtype=float).reshape(3, -1)
        config = DefectClassifierConfig.from_weight_matrix(matrix, temperature=0.5)
        np.testing.assert_allclose(config.weight_matrix(), matrix)
        assert config.temperature == 0.5

    def test_invalid_configurations(self):
        with pytest.raises(ConfigurationError):
            DefectClassifierConfig(weights={DefectType.ITD: (1.0,) * len(FEATURE_NAMES)})
        with pytest.raises(ConfigurationError):
            DefectClassifierConfig(temperature=0.0)
        with pytest.raises(ConfigurationError):
            DefectClassifierConfig.from_weight_matrix(np.zeros((2, 3)))


class TestDefectCaseClassifier:
    def test_feature_vector_order_matches_names(self):
        spec = make_specifics()
        vector = build_feature_vector(spec, DiagnosisContext())
        assert vector.shape == (len(FEATURE_NAMES),)
        assert vector[0] == 1.0
        assert vector[FEATURE_NAMES.index("final_confidence")] == spec.final_confidence

    def test_scores_and_evidence(self):
        classifier = DefectCaseClassifier()
        verdict = classifier.classify_case(make_specifics(), DiagnosisContext())
        assert set(verdict.scores) == {DefectType.ITD, DefectType.UTD, DefectType.SD}
        np.testing.assert_allclose(sum(verdict.evidence.values()), 1.0)
        assert verdict.verdict in verdict.scores

    def test_hard_assignment_uses_argmax_only(self):
        config = DefectClassifierConfig(soft_assignment=False)
        classifier = DefectCaseClassifier(config)
        verdict = classifier.classify_case(make_specifics(), DiagnosisContext())
        values = sorted(verdict.evidence.values())
        assert values == [0.0, 0.0, 1.0]

    def test_weights_steer_the_verdict(self):
        # A config whose SD row dominates via the bias must always say SD.
        matrix = np.zeros((3, len(FEATURE_NAMES)))
        matrix[2, 0] = 10.0
        classifier = DefectCaseClassifier(DefectClassifierConfig.from_weight_matrix(matrix))
        verdict = classifier.classify_case(make_specifics(), DiagnosisContext())
        assert verdict.verdict is DefectType.SD

    def test_aggregate_ratios_sum_to_one(self):
        classifier = DefectCaseClassifier()
        specs = [make_specifics(final_confidence=c) for c in (0.3, 0.6, 0.9)]
        report = classifier.aggregate(specs, DiagnosisContext())
        np.testing.assert_allclose(sum(report.ratios.values()), 1.0)
        assert report.num_cases == 3
        assert sum(report.counts.values()) == 3
        assert report.dominant_defect in report.ratios

    def test_aggregate_rejects_empty_list(self):
        with pytest.raises(ConfigurationError):
            DefectCaseClassifier().aggregate([], DiagnosisContext())

    def test_build_context_computes_concentration(self):
        classifier = DefectCaseClassifier()
        specs = [make_specifics(true_label=1) for _ in range(10)]
        context = classifier.build_context(specs, num_classes=10, pattern_overlap=0.2)
        assert context.error_concentration == pytest.approx(1.0)
        assert context.pattern_overlap == pytest.approx(0.2)

    def test_report_serialization_and_formatting(self):
        classifier = DefectCaseClassifier()
        report = classifier.aggregate([make_specifics()], DiagnosisContext(), metadata={"model": "lenet"})
        payload = report.as_dict()
        assert set(payload["ratios"]) == {"itd", "utd", "sd"}
        assert "ITD=" in report.format_row()
        assert "dominant defect" in report.summary()
        assert report.ratio("itd") == payload["ratios"]["itd"]


class TestDeepMorphFacade:
    def test_unfitted_diagnose_raises(self, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        with pytest.raises(NotFittedError):
            DeepMorph().diagnose(inputs, labels)

    def test_fit_and_diagnose_dataset(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        report = fitted_deepmorph.diagnose_dataset(test, metadata={"scenario": "unit-test"})
        np.testing.assert_allclose(sum(report.ratios.values()), 1.0)
        assert report.num_cases > 0
        assert report.metadata["scenario"] == "unit-test"
        assert report.context is not None

    def test_diagnose_rejects_empty_input(self, fitted_deepmorph):
        with pytest.raises(ConfigurationError):
            fitted_deepmorph.diagnose(np.zeros((0, 1, 10, 10)), np.zeros(0, dtype=int))

    def test_diagnose_rejects_all_correct_cases(self, fitted_deepmorph, tiny_splits):
        train, _ = tiny_splits
        inputs, labels = train.arrays()
        predictions = fitted_deepmorph.model.predict(inputs)
        correct = predictions == labels
        with pytest.raises(ConfigurationError):
            fitted_deepmorph.diagnose(inputs[correct][:5], labels[correct][:5])

    def test_class_count_mismatch_rejected(self, tiny_splits):
        from repro.models import LeNet

        train, _ = tiny_splits
        wrong = LeNet(input_shape=(1, 10, 10), num_classes=7, conv_channels=(3,),
                      dense_units=(8,), kernel_size=3, rng=0)
        with pytest.raises(ConfigurationError):
            DeepMorph().fit(wrong, train)

    def test_find_faulty_cases(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, labels, predictions = find_faulty_cases(fitted_deepmorph.model, test)
        assert inputs.shape[0] == labels.shape[0] == predictions.shape[0]
        assert np.all(labels != predictions)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_find_faulty_cases_rejects_non_positive_batch_size(
        self, fitted_deepmorph, tiny_splits, batch_size
    ):
        _, test = tiny_splits
        with pytest.raises(ConfigurationError, match="batch_size"):
            find_faulty_cases(fitted_deepmorph.model, test, batch_size=batch_size)

    def test_find_faulty_cases_is_independent_of_batch_size(
        self, fitted_deepmorph, tiny_splits
    ):
        from repro.data import Dataset

        class RowDataset(Dataset):
            """Not array-backed: batches are assembled through ``__getitem__``."""

            def __init__(self, base):
                self.base = base

            @property
            def num_classes(self):
                return self.base.num_classes

            @property
            def input_shape(self):
                return self.base.input_shape

            def __len__(self):
                return len(self.base)

            def __getitem__(self, index):
                return self.base[index]

        _, test = tiny_splits
        expected = find_faulty_cases(fitted_deepmorph.model, test)
        assert expected[0].shape[0] >= 1
        lazy = RowDataset(test)
        for dataset in (test, lazy):
            for batch_size in (1, 7):
                found = find_faulty_cases(
                    fitted_deepmorph.model, dataset, batch_size=batch_size
                )
                for got, want in zip(found, expected):
                    np.testing.assert_array_equal(got, want)

    def test_find_faulty_cases_empty_dataset(self, fitted_deepmorph):
        from repro.data import ArrayDataset

        empty = ArrayDataset(np.zeros((0, 1, 10, 10)), np.zeros(0, dtype=int), 4)
        with pytest.raises(DatasetError):
            find_faulty_cases(fitted_deepmorph.model, empty)

    def test_probe_accuracies_exposed(self, fitted_deepmorph):
        accuracies = fitted_deepmorph.probe_accuracies()
        assert set(accuracies) == set(fitted_deepmorph.model.hidden_layer_names())
