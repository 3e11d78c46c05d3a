"""Tests for softmax instrumentation, footprints, patterns, and specifics."""

import numpy as np
import pytest

from repro.core import (
    Footprint,
    FootprintExtractor,
    PatternLibrary,
    SoftmaxInstrumentedModel,
    SoftmaxProbe,
    compute_specifics_batch,
    pool_activation,
)
from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from tests.conftest import make_tiny_model


class TestPoolActivation:
    def test_dense_activations_pass_through(self):
        x = np.random.default_rng(0).random((5, 7))
        np.testing.assert_allclose(pool_activation(x), x)

    def test_small_conv_activations_are_flattened(self):
        x = np.random.default_rng(0).random((5, 3, 4, 4))
        out = pool_activation(x, max_spatial=4)
        assert out.shape == (5, 3 * 16)

    def test_large_conv_activations_are_pooled(self):
        x = np.ones((2, 3, 12, 12))
        out = pool_activation(x, max_spatial=4)
        assert out.shape == (2, 3 * 16)
        np.testing.assert_allclose(out, 1.0)

    def test_rejects_3d_input(self):
        with pytest.raises(ShapeError):
            pool_activation(np.zeros((2, 3, 4)))


class TestSoftmaxProbe:
    def test_fit_and_predict_proba(self):
        rng = np.random.default_rng(0)
        # Two linearly separable blobs.
        features = np.vstack([rng.normal(-2, 0.3, size=(30, 5)), rng.normal(2, 0.3, size=(30, 5))])
        labels = np.repeat([0, 1], 30)
        probe = SoftmaxProbe("layer", num_classes=2, epochs=20, rng=0)
        probe.fit(features, labels)
        probs = probe.predict_proba(features)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert probe.training_accuracy > 0.95
        assert probe.validation_accuracy > 0.9

    def test_predict_before_fit_raises(self):
        probe = SoftmaxProbe("layer", num_classes=3)
        with pytest.raises(NotFittedError):
            probe.predict_proba(np.zeros((2, 4)))

    def test_feature_dimension_mismatch_after_fit(self):
        probe = SoftmaxProbe("layer", num_classes=2, epochs=2, rng=0)
        probe.fit(np.random.default_rng(0).random((10, 4)), np.repeat([0, 1], 5))
        with pytest.raises(ShapeError):
            probe.predict_proba(np.zeros((2, 5)))

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SoftmaxProbe("layer", num_classes=1)
        with pytest.raises(ConfigurationError):
            SoftmaxProbe("layer", num_classes=3, epochs=0)
        with pytest.raises(ConfigurationError):
            SoftmaxProbe("layer", num_classes=3, validation_fraction=1.0)


class TestSoftmaxInstrumentedModel:
    def test_fit_trains_one_probe_per_hidden_layer(self, trained_tiny_model, tiny_splits):
        train, _ = tiny_splits
        instrumented = SoftmaxInstrumentedModel(trained_tiny_model, probe_epochs=3, rng=0).fit(train)
        assert instrumented.is_fitted
        assert instrumented.num_layers == len(trained_tiny_model.hidden_layer_names())
        accuracies = instrumented.probe_accuracies()
        assert set(accuracies) == set(trained_tiny_model.hidden_layer_names())
        assert all(0.0 <= v <= 1.0 for v in accuracies.values())
        assert 0.0 <= instrumented.feature_quality() <= 1.0

    def test_layer_distributions_shapes(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, _ = test.arrays()
        trajectories, final = fitted_deepmorph.instrumented.layer_distributions(inputs[:6])
        assert trajectories.shape == (6, fitted_deepmorph.instrumented.num_layers, test.num_classes)
        np.testing.assert_allclose(trajectories.sum(axis=2), 1.0, atol=1e-9)
        np.testing.assert_allclose(final.sum(axis=1), 1.0, atol=1e-9)

    def test_unknown_layer_name_rejected(self, trained_tiny_model):
        with pytest.raises(ConfigurationError):
            SoftmaxInstrumentedModel(trained_tiny_model, layer_names=["nope"])

    def test_unfitted_access_raises(self, trained_tiny_model):
        instrumented = SoftmaxInstrumentedModel(trained_tiny_model)
        with pytest.raises(NotFittedError):
            instrumented.probe_accuracies()
        with pytest.raises(NotFittedError):
            instrumented.layer_distributions(np.zeros((1, 1, 10, 10)))

    def test_backbone_parameters_are_untouched_by_fit(self, tiny_splits):
        train, _ = tiny_splits
        model = make_tiny_model()
        before = [p.data.copy() for p in model.parameters()]
        SoftmaxInstrumentedModel(model, probe_epochs=2, rng=0).fit(train)
        after = [p.data for p in model.parameters()]
        for b, a in zip(before, after):
            np.testing.assert_allclose(b, a)


class TestFootprint:
    def _footprint(self, true_label=0):
        trajectory = np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1], [0.1, 0.8, 0.1]])
        final = np.array([0.15, 0.75, 0.1])
        return Footprint(trajectory=trajectory, final_probs=final, predicted=1, true_label=true_label)

    def test_basic_properties(self):
        fp = self._footprint()
        assert fp.num_layers == 3
        assert fp.num_classes == 3
        assert fp.is_misclassified is True
        assert fp.final_confidence == pytest.approx(0.75)

    def test_missing_label(self):
        fp = Footprint(
            trajectory=np.array([[0.5, 0.5]]), final_probs=np.array([0.5, 0.5]), predicted=0
        )
        assert fp.is_misclassified is None

    def test_validation_of_shapes(self):
        with pytest.raises(ShapeError):
            Footprint(trajectory=np.array([0.5, 0.5]), final_probs=np.array([0.5, 0.5]), predicted=0)
        with pytest.raises(ShapeError):
            Footprint(
                trajectory=np.array([[0.5, 0.5]]), final_probs=np.array([0.5, 0.5, 0.0]), predicted=0
            )

    def test_extractor_produces_labeled_footprints(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        extractor = FootprintExtractor(fitted_deepmorph.instrumented)
        footprints = extractor.extract(inputs[:5], labels[:5])
        assert len(footprints) == 5
        assert all(fp.true_label == int(labels[i]) for i, fp in enumerate(footprints))
        assert all(fp.layer_names == tuple(fitted_deepmorph.instrumented.layer_names) for fp in footprints)

    def test_extractor_label_size_mismatch(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        extractor = FootprintExtractor(fitted_deepmorph.instrumented)
        with pytest.raises(ShapeError):
            extractor.extract(inputs[:5], labels[:4])


class TestPatternLibrary:
    def test_fit_produces_pattern_per_class(self, fitted_deepmorph):
        library = fitted_deepmorph.patterns
        assert library.is_fitted
        assert library.classes() == list(range(4))
        for class_id in library.classes():
            pattern = library.pattern(class_id)
            assert pattern.mean_trajectory.shape[1] == 4
            np.testing.assert_allclose(pattern.mean_trajectory.sum(axis=1), 1.0, atol=1e-6)
            assert pattern.support > 0
            assert pattern.dispersion >= 0.0

    def test_similarity_prefers_own_class(self, fitted_deepmorph, tiny_splits):
        train, _ = tiny_splits
        inputs, labels = train.arrays()
        footprints = fitted_deepmorph.extract_footprints(inputs[:10], labels[:10])
        matches = fitted_deepmorph.patterns.batch_pattern_matches(footprints.trajectories)
        own = matches.similarities[np.arange(10), matches.column_lookup()[footprints.true_labels]]
        assert np.mean(own) > 0.5

    def test_best_match_returns_valid_class(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        footprints = fitted_deepmorph.extract_footprints(inputs[:1], labels[:1])
        spec = fitted_deepmorph.compute_specifics(footprints)[0]
        assert spec.best_match_class in fitted_deepmorph.patterns.classes()
        assert 0.0 <= spec.best_match <= 1.0

    def test_pattern_overlap_in_unit_range(self, fitted_deepmorph):
        overlap = fitted_deepmorph.patterns.pattern_overlap()
        assert 0.0 <= overlap <= 1.0

    def test_unknown_class_pattern_raises(self, fitted_deepmorph):
        with pytest.raises(KeyError):
            fitted_deepmorph.patterns.pattern(99)

    def test_unfitted_library_raises(self, fitted_deepmorph):
        library = PatternLibrary(fitted_deepmorph.instrumented)
        with pytest.raises(NotFittedError):
            library.classes()


class TestSpecifics:
    def test_compute_specifics_ranges(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        footprints = fitted_deepmorph.extract_footprints(inputs, labels)
        specs = fitted_deepmorph.compute_specifics(footprints[:10])
        for spec in specs:
            payload = spec.as_dict()
            for key, value in payload.items():
                if key in ("predicted", "true_label", "best_match_class"):
                    continue
                assert 0.0 <= value <= 1.0, f"{key}={value} out of range"

    def test_specifics_require_true_label(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, _ = test.arrays()
        unlabeled = fitted_deepmorph.extract_footprints(inputs[:1])
        with pytest.raises(ConfigurationError):
            compute_specifics_batch(unlabeled, fitted_deepmorph.patterns)


class TestGroupedExtraction:
    """The coalesced multi-group extraction APIs the serving layer builds on."""

    def test_grouped_distributions_match_per_group_calls(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, _ = test.arrays()
        instrumented = fitted_deepmorph.instrumented
        groups = [inputs[:3], inputs[3:4], inputs[4:9]]
        grouped = instrumented.layer_distributions_grouped(groups)
        assert len(grouped) == 3
        for group, (trajectories, final_probs) in zip(groups, grouped):
            direct_traj, direct_final = instrumented.layer_distributions(group)
            # Extraction runs in float32 by default; BLAS sgemm results differ
            # at float32 resolution with batch composition, so grouped and
            # per-group calls agree to ~1e-7, not bit-exactly.
            np.testing.assert_allclose(trajectories, direct_traj, atol=1e-6)
            np.testing.assert_allclose(final_probs, direct_final, atol=1e-6)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_row_depends_only_on_its_chunk(self, fitted_deepmorph, tiny_splits, dtype):
        """Probe heads run per chunk, so no matmul sees the batch's row count.

        2560 rows: enough for the BLAS kernels to take another path over the
        whole batch than over one 128-row chunk.
        """
        _, test = tiny_splits
        inputs, _ = test.arrays()
        batch = np.concatenate([inputs + 0.01 * shift for shift in range(64)])
        instrumented = fitted_deepmorph.instrumented
        previous = instrumented.inference_dtype
        instrumented.inference_dtype = np.dtype(dtype)
        try:
            whole = instrumented.layer_distributions(batch, batch_size=128)
            for start in range(0, batch.shape[0], 128):
                rows = slice(start, start + 128)
                alone = instrumented.layer_distributions(batch[rows], batch_size=128)
                assert np.array_equal(whole[0][rows], alone[0])
                assert np.array_equal(whole[1][rows], alone[1])
        finally:
            instrumented.inference_dtype = previous

    def test_grouped_handles_empty_group_and_empty_input(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, _ = test.arrays()
        instrumented = fitted_deepmorph.instrumented
        grouped = instrumented.layer_distributions_grouped([inputs[:2], inputs[:0]])
        assert grouped[0][0].shape[0] == 2
        assert grouped[1][0].shape[0] == 0
        assert instrumented.layer_distributions_grouped([]) == []
        empty_only = instrumented.layer_distributions_grouped([inputs[:0]])
        assert empty_only[0][0].shape == (0, instrumented.num_layers, instrumented.num_classes)

    def test_zero_row_batches_extract_empty_arrays(self, fitted_deepmorph, tiny_splits):
        """A 0-row batch yields (0, L, C) / (0, C) arrays and no footprints."""
        _, test = tiny_splits
        empty = test.arrays()[0][:0]
        instrumented = fitted_deepmorph.instrumented
        layers, classes = instrumented.num_layers, instrumented.num_classes

        activations, logits = instrumented.collect_activations(empty)
        assert logits.shape == (0, classes)
        for name, features in activations.items():
            assert features.shape == (0, instrumented.probes[name].num_features)
        trajectories, final_probs = instrumented.layer_distributions(empty)
        assert trajectories.shape == (0, layers, classes)
        assert final_probs.shape == (0, classes)

        extractor = FootprintExtractor(instrumented)
        trajectories, final_probs = extractor.extract_arrays(empty)
        assert trajectories.shape == (0, layers, classes)
        assert final_probs.shape == (0, classes)
        assert len(extractor.extract(empty)) == 0
        assert len(extractor.extract(empty, np.zeros(0, dtype=int))) == 0

    def test_extract_coalesced_roundtrips_through_from_arrays(self, fitted_deepmorph, tiny_splits):
        _, test = tiny_splits
        inputs, labels = test.arrays()
        extractor = FootprintExtractor(fitted_deepmorph.instrumented)
        (trajectories, final_probs), _ = extractor.extract_coalesced([inputs[:5], inputs[5:8]])
        rebuilt = extractor.from_arrays(trajectories, final_probs, labels[:5])
        direct = extractor.extract(inputs[:5], labels[:5])
        for a, b in zip(rebuilt, direct):
            # float32 extraction: agreement to float32 resolution (see above).
            np.testing.assert_allclose(a.trajectory, b.trajectory, atol=1e-6)
            assert a.predicted == b.predicted and a.true_label == b.true_label
