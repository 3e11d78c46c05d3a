"""Parity suite pinning the batched diagnosis core to the per-case references.

Every batched kernel of the diagnosis core — the vectorized pairwise matrix,
the cross/stack divergence kernels, the array-wide trajectory statistics, the
batched specifics computation, and the single-matmul defect classifier — is
asserted to match its loop reference (the per-case library API and
``tests/reference/diagnosis_oracle.py``) to ``1e-12`` on random trajectory
stacks and on a real fitted library, including the edge cases (single case,
single class, single layer, empty member sets, classes without patterns).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.trajectory import (
    batch_commitment_depth,
    batch_divergence_layer,
    batch_entropy_profile,
    batch_layer_stability,
    batch_trajectory_divergence,
    batch_trajectory_similarity,
    commitment_depth,
    cross_trajectory_divergences,
    divergence_layer,
    entropy_profile,
    layer_stability,
    pairwise_trajectory_divergences,
    trajectory_divergence,
    trajectory_similarity,
)
from repro.core import (
    DefectCaseClassifier,
    DiagnosisContext,
    FootprintSpecifics,
    PatternLibrary,
    SoftmaxInstrumentedModel,
    build_feature_matrix,
    build_feature_vector,
    compute_specifics,
    compute_specifics_batch,
)
from repro.core.footprint import FootprintExtractor
from repro.exceptions import ConfigurationError, ShapeError

from tests.conftest import make_tiny_generator, make_tiny_model
from tests.reference import diagnosis_oracle

PARITY = 1e-12


def random_stack(rng: np.random.Generator, n: int, l: int, c: int) -> np.ndarray:
    """A random stack of N trajectories with proper per-layer distributions."""
    x = rng.random((n, l, c)) + 1e-3
    return x / x.sum(axis=2, keepdims=True)


class TestBatchedTrajectoryKernels:
    @pytest.mark.parametrize("shape", [(7, 5, 10), (1, 4, 6), (3, 1, 4), (12, 6, 2)])
    @pytest.mark.parametrize("emphasis", [0.0, 0.5, 1.0])
    def test_pairwise_matches_loop_reference(self, rng, shape, emphasis):
        stack = random_stack(rng, *shape)
        fast = pairwise_trajectory_divergences(stack, late_layer_emphasis=emphasis)
        slow = diagnosis_oracle.pairwise_trajectory_divergences(
            stack, late_layer_emphasis=emphasis
        )
        assert fast.shape == slow.shape == (shape[0], shape[0])
        assert np.max(np.abs(fast - slow)) <= PARITY
        assert np.max(np.abs(fast - fast.T)) <= PARITY
        assert np.all(np.diag(fast) == 0.0)

    def test_pairwise_empty_stack(self):
        assert pairwise_trajectory_divergences(np.zeros((0, 3, 4))).shape == (0, 0)

    def test_cross_matches_per_pair_loop(self, rng):
        a, b = random_stack(rng, 5, 4, 6), random_stack(rng, 8, 4, 6)
        matrix = cross_trajectory_divergences(a, b, late_layer_emphasis=0.7)
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                expected = trajectory_divergence(a[i], b[j], late_layer_emphasis=0.7)
                assert abs(matrix[i, j] - expected) <= PARITY

    def test_cross_blocking_is_transparent(self, rng, monkeypatch):
        import repro.analysis.trajectory as trajectory_module

        a, b = random_stack(rng, 9, 3, 5), random_stack(rng, 6, 3, 5)
        full = cross_trajectory_divergences(a, b)
        monkeypatch.setattr(trajectory_module, "_CROSS_BLOCK_ELEMENTS", 32)
        blocked = cross_trajectory_divergences(a, b)
        assert np.array_equal(full, blocked)

    def test_cross_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            cross_trajectory_divergences(random_stack(rng, 2, 3, 4), random_stack(rng, 2, 3, 5))
        with pytest.raises(ShapeError):
            cross_trajectory_divergences(np.zeros((2, 3)), np.zeros((2, 3, 4)))

    def test_batch_divergence_and_similarity_to_reference(self, rng):
        stack = random_stack(rng, 6, 5, 4)
        reference = random_stack(rng, 1, 5, 4)[0]
        divs = batch_trajectory_divergence(stack, reference, late_layer_emphasis=0.8)
        sims = batch_trajectory_similarity(stack, reference, late_layer_emphasis=0.8)
        for i in range(stack.shape[0]):
            assert abs(divs[i] - trajectory_divergence(stack[i], reference, 0.8)) <= PARITY
            assert abs(sims[i] - trajectory_similarity(stack[i], reference, 0.8)) <= PARITY


class TestBatchedTrajectoryStatistics:
    @pytest.mark.parametrize("shape", [(9, 5, 6), (1, 5, 6), (4, 1, 3)])
    def test_statistics_match_per_case(self, rng, shape):
        stack = random_stack(rng, *shape)
        n, _, c = shape
        true = np.asarray(rng.integers(0, c, n))
        predicted = np.asarray(rng.integers(0, c, n))
        layers = batch_divergence_layer(stack, true)
        depths = batch_commitment_depth(stack, predicted)
        entropies = batch_entropy_profile(stack)
        stabilities = batch_layer_stability(stack)
        for i in range(n):
            assert layers[i] == divergence_layer(stack[i], int(true[i]))
            assert depths[i] == commitment_depth(stack[i], int(predicted[i]))
            assert np.max(np.abs(entropies[i] - entropy_profile(stack[i]))) <= PARITY
            assert abs(stabilities[i] - layer_stability(stack[i])) <= PARITY

    def test_committed_and_never_diverging_cases(self):
        # A trajectory locked onto class 0 from the first layer.
        stack = np.tile(np.array([[0.9, 0.1], [0.9, 0.1], [0.9, 0.1]]), (2, 1, 1))
        assert np.all(batch_divergence_layer(stack, np.zeros(2, dtype=int)) == 3)
        assert np.all(batch_commitment_depth(stack, np.zeros(2, dtype=int)) == 1.0)
        assert np.all(batch_commitment_depth(stack, np.ones(2, dtype=int)) == 0.0)

    def test_range_validation(self, rng):
        stack = random_stack(rng, 3, 4, 5)
        with pytest.raises(ShapeError):
            batch_divergence_layer(stack, np.array([0, 1, 5]))
        with pytest.raises(ShapeError):
            batch_commitment_depth(stack, np.array([-1, 0, 1]))
        with pytest.raises(ShapeError):
            batch_divergence_layer(stack, np.array([0, 1]))


def make_specifics(rng: np.random.Generator) -> FootprintSpecifics:
    values = rng.random(12)
    return FootprintSpecifics(
        predicted=1,
        true_label=0,
        final_confidence=float(values[0]),
        commitment=float(values[1]),
        match_predicted=float(values[2]),
        match_true=float(values[3]),
        best_match=float(values[4]),
        best_match_class=2,
        atypicality_true=float(values[5]),
        mean_entropy=float(values[6]),
        early_entropy=float(values[7]),
        divergence_point=float(values[8]),
        stability=float(values[9]),
        late_entropy=float(values[10]),
        nn_typicality_predicted=float(values[11]),
        nn_typicality_true=float(values[11] * 0.5),
    )


class TestBatchedClassifier:
    def test_feature_matrix_rows_match_vectors(self, rng):
        context = DiagnosisContext(0.3, 0.2, 0.9, 0.1)
        specifics = [make_specifics(rng) for _ in range(17)]
        matrix = build_feature_matrix(specifics, context)
        for row, s in zip(matrix, specifics):
            assert np.array_equal(row, build_feature_vector(s, context))

    @pytest.mark.parametrize("soft", [True, False])
    def test_classify_batch_matches_reference(self, rng, soft):
        from repro.core import DefectClassifierConfig

        config = DefectClassifierConfig(soft_assignment=soft, temperature=0.35)
        classifier = DefectCaseClassifier(config)
        context = DiagnosisContext(0.6, 0.1, 0.8, 0.2)
        specifics = [make_specifics(rng) for _ in range(25)]
        batched = classifier.classify_batch(specifics, context)
        for s, verdict in zip(specifics, batched):
            reference = diagnosis_oracle.classify_case(classifier, s, context)
            assert verdict.verdict == reference.verdict
            for defect in verdict.scores:
                assert abs(verdict.scores[defect] - reference.scores[defect]) <= PARITY
                assert abs(verdict.evidence[defect] - reference.evidence[defect]) <= PARITY

    def test_classify_case_is_thin_view_over_batch(self, rng):
        classifier = DefectCaseClassifier()
        s = make_specifics(rng)
        view = classifier.classify_case(s)
        reference = diagnosis_oracle.classify_case(classifier, s)
        assert view.verdict == reference.verdict
        for defect in view.scores:
            assert abs(view.scores[defect] - reference.scores[defect]) <= PARITY

    @pytest.mark.parametrize("n", [1, 40])
    def test_aggregate_matches_reference(self, rng, n):
        classifier = DefectCaseClassifier()
        context = DiagnosisContext(0.4, 0.3, 0.7, 0.0)
        specifics = [make_specifics(rng) for _ in range(n)]
        batched = classifier.aggregate(specifics, context=context)
        reference = diagnosis_oracle.aggregate(classifier, specifics, context=context)
        assert batched.num_cases == reference.num_cases == n
        for defect in batched.ratios:
            assert abs(batched.ratios[defect] - reference.ratios[defect]) <= PARITY
            assert batched.counts[defect] == reference.counts[defect]
        assert batched.dominant_defect == reference.dominant_defect

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            DefectCaseClassifier().aggregate([])
        with pytest.raises(ConfigurationError):
            diagnosis_oracle.aggregate(DefectCaseClassifier(), [])


@pytest.fixture(scope="module")
def fitted_library_and_footprints():
    """A fitted library plus labeled faulty footprints on the tiny task."""
    generator = make_tiny_generator()
    train, test = generator.splits(n_train_per_class=12, n_test_per_class=10, rng=0)
    model = make_tiny_model()
    model.eval()
    instrumented = SoftmaxInstrumentedModel(model, probe_epochs=2, rng=0).fit(train)
    library = PatternLibrary(instrumented).fit(train)
    inputs, _ = test.arrays()
    trajectories, final_probs = instrumented.layer_distributions(inputs)
    labels = (final_probs.argmax(axis=1) + 1) % generator.config.num_classes
    footprints = FootprintExtractor(instrumented).from_arrays(
        trajectories, final_probs, labels
    )
    return library, footprints


class TestBatchedSpecifics:
    def _assert_parity(self, library, footprints):
        batched = compute_specifics_batch(footprints, library)
        assert len(batched) == len(footprints)
        for fp, spec in zip(footprints, batched):
            reference = compute_specifics(fp, library)
            for key, value in reference.as_dict().items():
                assert abs(float(spec.as_dict()[key]) - float(value)) <= PARITY, key

    def test_matches_per_case_reference(self, fitted_library_and_footprints):
        library, footprints = fitted_library_and_footprints
        self._assert_parity(library, footprints)

    def test_single_case(self, fitted_library_and_footprints):
        library, footprints = fitted_library_and_footprints
        self._assert_parity(library, footprints[:1])

    def test_empty_batch(self, fitted_library_and_footprints):
        library, _ = fitted_library_and_footprints
        assert len(compute_specifics_batch([], library)) == 0

    def test_single_class_library_and_missing_patterns(self, fitted_library_and_footprints):
        """Classes without patterns fall back exactly like the per-case path."""
        library, footprints = fitted_library_and_footprints
        reduced = PatternLibrary(library.instrumented)
        only_class = min(library.patterns)
        reduced.patterns = {only_class: library.patterns[only_class]}
        reduced._training_inconsistency = 0.0
        reduced._fitted = True
        self._assert_parity(reduced, footprints)

    def test_empty_member_sets(self, fitted_library_and_footprints):
        """member_trajectories=None triggers the mean-trajectory fallback."""
        library, footprints = fitted_library_and_footprints
        stripped = PatternLibrary(library.instrumented)
        stripped.patterns = {
            class_id: dataclasses.replace(pattern, member_trajectories=None)
            for class_id, pattern in library.patterns.items()
        }
        stripped._training_inconsistency = 0.0
        stripped._fitted = True
        self._assert_parity(stripped, footprints)

    def test_requires_true_labels(self, fitted_library_and_footprints):
        library, footprints = fitted_library_and_footprints
        unlabeled = dataclasses.replace(footprints[0], true_label=None)
        with pytest.raises(ConfigurationError):
            compute_specifics_batch([unlabeled], library)

    def test_library_batch_queries_match_per_case(self, fitted_library_and_footprints):
        library, footprints = fitted_library_and_footprints
        stack = np.stack([fp.trajectory for fp in footprints])
        matches = library.batch_pattern_matches(stack)
        lookup = matches.column_lookup()
        predicted = np.asarray([fp.predicted for fp in footprints])
        typicality = library.batch_nn_typicality(stack, predicted)
        for i, fp in enumerate(footprints):
            for class_id in library.classes():
                column = lookup[class_id]
                assert abs(
                    matches.similarities[i, column] - library.similarity(fp, class_id)
                ) <= PARITY
            assert abs(
                typicality[i] - library.nn_typicality(fp, int(predicted[i]))
            ) <= PARITY

    def test_refit_replaces_patterns_wholesale(self, fitted_library_and_footprints):
        """Classes absent from a second fit must not survive from the first."""
        from repro.data import ArrayDataset

        library, _ = fitted_library_and_footprints
        generator = make_tiny_generator()
        train, _ = generator.splits(n_train_per_class=12, n_test_per_class=2, rng=1)
        refit = PatternLibrary(library.instrumented).fit(train)
        assert set(refit.patterns) == {0, 1, 2, 3}
        keep = train.labels < 2
        reduced = ArrayDataset(
            train.inputs[keep], train.labels[keep],
            num_classes=generator.config.num_classes, name="reduced",
        )
        refit.fit(reduced)
        assert set(refit.patterns) == {0, 1}
        assert refit.batch_pattern_matches(
            np.stack([refit.patterns[0].mean_trajectory])
        ).similarities.shape == (1, 2)

    def test_batch_index_invalidates_on_in_place_replacement(
        self, fitted_library_and_footprints
    ):
        """Swapping one class's pattern object must rebuild the batched stacks."""
        library, footprints = fitted_library_and_footprints
        fresh = PatternLibrary(library.instrumented)
        fresh.patterns = dict(library.patterns)
        fresh._training_inconsistency = 0.0
        fresh._fitted = True
        stack = np.stack([fp.trajectory for fp in footprints[:3]])
        before = fresh.batch_pattern_matches(stack)  # populates the cache
        class_id = min(fresh.patterns)
        replacement = dataclasses.replace(
            fresh.patterns[class_id],
            mean_trajectory=np.roll(fresh.patterns[class_id].mean_trajectory, 1, axis=1),
        )
        fresh.patterns[class_id] = replacement
        after = fresh.batch_pattern_matches(stack)
        column = after.column_lookup()[class_id]
        assert not np.allclose(before.similarities[:, column], after.similarities[:, column])
        for i, fp in enumerate(footprints[:3]):
            assert abs(
                after.similarities[i, column] - fresh.similarity(fp, class_id)
            ) <= PARITY

    def test_pattern_overlap_matches_pair_loop(self, fitted_library_and_footprints):
        library, _ = fitted_library_and_footprints
        class_ids = library.classes()
        pairs = [
            trajectory_similarity(
                library.patterns[a].mean_trajectory,
                library.patterns[b].mean_trajectory,
                late_layer_emphasis=library.late_layer_emphasis,
            )
            for i, a in enumerate(class_ids)
            for b in class_ids[i + 1:]
        ]
        assert abs(library.pattern_overlap() - float(np.mean(pairs))) <= PARITY
