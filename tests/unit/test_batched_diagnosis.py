"""Parity suite pinning the batched diagnosis core to the per-case references.

Every batched kernel of the diagnosis core — the vectorized pairwise matrix,
the cross/stack divergence kernels, the array-wide trajectory statistics, the
batched specifics computation, and the single-matmul defect classifier — is
asserted to match its loop reference (``tests/reference/diagnosis_oracle.py``
and ``tests/reference/js_oracle.py``) to ``1e-12`` on random trajectory
stacks and on a real fitted library extracted under both inference dtypes,
including the edge cases (single case, single class, single layer, empty
member sets, classes without patterns).
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
    cross_js_layer_divergences,
    pairwise_trajectory_divergences,
    prepare_js_operand,
    trajectory_divergence_to_stack,
)
from repro.core import (
    DefectCaseClassifier,
    DiagnosisContext,
    FootprintSpecifics,
    PatternLibrary,
    SoftmaxInstrumentedModel,
    build_feature_matrix,
    build_feature_vector,
    compute_specifics_batch,
)
from repro.core.footprint import FootprintExtractor
from repro.exceptions import ConfigurationError, ShapeError

from tests.conftest import make_tiny_generator, make_tiny_model
from tests.reference import diagnosis_oracle, js_oracle

PARITY = 1e-12


def random_stack(rng: np.random.Generator, n: int, l: int, c: int) -> np.ndarray:
    """A random stack of N trajectories with proper per-layer distributions."""
    x = rng.random((n, l, c)) + 1e-3
    return x / x.sum(axis=2, keepdims=True)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(N, M, L)`` JS divergences through the prepared-operand kernel."""
    return cross_js_layer_divergences(prepare_js_operand(a), prepare_js_operand(b))


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
        matrix = cross(a, b)
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                expected = js_oracle.cross_layer_divergences(a[i:i + 1], b[j:j + 1])[0, 0]
                assert np.max(np.abs(matrix[i, j] - expected)) <= PARITY

    def test_cross_blocking_is_transparent(self, rng, monkeypatch):
        import repro.analysis.trajectory as trajectory_module

        a, b = random_stack(rng, 9, 3, 5), random_stack(rng, 6, 3, 5)
        full = cross(a, b)
        monkeypatch.setattr(trajectory_module, "_CROSS_BLOCK_ELEMENTS", 32)
        blocked = cross(a, b)
        assert np.array_equal(full, blocked)

    def test_cross_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            cross(random_stack(rng, 2, 3, 4), random_stack(rng, 2, 3, 5))
        with pytest.raises(ShapeError):
            cross(np.zeros((2, 3)), np.zeros((2, 3, 4)))

    def test_divergence_to_stack_matches_oracle(self, rng):
        stack = random_stack(rng, 6, 5, 4)
        reference = random_stack(rng, 1, 5, 4)[0]
        divs = trajectory_divergence_to_stack(reference, stack, late_layer_emphasis=0.8)
        expected = js_oracle.cross_divergences(stack, reference[None], 0.8)[:, 0]
        assert np.max(np.abs(divs - expected)) <= PARITY


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
            assert layers[i] == diagnosis_oracle.first_wrong_layer(stack[i], int(true[i]))
            assert depths[i] == diagnosis_oracle.trailing_commitment(stack[i], int(predicted[i]))
            expected_entropies = diagnosis_oracle.layer_entropies(stack[i])
            assert np.max(np.abs(entropies[i] - expected_entropies)) <= PARITY
            assert abs(stabilities[i] - diagnosis_oracle.belief_stability(stack[i])) <= PARITY

    @pytest.mark.parametrize(
        "rows, true, predicted, layer, depth",
        [
            # Locked onto class 0 from the first layer: never diverges (L).
            ([[0.9, 0.1]] * 3, 0, 0, 3, 1.0),
            ([[0.9, 0.1]] * 3, 0, 1, 3, 0.0),
            # The first mismatch, and only the trailing run of the prediction.
            ([[0.8, 0.2], [0.6, 0.4], [0.3, 0.7]], 0, 1, 2, 1 / 3),
            ([[0.8, 0.2], [0.6, 0.4], [0.3, 0.7]], 1, 0, 0, 0.0),
            ([[0.8, 0.2], [0.4, 0.6], [0.3, 0.7], [0.2, 0.8]], 0, 1, 1, 0.75),
            ([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1], [0.1, 0.8, 0.1]], 0, 1, 1, 2 / 3),
        ],
    )
    def test_committed_and_never_diverging_cases(self, rows, true, predicted, layer, depth):
        stack = np.array([rows] * 2)
        assert batch_divergence_layer(stack, np.full(2, true)).tolist() == [layer, layer]
        assert batch_commitment_depth(stack, np.full(2, predicted)) == pytest.approx([depth] * 2)

    def test_entropy_and_stability_extremes(self):
        profile = batch_entropy_profile(np.array([[[0.5, 0.5], [1.0, 0.0]]]))
        assert profile.shape == (1, 2)
        assert profile[0] == pytest.approx([1.0, 0.0], abs=1e-9)
        static = np.array([[[0.6, 0.4]] * 4])
        flipping = np.array([[[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]])
        assert batch_layer_stability(static) == pytest.approx([1.0])
        assert batch_layer_stability(flipping)[0] < 0.2
        assert batch_layer_stability(static[:, :1]).tolist() == [1.0]

    def test_range_validation(self, rng):
        stack = random_stack(rng, 3, 4, 5)
        with pytest.raises(ShapeError):
            batch_divergence_layer(stack, np.array([0, 1, 5]))
        with pytest.raises(ShapeError):
            batch_commitment_depth(stack, np.array([-1, 0, 1]))
        with pytest.raises(ShapeError):
            batch_divergence_layer(stack, np.array([0, 1]))
        one_layer = np.array([[[0.5, 0.5]]])
        with pytest.raises(ShapeError):
            batch_divergence_layer(one_layer, np.array([5]))
        with pytest.raises(ShapeError):
            batch_commitment_depth(one_layer, np.array([-1]))
        with pytest.raises(ShapeError):
            diagnosis_oracle.first_wrong_layer(one_layer[0], 5)


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


@pytest.fixture(scope="module", params=["float32", "float64"])
def fitted_library_and_footprints(request):
    """A fitted library plus labeled faulty footprints on the tiny task, per inference dtype."""
    generator = make_tiny_generator()
    train, test = generator.splits(n_train_per_class=12, n_test_per_class=10, rng=0)
    model = make_tiny_model()
    model.eval()
    instrumented = SoftmaxInstrumentedModel(
        model, probe_epochs=2, inference_dtype=request.param, rng=0
    ).fit(train)
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
            reference = diagnosis_oracle.specifics(fp, library)
            for key, value in reference.as_dict().items():
                assert abs(float(spec.as_dict()[key]) - float(value)) <= PARITY, key

    def test_matches_per_case_reference(self, fitted_library_and_footprints):
        library, footprints = fitted_library_and_footprints
        self._assert_parity(library, footprints)

    def test_single_case(self, fitted_library_and_footprints):
        library, footprints = fitted_library_and_footprints
        self._assert_parity(library, footprints[:1])

    def test_empty_batch(self, fitted_library_and_footprints):
        library, footprints = fitted_library_and_footprints
        assert len(compute_specifics_batch(footprints[:0], library)) == 0

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
        unlabeled = dataclasses.replace(footprints[:1], true_labels=None)
        with pytest.raises(ConfigurationError):
            compute_specifics_batch(unlabeled, library)

    def test_library_batch_queries_match_oracle(self, fitted_library_and_footprints):
        library, footprints = fitted_library_and_footprints
        stack = footprints.trajectories
        matches = library.batch_pattern_matches(stack)
        similarities, divergences = js_oracle.pattern_matches(library, stack)
        assert np.max(np.abs(matches.similarities - similarities)) <= PARITY
        assert np.max(np.abs(matches.divergences - divergences)) <= PARITY
        typicality = library.batch_nn_typicality(stack, footprints.predicted)
        expected = js_oracle.nn_typicality(library, stack, footprints.predicted)
        assert np.max(np.abs(typicality - expected)) <= PARITY

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
        stack = footprints.trajectories[:3]
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
        expected, _ = js_oracle.pattern_matches(fresh, stack)
        assert np.max(np.abs(after.similarities[:, column] - expected[:, column])) <= PARITY

    def test_pattern_overlap_matches_pair_loop(self, fitted_library_and_footprints):
        library, _ = fitted_library_and_footprints
        class_ids = library.classes()
        pairs = [
            1.0 - js_oracle.cross_divergences(
                library.patterns[a].mean_trajectory[None],
                library.patterns[b].mean_trajectory[None],
                library.late_layer_emphasis,
            )[0, 0] / np.log(2.0)
            for i, a in enumerate(class_ids)
            for b in class_ids[i + 1:]
        ]
        assert abs(library.pattern_overlap() - float(np.mean(pairs))) <= PARITY
