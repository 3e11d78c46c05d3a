"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis import (
    js_divergence,
    kl_divergence,
    normalize_distribution,
    normalized_entropy,
)
from repro.core.classifier import error_concentration
from repro.data import ArrayDataset
from repro.defects import InsufficientTrainingData, UnreliableTrainingData
from repro.nn import functional as F
from repro.nn.layers import Dense
from repro.rng import derive_seed, ensure_rng, spawn


finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


def logits_arrays(max_rows=6, max_cols=8):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, max_rows), st.integers(2, max_cols)),
        elements=finite_floats,
    )


def distribution_pairs():
    """Two positive vectors of equal length (normalized inside the test)."""
    return st.integers(2, 10).flatmap(
        lambda k: st.tuples(
            hnp.arrays(np.float64, (k,), elements=st.floats(0.0, 10.0)),
            hnp.arrays(np.float64, (k,), elements=st.floats(0.0, 10.0)),
        )
    )


class TestSoftmaxProperties:
    @given(logits_arrays())
    @settings(max_examples=60, deadline=None)
    def test_softmax_is_a_distribution(self, logits):
        probs = F.softmax(logits, axis=1)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @given(logits_arrays(), st.floats(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_softmax_shift_invariance(self, logits, shift):
        np.testing.assert_allclose(
            F.softmax(logits, axis=1), F.softmax(logits + shift, axis=1), atol=1e-9
        )

    @given(st.integers(2, 12), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_one_hot_rows_sum_to_one(self, num_classes, n):
        labels = np.arange(n) % num_classes
        onehot = F.one_hot(labels, num_classes)
        np.testing.assert_allclose(onehot.sum(axis=1), 1.0)
        assert onehot.max() == 1.0 and onehot.min() == 0.0


class TestDivergenceProperties:
    @given(distribution_pairs())
    @settings(max_examples=80, deadline=None)
    def test_js_divergence_symmetric_bounded_nonnegative(self, pair):
        p, q = pair
        d_pq = float(js_divergence(p, q))
        d_qp = float(js_divergence(q, p))
        assert d_pq == pytest.approx(d_qp, abs=1e-9)
        assert -1e-12 <= d_pq <= np.log(2) + 1e-9

    @given(distribution_pairs())
    @settings(max_examples=60, deadline=None)
    def test_kl_divergence_nonnegative(self, pair):
        p, q = pair
        assert float(kl_divergence(p, q)) >= -1e-9

    @given(hnp.arrays(np.float64, (6,), elements=st.floats(0.0, 100.0)))
    @settings(max_examples=60, deadline=None)
    def test_normalize_distribution_output_is_valid(self, raw):
        p = normalize_distribution(raw)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-9)
        assert 0.0 - 1e-9 <= float(normalized_entropy(p)) <= 1.0 + 1e-9


class TestDenseLinearityProperty:
    @given(
        hnp.arrays(np.float64, (3, 5), elements=finite_floats),
        hnp.arrays(np.float64, (3, 5), elements=finite_floats),
    )
    @settings(max_examples=30, deadline=None)
    def test_dense_layer_is_linear(self, a, b):
        layer = Dense(5, 4, use_bias=False, rng=0)
        lhs = layer.forward(a + b)
        rhs = layer.forward(a) + layer.forward(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


class TestRngProperties:
    @given(st.integers(0, 2**20), st.text(min_size=0, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_derive_seed_is_deterministic_and_in_range(self, base, label):
        a = derive_seed(base, label)
        b = derive_seed(base, label)
        assert a == b
        assert 0 <= a < 2**32

    @given(st.integers(0, 1000), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_spawn_produces_independent_streams(self, seed, n):
        children = spawn(seed, n)
        assert len(children) == n
        first_draws = [child.integers(0, 2**31) for child in children]
        # Re-spawning reproduces the exact same streams.
        again = [child.integers(0, 2**31) for child in spawn(seed, n)]
        assert first_draws == again


class TestDefectInjectionProperties:
    @staticmethod
    def _dataset(num_classes, per_class, seed):
        rng = ensure_rng(seed)
        inputs = rng.random((num_classes * per_class, 1, 4, 4))
        labels = np.repeat(np.arange(num_classes), per_class)
        return ArrayDataset(inputs, labels, num_classes)

    @given(
        st.integers(3, 6),
        st.integers(4, 12),
        st.floats(0.05, 0.8),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_itd_never_touches_unaffected_classes(self, num_classes, per_class, keep, seed):
        dataset = self._dataset(num_classes, per_class, seed)
        injector = InsufficientTrainingData(affected_classes=[0], keep_fraction=keep)
        injected, report = injector.apply(dataset, rng=seed)
        labels = injected.labels
        for cls in range(1, num_classes):
            assert int(np.sum(labels == cls)) == per_class
        assert 1 <= int(np.sum(labels == 0)) <= per_class
        assert report.injected_size == len(injected) <= len(dataset)

    @given(
        st.integers(3, 6),
        st.integers(4, 12),
        st.floats(0.1, 1.0),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_utd_preserves_size_and_only_moves_labels_to_target(
        self, num_classes, per_class, fraction, seed
    ):
        dataset = self._dataset(num_classes, per_class, seed)
        injector = UnreliableTrainingData(source_class=0, target_class=1, fraction=fraction)
        injected, report = injector.apply(dataset, rng=seed)
        assert len(injected) == len(dataset)
        # Labels only flow from class 0 to class 1.
        moved = report.relabeled_count
        assert int(np.sum(injected.labels == 0)) == per_class - moved
        assert int(np.sum(injected.labels == 1)) == per_class + moved
        assert 1 <= moved <= per_class


class TestErrorConcentrationProperties:
    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_concentration_is_bounded(self, labels):
        value = error_concentration(labels, num_classes=10)
        assert 0.0 <= value <= 1.0
