"""Tests for divergences, trajectory statistics, and calibration metrics."""

import numpy as np
import pytest

from repro.analysis import (
    brier_score,
    cosine_similarity,
    entropy,
    expected_calibration_error,
    js_distance,
    js_divergence,
    js_similarity,
    kl_divergence,
    normalize_distribution,
    normalized_entropy,
    reliability_diagram,
    total_variation,
)
from repro.analysis.trajectory import (
    pairwise_trajectory_divergences,
    trajectory_divergence_to_stack,
)
from repro.exceptions import ShapeError
from tests.reference import js_oracle


class TestDivergences:
    def test_kl_zero_for_identical(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_kl_positive_for_different(self):
        assert kl_divergence([0.9, 0.1], [0.1, 0.9]) > 0

    def test_js_symmetric_and_bounded(self):
        p, q = np.array([0.9, 0.1]), np.array([0.1, 0.9])
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p))
        assert 0 <= js_divergence(p, q) <= np.log(2) + 1e-12

    def test_js_similarity_range(self):
        assert js_similarity([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
        assert js_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-9)

    def test_js_distance_is_sqrt_of_divergence(self):
        p, q = np.array([0.7, 0.3]), np.array([0.4, 0.6])
        assert js_distance(p, q) == pytest.approx(np.sqrt(js_divergence(p, q)))

    def test_total_variation(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
        assert total_variation([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0)

    def test_cosine_similarity(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_entropy_uniform_is_log_k(self):
        assert entropy([0.25] * 4) == pytest.approx(np.log(4))
        assert normalized_entropy([0.25] * 4) == pytest.approx(1.0)
        assert normalized_entropy([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-9)

    def test_normalize_distribution_handles_zeros_and_negatives(self):
        out = normalize_distribution(np.array([-1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.sum(), 1.0)
        out = normalize_distribution(np.array([0.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            js_divergence([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_batched_divergence(self):
        p = np.array([[0.9, 0.1], [0.5, 0.5]])
        q = np.array([[0.9, 0.1], [0.1, 0.9]])
        divs = js_divergence(p, q, axis=1)
        assert divs.shape == (2,)
        assert divs[0] == pytest.approx(0.0, abs=1e-12)
        assert divs[1] > 0

    @pytest.mark.parametrize("divergence", [kl_divergence, js_divergence, total_variation])
    def test_axis_selects_the_normalized_axis(self, divergence):
        """Unnormalized rows: the distributions along ``axis`` are what gets compared."""
        rng = np.random.default_rng(3)
        p, q = rng.random((3, 5)), rng.random((3, 5))
        np.testing.assert_allclose(
            divergence(p.T, q.T, axis=0), divergence(p, q, axis=1), rtol=0, atol=1e-15
        )


def make_trajectory(rows):
    return np.array(rows, dtype=np.float64)


class TestTrajectoryStatistics:
    def test_trajectory_divergence_to_itself_is_zero(self):
        traj = make_trajectory([[0.5, 0.5], [0.9, 0.1]])
        assert trajectory_divergence_to_stack(traj, traj[None]) == pytest.approx([0.0], abs=1e-12)

    def test_stack_divergence_matches_oracle(self):
        rng = np.random.default_rng(0)
        traj = rng.dirichlet(np.ones(3), size=4)
        stack = rng.dirichlet(np.ones(3), size=(5, 4))
        batch = trajectory_divergence_to_stack(traj, stack)
        np.testing.assert_allclose(
            batch, js_oracle.cross_divergences(stack, traj[None])[:, 0], atol=1e-12
        )

    def test_pairwise_divergences_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(1)
        stack = rng.dirichlet(np.ones(3), size=(4, 2))
        matrix = pairwise_trajectory_divergences(stack)
        np.testing.assert_allclose(np.diag(matrix), 0.0)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)

    def test_stack_shape_mismatch_rejected(self):
        traj = make_trajectory([[0.5, 0.5]])
        with pytest.raises(ShapeError):
            trajectory_divergence_to_stack(traj, np.full((2, 1, 3), 1 / 3))


class TestCalibrationMetrics:
    def test_perfectly_calibrated_predictions(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 0])
        assert expected_calibration_error(probs, labels) == pytest.approx(0.0)
        assert brier_score(probs, labels) == pytest.approx(0.0)

    def test_overconfident_wrong_predictions(self):
        probs = np.array([[1.0, 0.0]] * 4)
        labels = np.array([1, 1, 1, 1])
        assert expected_calibration_error(probs, labels) == pytest.approx(1.0)
        assert brier_score(probs, labels) == pytest.approx(2.0)

    def test_reliability_diagram_bins(self):
        probs = np.array([[0.55, 0.45], [0.95, 0.05]])
        labels = np.array([0, 0])
        bins = reliability_diagram(probs, labels, num_bins=10)
        assert len(bins) == 10
        assert sum(b.count for b in bins) == 2

    def test_empty_inputs(self):
        assert expected_calibration_error(np.zeros((0, 2)), np.zeros(0, dtype=int)) == 0.0
        assert brier_score(np.zeros((0, 2)), np.zeros(0, dtype=int)) == 0.0
