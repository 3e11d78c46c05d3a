"""Tests for divergences and trajectory statistics."""

import numpy as np
import pytest

from repro.analysis import (
    entropy,
    js_divergence,
    kl_divergence,
    normalize_distribution,
    normalized_entropy,
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

    @pytest.mark.parametrize("divergence", [kl_divergence, js_divergence])
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
