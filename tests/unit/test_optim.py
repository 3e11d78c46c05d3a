"""Tests for the Adam optimizer, gradient clipping and the schedule interface."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense
from repro.nn.module import Parameter
from repro.optim import Adam, Schedule, clip_gradients


def quadratic_param(start=5.0):
    """A single scalar parameter with gradient d/dx (x^2) = 2x."""
    return Parameter(np.array([start]))


def run_steps(optimizer, param, steps=200):
    for _ in range(steps):
        param.zero_grad()
        param.accumulate_grad(2.0 * param.data)
        optimizer.step()
    return float(param.data[0])


class TestOptimizers:
    def test_adam_minimizes_quadratic(self):
        param = quadratic_param()
        final = run_steps(Adam([param], lr=0.2), param)
        assert abs(final) < 0.1

    def test_frozen_parameters_are_not_updated(self):
        param = Parameter(np.array([1.0]), trainable=False)
        param.accumulate_grad(np.array([1.0]))
        Adam([param], lr=0.1).step()
        np.testing.assert_allclose(param.data, [1.0])

    def test_weight_decay_shrinks_weights(self):
        param = Parameter(np.array([1.0]))
        param.accumulate_grad(np.array([0.0]))
        Adam([param], lr=0.1, weight_decay=0.5).step()
        assert param.data[0] < 1.0

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ConfigurationError):
            Adam([], lr=0.1)

    def test_invalid_hyperparameters(self):
        param = quadratic_param()
        with pytest.raises(ConfigurationError):
            Adam([param], lr=-1)
        with pytest.raises(ConfigurationError):
            Adam([param], lr=0.1, beta1=1.0)

    def test_zero_grad_clears_all(self):
        layer = Dense(3, 2, rng=0)
        optimizer = Adam(layer.parameters())
        layer.forward(np.ones((1, 3)))
        layer.backward(np.ones((1, 2)))
        assert any(p.grad is not None for p in layer.parameters())
        optimizer.zero_grad()
        assert all(p.grad is None for p in layer.parameters())

    def test_clip_gradients_scales_to_max_norm(self):
        params = [Parameter(np.zeros(4)) for _ in range(2)]
        for p in params:
            p.accumulate_grad(np.full(4, 3.0))
        pre_norm = clip_gradients(params, max_norm=1.0)
        assert pre_norm > 1.0
        total = np.sqrt(sum(float(np.sum(p.grad ** 2)) for p in params))
        np.testing.assert_allclose(total, 1.0, rtol=1e-9)

    def test_clip_gradients_noop_below_threshold(self):
        param = Parameter(np.zeros(2))
        param.accumulate_grad(np.array([0.1, 0.1]))
        clip_gradients([param], max_norm=10.0)
        np.testing.assert_allclose(param.grad, [0.1, 0.1])


class TestSchedules:
    def test_negative_epoch_rejected(self):
        class HalvingSchedule(Schedule):
            def lr_at(self, epoch):
                return self.base_lr * 0.5**epoch

        with pytest.raises(ValueError):
            HalvingSchedule(0.1)(-1)
