"""Tests for the training loop, the callback and schedule hooks, and history."""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.exceptions import ConfigurationError, DatasetError
from repro.optim import Adam, Schedule
from repro.training import Callback, EpochRecord, History, Trainer, evaluate
from tests.conftest import make_tiny_model


def easy_dataset(n_per_class=15, classes=4, size=10, seed=0):
    """A trivially separable dataset: class c has mean intensity proportional to c."""
    rng = np.random.default_rng(seed)
    inputs, labels = [], []
    for c in range(classes):
        base = np.zeros((n_per_class, 1, size, size))
        base[:, :, : c + 2, : c + 2] = 1.0
        inputs.append(base + rng.normal(0, 0.05, size=base.shape))
        labels.append(np.full(n_per_class, c))
    return ArrayDataset(np.concatenate(inputs), np.concatenate(labels), classes)


class TestTrainer:
    def test_training_reduces_loss_and_reaches_high_accuracy(self):
        data = easy_dataset()
        model = make_tiny_model()
        trainer = Trainer(model, Adam(model.parameters(), lr=0.02), rng=0)
        history = trainer.fit(data, epochs=6, batch_size=16)
        assert history[0].train_loss > history.final.train_loss
        assert history.final.train_accuracy > 0.9

    def test_validation_metrics_are_recorded(self):
        data = easy_dataset()
        val = easy_dataset(seed=1)
        model = make_tiny_model()
        trainer = Trainer(model, Adam(model.parameters(), lr=0.02), rng=0)
        history = trainer.fit(data, epochs=2, batch_size=16, validation_data=val)
        assert history.final.val_loss is not None
        assert history.final.val_accuracy is not None

    def test_schedule_changes_learning_rate(self):
        class TenfoldDecay(Schedule):
            def lr_at(self, epoch):
                return self.base_lr * 0.1**epoch

        data = easy_dataset(n_per_class=5)
        model = make_tiny_model()
        optimizer = Adam(model.parameters(), lr=1.0)
        trainer = Trainer(model, optimizer, schedule=TenfoldDecay(1.0), rng=0)
        history = trainer.fit(data, epochs=3, batch_size=8)
        rates = history.metric("learning_rate")
        assert rates[0] == pytest.approx(1.0)
        assert rates[2] == pytest.approx(0.01)

    def test_model_left_in_eval_mode(self):
        data = easy_dataset(n_per_class=5)
        model = make_tiny_model()
        Trainer(model, Adam(model.parameters()), rng=0).fit(data, epochs=1)
        assert model.training is False

    def test_rejects_empty_dataset(self):
        model = make_tiny_model()
        empty = ArrayDataset(np.zeros((0, 1, 10, 10)), np.zeros(0, dtype=int), 4)
        with pytest.raises(DatasetError):
            Trainer(model, Adam(model.parameters()), rng=0).fit(empty, epochs=1)

    def test_rejects_invalid_epochs(self):
        model = make_tiny_model()
        with pytest.raises(ConfigurationError):
            Trainer(model, Adam(model.parameters()), rng=0).fit(easy_dataset(), epochs=0)

    def test_evaluate_returns_loss_and_accuracy(self):
        data = easy_dataset(n_per_class=5)
        model = make_tiny_model()
        loss, acc = evaluate(model, data)
        assert loss > 0
        assert 0.0 <= acc <= 1.0

    def test_gradient_clipping_configuration(self):
        model = make_tiny_model()
        with pytest.raises(ConfigurationError):
            Trainer(model, Adam(model.parameters()), grad_clip_norm=0.0)


class TestCallbacks:
    def test_trainer_honours_stopping_callback(self):
        class StopAtTrainAccuracy(Callback):
            def __init__(self, target):
                self.target = target
                self.reached = False

            def on_epoch_end(self, record):
                self.reached = self.reached or record.train_accuracy >= self.target

            def should_stop(self):
                return self.reached

        data = easy_dataset()
        model = make_tiny_model()
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.02),
            callbacks=[StopAtTrainAccuracy(target=0.5)], rng=0,
        )
        history = trainer.fit(data, epochs=20, batch_size=16)
        assert len(history) < 20


class TestHistory:
    def test_metric_series_and_best_epoch(self):
        history = History()
        history.append(EpochRecord(0, 1.0, 0.5, val_accuracy=0.6))
        history.append(EpochRecord(1, 0.5, 0.7, val_accuracy=0.8))
        history.append(EpochRecord(2, 0.4, 0.75, val_accuracy=0.7))
        assert history.metric("train_loss") == [1.0, 0.5, 0.4]
        assert history.best_epoch("val_accuracy").epoch == 1
        assert history.best_epoch("train_loss", mode="min").epoch == 2

    def test_empty_history(self):
        history = History()
        assert history.final is None
        assert history.best_epoch() is None
        assert len(history) == 0

    def test_as_dicts_round_trip(self):
        record = EpochRecord(0, 1.0, 0.5)
        history = History([record])
        payload = history.as_dicts()
        assert payload[0]["epoch"] == 0
        assert payload[0]["val_loss"] is None
