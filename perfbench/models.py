"""Target models under diagnosis, with fixed weights stored beside the benchmark.

Training the model under diagnosis is the user's input, not DeepMorph's
work, and it must not change with the code being measured: a change to the
training code would otherwise train another model, with another set of
misclassified cases, and move every figure for reasons that are not
diagnosis speed.  So the weights were trained once and are stored in
``perfbench/weights/<name>.npz`` (float32).  A run rebuilds the architecture,
copies the weights in, and regenerates the seeded synthetic dataset.  It
checks the dataset's digest and the model's production misclassification
count (float64 forward pass) against the values recorded in ``MODELS`` and
fails if either differs: the inputs would no longer be the measured ones.

To retrain (this changes the benchmark's inputs; record the printed values)::

    python3 perfbench/models.py lenet
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WEIGHTS = HERE / "weights"

#: Quick-preset models.  LeNet has insufficient training data (ITD)
#: injected and misclassifies ~40% of production cases; the ResNet is clean
#: and misclassifies far fewer, so extraction, not specifics, dominates its
#: cost.  The ResNet has no batch normalization because a registry
#: round-trip drops BatchNorm running statistics, and a served model with
#: them reset misclassifies ~90% of cases.  ``digest`` and ``misclassified``
#: are what ``python3 perfbench/models.py <name>`` printed for the stored
#: weights.
MODELS = {
    "lenet": {"model": "lenet", "epochs": 4, "learning_rate": 0.01, "defect": "itd",
              "kwargs": {}, "digest": "e94aaccabc04310c", "misclassified": 127},
    "resnet": {"model": "resnet", "epochs": 12, "learning_rate": 0.001, "defect": "none",
               "kwargs": {"use_batchnorm": False}, "digest": "cee95f5a57115a2d",
               "misclassified": 24},
}


def build(name: str):
    """``(settings, untrained model, train data, production data)`` of one target."""
    from repro.defects import DefectType
    from repro.experiments.config import model_hyperparameters, preset
    from repro.experiments.runner import _inject, make_dataset
    from repro.models import build_model
    from repro.rng import derive_seed

    spec = MODELS[name]
    settings = replace(
        preset("quick").for_model(spec["model"]),
        epochs=spec["epochs"], learning_rate=spec["learning_rate"],
    )
    _, train_data, production = make_dataset(settings)
    model = build_model(
        spec["model"], input_shape=train_data.input_shape, num_classes=10,
        rng=derive_seed(settings.seed, "model", spec["model"]),
        **model_hyperparameters(spec["model"]), **spec["kwargs"],
    )
    model, train_data, _ = _inject(DefectType.from_string(spec["defect"]), settings, model,
                                   train_data)
    return settings, model, train_data, production


def fingerprint(model, train_data, production) -> tuple:
    """``(digest of the datasets, production cases the model misclassifies)``."""
    from repro.nn.dtype import autocast

    digest = hashlib.sha256()
    for dataset in (train_data, production):
        for array in dataset.arrays():
            digest.update(np.ascontiguousarray(array).tobytes())
    inputs, labels = production.arrays()
    with autocast("float64"):
        misclassified = int((model.predict(inputs) != labels).sum())
    return digest.hexdigest()[:16], misclassified


def load(name: str):
    """``(model, train_data, production)`` with the stored weights; checks the inputs."""
    _, model, train_data, production = build(name)
    with np.load(WEIGHTS / f"{name}.npz", allow_pickle=False) as stored:
        weights = {key: stored[key] for key in stored.files}
    for key, parameter in model.named_parameters():
        array = weights.pop(key)
        if array.shape != parameter.data.shape:
            raise RuntimeError(f"{name} weight {key} has shape {array.shape}, "
                               f"the model {parameter.data.shape}")
        parameter.data = array.astype(np.float64)
    if weights:
        raise RuntimeError(f"{name} weights the model has no parameter for: {sorted(weights)}")
    model.eval()
    got = fingerprint(model, train_data, production)
    spec = MODELS[name]
    if got != (spec["digest"], spec["misclassified"]):
        raise RuntimeError(
            f"{name}: dataset digest {got[0]} and {got[1]} misclassified production cases, "
            f"expected {spec['digest']} and {spec['misclassified']}; the inputs changed"
        )
    return model, train_data, production


def train(name: str) -> None:
    """Train one target model and store its weights (float32)."""
    from repro.experiments.runner import train_model

    settings, model, train_data, production = build(name)
    train_model(model, train_data, settings)
    model.eval()
    WEIGHTS.mkdir(exist_ok=True)
    np.savez_compressed(
        WEIGHTS / f"{name}.npz",
        **{key: p.data.astype(np.float32) for key, p in model.named_parameters()},
    )
    for _, parameter in model.named_parameters():
        parameter.data = parameter.data.astype(np.float32).astype(np.float64)
    digest, misclassified = fingerprint(model, train_data, production)
    print(f"{name}: digest {digest}, misclassified {misclassified}")


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    train(sys.argv[1])
