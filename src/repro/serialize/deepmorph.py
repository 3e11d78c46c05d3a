"""Persistence of a *fitted* DeepMorph instance.

A fitted DeepMorph is the expensive artifact of the pipeline: the frozen
target model, one trained softmax probe per instrumented layer, and the
per-class execution patterns.  Refitting it costs many instrumented forward
and probe-training passes, so the serving layer (:mod:`repro.serve`) persists
the whole fitted state once and reloads it in milliseconds.

Everything is stored in a single ``.npz`` file: a JSON ``__config__`` entry
holds every scalar (hyper-parameters, probe accuracies, pattern statistics,
the classifier weights) and namespaced arrays hold the model parameters
(``model/<name>``), the model's layer buffers such as batch-norm running
statistics (``buffer/<name>``; artifacts written before they were stored load
with initial values), probe parameters (``probe/<layer>/weight|bias``), and
pattern arrays (``pattern/<class>/...``).  No pickle is involved — the file
stays inspectable and loadable with ``allow_pickle=False``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..core.classifier import DefectClassifierConfig
from ..core.diagnosis import DeepMorph
from ..core.instrument import SoftmaxInstrumentedModel
from ..core.patterns import ClassExecutionPattern, PatternLibrary
from ..defects.spec import DefectType
from ..exceptions import NotFittedError, SerializationError
from ..models.registry import build_from_config
from ..nn.layers import Dense
from .persistence import _model_buffer_arrays, _model_parameter_arrays, _restore_buffers

__all__ = ["save_deepmorph", "load_deepmorph"]

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def save_deepmorph(morph: DeepMorph, path: PathLike) -> Path:
    """Save a fitted :class:`DeepMorph` (model, probes, patterns) to ``path``."""
    if not morph.is_fitted:
        raise NotFittedError("only a fitted DeepMorph can be saved; call fit() first")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    instrumented = morph.instrumented
    library = morph.patterns
    arrays: Dict[str, np.ndarray] = {}
    for name, param in _model_parameter_arrays(morph.model).items():
        arrays[f"model/{name}"] = param
    arrays.update(_model_buffer_arrays(morph.model))

    probes_config: Dict[str, Dict] = {}
    for layer_name in instrumented.layer_names:
        probe = instrumented.probes[layer_name]
        if not probe.is_fitted:
            raise SerializationError(f"probe for layer {layer_name!r} is not fitted")
        arrays[f"probe/{layer_name}/weight"] = probe._dense.weight.data
        if probe._dense.bias is not None:
            arrays[f"probe/{layer_name}/bias"] = probe._dense.bias.data
        probes_config[layer_name] = {
            "training_accuracy": probe.training_accuracy,
            "validation_accuracy": probe.validation_accuracy,
        }

    patterns_config: Dict[str, Dict] = {}
    for class_id, pattern in library.patterns.items():
        key = str(int(class_id))
        arrays[f"pattern/{key}/mean_trajectory"] = pattern.mean_trajectory
        arrays[f"pattern/{key}/mean_confidence"] = pattern.mean_confidence
        if pattern.member_trajectories is not None:
            arrays[f"pattern/{key}/members"] = pattern.member_trajectories
        patterns_config[key] = {
            "dispersion": pattern.dispersion,
            "mean_final_confidence": pattern.mean_final_confidence,
            "mean_entropy": pattern.mean_entropy,
            "support": pattern.support,
            "member_nn_scale": pattern.member_nn_scale,
        }

    classifier = morph.case_classifier.config
    config = {
        "format_version": _FORMAT_VERSION,
        "model": morph.model.config(),
        "deepmorph": {
            "probe_epochs": morph.probe_epochs,
            "probe_learning_rate": morph.probe_learning_rate,
            "probe_batch_size": morph.probe_batch_size,
            "correct_only_patterns": morph.correct_only_patterns,
            "late_layer_emphasis": morph.late_layer_emphasis,
            "max_spatial": morph.max_spatial,
        },
        "instrumented": {
            "layer_names": list(instrumented.layer_names),
            "probe_validation_fraction": instrumented.probe_validation_fraction,
            "inference_dtype": instrumented.inference_dtype.name,
            "probes": probes_config,
        },
        "patterns": {
            "correct_only": library.correct_only,
            "late_layer_emphasis": library.late_layer_emphasis,
            "nn_layer_emphasis": library.nn_layer_emphasis,
            "batch_size": library.batch_size,
            "global_mean_entropy": library.global_mean_entropy,
            "global_mean_dispersion": library.global_mean_dispersion,
            "training_inconsistency": library.training_inconsistency(),
            "classes": patterns_config,
        },
        "classifier": {
            "weights": {d.value: list(w) for d, w in classifier.weights.items()},
            "soft_assignment": classifier.soft_assignment,
            "temperature": classifier.temperature,
        },
    }
    np.savez_compressed(path, __config__=np.array(json.dumps(config)), **arrays)
    return path


def _restore_model(config: Dict, arrays: Dict[str, np.ndarray]):
    model = build_from_config(config["model"])
    saved = {
        key[len("model/"):]: value for key, value in arrays.items()
        if key.startswith("model/")
    }
    for name, param in model.named_parameters():
        if name not in saved:
            raise SerializationError(f"saved DeepMorph is missing model parameter {name!r}")
        data = saved.pop(name)
        if data.shape != param.data.shape:
            raise SerializationError(
                f"model parameter {name!r} has shape {data.shape} in the file but the "
                f"rebuilt model expects {param.data.shape}"
            )
        param.data = data.astype(np.float64)
    if saved:
        raise SerializationError(
            f"saved DeepMorph contains unknown model parameters: {sorted(saved)}"
        )
    _restore_buffers(model, arrays)
    model.eval()
    return model


def _restore_instrumented(
    model, config: Dict, hyper: Dict, arrays: Dict[str, np.ndarray]
) -> SoftmaxInstrumentedModel:
    instrumented = SoftmaxInstrumentedModel(
        model,
        layer_names=config["layer_names"],
        probe_epochs=hyper["probe_epochs"],
        probe_batch_size=hyper["probe_batch_size"],
        probe_learning_rate=hyper["probe_learning_rate"],
        max_spatial=hyper["max_spatial"],
        probe_validation_fraction=config["probe_validation_fraction"],
        # Artifacts written before the dtype policy existed were built and
        # validated under float64 extraction; keep serving them exactly as
        # they behaved then.  float32 requires the artifact to say so.
        inference_dtype=config.get("inference_dtype", "float64"),
    )
    for layer_name in instrumented.layer_names:
        weight_key = f"probe/{layer_name}/weight"
        if weight_key not in arrays:
            raise SerializationError(f"saved DeepMorph is missing probe weights for {layer_name!r}")
        weight = arrays[weight_key].astype(np.float64)
        bias = arrays.get(f"probe/{layer_name}/bias")
        probe = instrumented.probes[layer_name]
        dense = Dense(
            weight.shape[0],
            weight.shape[1],
            use_bias=bias is not None,
            name=f"probe_{layer_name}",
        )
        dense.weight.data = weight
        if bias is not None:
            dense.bias.data = bias.astype(np.float64)
        dense.eval()  # inference-only: never retain prediction batches
        probe._dense = dense
        stats = config["probes"].get(layer_name, {})
        probe.training_accuracy = stats.get("training_accuracy")
        probe.validation_accuracy = stats.get("validation_accuracy")
    instrumented._fitted = True
    return instrumented


def _restore_patterns(
    instrumented: SoftmaxInstrumentedModel, config: Dict, arrays: Dict[str, np.ndarray]
) -> PatternLibrary:
    library = PatternLibrary(
        instrumented,
        correct_only=config["correct_only"],
        late_layer_emphasis=config["late_layer_emphasis"],
        nn_layer_emphasis=config["nn_layer_emphasis"],
        batch_size=config["batch_size"],
    )
    for key, stats in config["classes"].items():
        class_id = int(key)
        traj_key = f"pattern/{key}/mean_trajectory"
        if traj_key not in arrays:
            raise SerializationError(f"saved DeepMorph is missing the pattern for class {class_id}")
        members = arrays.get(f"pattern/{key}/members")
        library.patterns[class_id] = ClassExecutionPattern(
            class_id=class_id,
            mean_trajectory=arrays[traj_key].astype(np.float64),
            mean_confidence=arrays[f"pattern/{key}/mean_confidence"].astype(np.float64),
            dispersion=float(stats["dispersion"]),
            mean_final_confidence=float(stats["mean_final_confidence"]),
            mean_entropy=float(stats["mean_entropy"]),
            support=int(stats["support"]),
            member_trajectories=members.astype(np.float64) if members is not None else None,
            member_nn_scale=float(stats["member_nn_scale"]),
        )
    if not library.patterns:
        raise SerializationError("saved DeepMorph contains no execution patterns")
    library.global_mean_entropy = config["global_mean_entropy"]
    library.global_mean_dispersion = config["global_mean_dispersion"]
    library._training_inconsistency = float(config["training_inconsistency"])
    library._fitted = True
    return library


def load_deepmorph(path: PathLike) -> DeepMorph:
    """Rebuild a fitted :class:`DeepMorph` saved with :func:`save_deepmorph`.

    The loaded instance diagnoses new inputs exactly like the original (the
    probes and patterns are restored bit-for-bit); only the training dataset
    reference is dropped, since diagnosis does not need it.
    """
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"DeepMorph file {path} does not exist")
    with np.load(path, allow_pickle=False) as payload:
        if "__config__" not in payload:
            raise SerializationError(f"{path} is not a serialized DeepMorph (missing config)")
        config = json.loads(str(payload["__config__"]))
        arrays = {key: payload[key] for key in payload.files if key != "__config__"}

    version = config.get("format_version")
    if version != _FORMAT_VERSION:
        raise SerializationError(
            f"{path} uses DeepMorph format version {version!r}; this build reads {_FORMAT_VERSION}"
        )
    hyper = config["deepmorph"]
    classifier_cfg = config["classifier"]

    model = _restore_model(config, arrays)
    instrumented = _restore_instrumented(model, config["instrumented"], hyper, arrays)
    library = _restore_patterns(instrumented, config["patterns"], arrays)

    morph = DeepMorph(
        probe_epochs=hyper["probe_epochs"],
        probe_learning_rate=hyper["probe_learning_rate"],
        probe_batch_size=hyper["probe_batch_size"],
        classifier_config=DefectClassifierConfig(
            weights={
                DefectType.from_string(name): tuple(values)
                for name, values in classifier_cfg["weights"].items()
            },
            soft_assignment=classifier_cfg["soft_assignment"],
            temperature=classifier_cfg["temperature"],
        ),
        correct_only_patterns=hyper["correct_only_patterns"],
        late_layer_emphasis=hyper["late_layer_emphasis"],
        max_spatial=hyper["max_spatial"],
        # Keep the facade's policy in lockstep with the restored instrumented
        # model, so a later refit extracts at the precision the artifact chose.
        inference_dtype=instrumented.inference_dtype.name,
    )
    morph.model = model
    morph.instrumented = instrumented
    morph.patterns = library
    return morph
