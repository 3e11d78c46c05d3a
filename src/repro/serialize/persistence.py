"""Persistence of models and defect reports.

Artifacts are stored as plain ``.npz`` + JSON-compatible metadata so they can
be inspected without the library.  Model serialization saves the architecture
config (enough to rebuild the layer tree through the registry), every named
parameter, and every layer buffer (batch-norm running statistics) under
``buffer/<name>``; loading rebuilds the model and copies both back in.  Files
written before buffers were saved still load, with initial buffer values.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..core.classifier import DefectReport
from ..exceptions import SerializationError
from ..models.base import ClassifierModel
from ..models.registry import build_from_config

__all__ = ["save_model", "load_model", "save_report"]

PathLike = Union[str, Path]


#: Archive key prefix of layer buffers, kept apart from the parameter names.
BUFFER_PREFIX = "buffer/"


def _model_parameter_arrays(model: ClassifierModel) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {}
    for name, param in model.named_parameters():
        if name in arrays:
            raise SerializationError(f"duplicate parameter name {name!r} during save")
        arrays[name] = param.data
    return arrays


def _model_buffer_arrays(model: ClassifierModel) -> Dict[str, np.ndarray]:
    """Every layer buffer, keyed ``BUFFER_PREFIX + <layer path>.<attribute>``."""
    arrays: Dict[str, np.ndarray] = {}
    for layer_name, layer in model.named_layers():
        for attribute in layer.buffer_names:
            key = f"{BUFFER_PREFIX}{layer_name}.{attribute}"
            if key in arrays:
                raise SerializationError(f"duplicate buffer name {key!r} during save")
            arrays[key] = np.asarray(getattr(layer, attribute), dtype=np.float64)
    return arrays


def _restore_buffers(model: ClassifierModel, arrays: Dict[str, np.ndarray]) -> None:
    """Copy the ``BUFFER_PREFIX`` entries of ``arrays`` into the model's layers.

    A buffer absent from ``arrays`` keeps its initial value, so archives
    written before buffers were saved load exactly as they always did.
    """
    saved = {key: value for key, value in arrays.items() if key.startswith(BUFFER_PREFIX)}
    for layer_name, layer in model.named_layers():
        for attribute in layer.buffer_names:
            data = saved.pop(f"{BUFFER_PREFIX}{layer_name}.{attribute}", None)
            if data is None:
                continue
            expected = np.shape(getattr(layer, attribute))
            if data.shape != expected:
                raise SerializationError(
                    f"buffer {layer_name}.{attribute} has shape {data.shape} in the file but "
                    f"the rebuilt model expects {expected}"
                )
            setattr(layer, attribute, data.astype(np.float64))
    if saved:
        raise SerializationError(f"saved model contains unknown buffers: {sorted(saved)}")


def save_model(model: ClassifierModel, path: PathLike) -> Path:
    """Save a model's architecture config, parameters and buffers to ``path`` (``.npz``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = _model_parameter_arrays(model)
    arrays.update(_model_buffer_arrays(model))
    config_json = json.dumps(model.config())
    np.savez_compressed(path, __config__=np.array(config_json), **arrays)
    return path


def load_model(path: PathLike) -> ClassifierModel:
    """Rebuild a model saved with :func:`save_model`."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"model file {path} does not exist")
    with np.load(path, allow_pickle=False) as payload:
        if "__config__" not in payload:
            raise SerializationError(f"{path} is not a serialized repro model (missing config)")
        config = json.loads(str(payload["__config__"]))
        model = build_from_config(config)
        saved = {key: payload[key] for key in payload.files if key != "__config__"}

    _restore_buffers(model, saved)
    saved = {key: value for key, value in saved.items() if not key.startswith(BUFFER_PREFIX)}
    for name, param in model.named_parameters():
        if name not in saved:
            raise SerializationError(f"saved model is missing parameter {name!r}")
        data = saved.pop(name)
        if data.shape != param.data.shape:
            raise SerializationError(
                f"parameter {name!r} has shape {data.shape} in the file but the rebuilt "
                f"model expects {param.data.shape}"
            )
        param.data = data.astype(np.float64)
    if saved:
        raise SerializationError(f"saved model contains unknown parameters: {sorted(saved)}")
    return model


def save_report(report: DefectReport, path: PathLike) -> Path:
    """Save a defect report (ratios, counts, metadata) as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
    return path
