"""Persistence of models, footprints, pattern libraries, and reports.

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
from typing import Dict, List, Union

import numpy as np

from ..core.classifier import DefectReport
from ..core.footprint import Footprint
from ..defects.spec import DefectType
from ..exceptions import SerializationError
from ..models.base import ClassifierModel
from ..models.registry import build_from_config

__all__ = [
    "save_model",
    "load_model",
    "save_footprints",
    "load_footprints",
    "save_report",
    "load_report",
]

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


def save_footprints(footprints: List[Footprint], path: PathLike) -> Path:
    """Save a list of footprints to ``path`` (``.npz``)."""
    if not footprints:
        raise SerializationError("cannot save an empty list of footprints")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    shapes = {fp.trajectory.shape for fp in footprints}
    if len(shapes) != 1:
        raise SerializationError(f"footprints have inconsistent trajectory shapes: {shapes}")
    trajectories = np.stack([fp.trajectory for fp in footprints])
    final_probs = np.stack([fp.final_probs for fp in footprints])
    predicted = np.array([fp.predicted for fp in footprints], dtype=np.int64)
    true_labels = np.array(
        [fp.true_label if fp.true_label is not None else -1 for fp in footprints],
        dtype=np.int64,
    )
    layer_names = json.dumps(list(footprints[0].layer_names or []))
    np.savez_compressed(
        path,
        trajectories=trajectories,
        final_probs=final_probs,
        predicted=predicted,
        true_labels=true_labels,
        layer_names=np.array(layer_names),
    )
    return path


def load_footprints(path: PathLike) -> List[Footprint]:
    """Load footprints saved with :func:`save_footprints`."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"footprint file {path} does not exist")
    with np.load(path, allow_pickle=False) as payload:
        required = {"trajectories", "final_probs", "predicted", "true_labels"}
        missing = required - set(payload.files)
        if missing:
            raise SerializationError(f"{path} is missing arrays: {sorted(missing)}")
        trajectories = payload["trajectories"]
        final_probs = payload["final_probs"]
        predicted = payload["predicted"]
        true_labels = payload["true_labels"]
        layer_names = tuple(json.loads(str(payload["layer_names"]))) if "layer_names" in payload else None

    footprints: List[Footprint] = []
    for i in range(trajectories.shape[0]):
        label = int(true_labels[i])
        footprints.append(Footprint(
            trajectory=trajectories[i],
            final_probs=final_probs[i],
            predicted=int(predicted[i]),
            true_label=label if label >= 0 else None,
            layer_names=layer_names,
        ))
    return footprints


def save_report(report: DefectReport, path: PathLike) -> Path:
    """Save a defect report (ratios, counts, metadata) as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
    return path


def load_report(path: PathLike) -> Dict:
    """Load a report saved with :func:`save_report` (returns the plain dict form)."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"report file {path} does not exist")
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    required = {"ratios", "counts", "num_cases"}
    missing = required - set(payload)
    if missing:
        raise SerializationError(f"{path} is not a serialized defect report (missing {sorted(missing)})")
    valid = {d.value for d in DefectType}
    unknown = set(payload["ratios"]) - valid
    if unknown:
        raise SerializationError(f"report contains unknown defect types: {sorted(unknown)}")
    return payload
