"""Softmax instrumentation of a trained model.

DeepMorph's first step ("build the softmax-instrumented model") attaches an
auxiliary softmax layer to the output of every hidden layer of the target
model and trains those auxiliary layers on the training set while the backbone
stays frozen.  The probes translate each hidden layer's activation into a
class-probability distribution — the per-layer belief that, stacked across
layers, forms a data-flow footprint.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import Dataset
from ..data.loader import batch_iterator
from ..exceptions import ConfigurationError, NotFittedError, ShapeError
from ..models.base import ClassifierModel
from ..nn import functional as F
from ..nn.dtype import DTypeLike, autocast, resolve_dtype
from ..nn.layers import Dense
from ..nn.losses import SoftmaxCrossEntropy
from ..optim.optimizers import Adam
from ..rng import RngLike, ensure_rng, spawn

__all__ = [
    "SoftmaxProbe",
    "SoftmaxInstrumentedModel",
    "pool_activation",
]


@functools.lru_cache(maxsize=64)
def _block_average_matrix(h: int, w: int, max_spatial: int, dtype: np.dtype) -> np.ndarray:
    """Read-only ``(h · w, out_h · out_w)`` matrix that block-averages an ``h × w`` map.

    Blocks are ceil-sized so at most ``max_spatial × max_spatial`` of them
    cover the map; the trailing blocks may be ragged.  Column ``(i, j)``
    holds ``1 / |block|`` at the block's pixels and zeros elsewhere, so one
    matmul averages every block, even or ragged.  A map no larger than
    ``max_spatial`` on both sides has 1×1 blocks: the matrix is the identity.
    """
    block_h = -(-h // max_spatial)
    block_w = -(-w // max_spatial)
    rows = np.arange(h) // block_h  # block row of each pixel row
    cols = np.arange(w) // block_w
    row_weights = np.eye(rows[-1] + 1)[rows] / np.bincount(rows)[rows, None]
    col_weights = np.eye(cols[-1] + 1)[cols] / np.bincount(cols)[cols, None]
    matrix = np.einsum("yi,xj->yxij", row_weights, col_weights).reshape(h * w, -1)
    matrix = matrix.astype(dtype)
    matrix.flags.writeable = False
    return matrix


def pool_activation(activation: np.ndarray, max_spatial: int = 4) -> np.ndarray:
    """Reduce an activation batch to a 2-D ``(batch, features)`` matrix.

    Convolutional activations are average-pooled down to at most
    ``max_spatial × max_spatial`` before flattening, which keeps probe inputs
    small without discarding the spatial layout entirely.  Dense activations
    are returned as-is.

    The pooling is one matmul of the ``(batch · channels, h · w)`` maps
    against a cached block-averaging matrix (:func:`_block_average_matrix`,
    one per ``(h, w, max_spatial, dtype)``), which covers even and ragged
    blocks, and maps already small enough, in one path.  float32/float64
    input keeps its dtype, so the extraction fast path stays in the active
    compute precision.
    """
    activation = np.asarray(activation)
    if activation.dtype not in (np.float32, np.float64):
        activation = activation.astype(np.float64)
    if activation.ndim == 2:
        return activation
    if activation.ndim != 4:
        raise ShapeError(
            f"activations must be 2-D or 4-D, got shape {activation.shape}"
        )
    n, c, h, w = activation.shape
    matrix = _block_average_matrix(h, w, max_spatial, activation.dtype)
    pooled = activation.reshape(n * c, h * w) @ matrix
    return pooled.reshape(n, c * matrix.shape[1])


class SoftmaxProbe:
    """An auxiliary softmax classifier attached to one hidden layer.

    The probe is a single affine layer followed by softmax, trained with Adam
    on the (pooled, flattened) activations of its layer while the backbone is
    frozen — the "auxiliary softmax layer" of the paper.
    """

    def __init__(
        self,
        layer_name: str,
        num_classes: int,
        epochs: int = 12,
        batch_size: int = 64,
        learning_rate: float = 0.01,
        weight_decay: float = 1e-4,
        max_spatial: int = 4,
        validation_fraction: float = 0.2,
        rng: RngLike = None,
    ):
        if num_classes < 2:
            raise ConfigurationError(f"num_classes must be >= 2, got {num_classes}")
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= validation_fraction < 1.0:
            raise ConfigurationError(
                f"validation_fraction must lie in [0, 1), got {validation_fraction}"
            )
        self.layer_name = layer_name
        self.num_classes = int(num_classes)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.max_spatial = int(max_spatial)
        self.validation_fraction = float(validation_fraction)
        self._rng = ensure_rng(rng)
        self._dense: Optional[Dense] = None
        self.training_accuracy: Optional[float] = None
        self.validation_accuracy: Optional[float] = None

    @property
    def is_fitted(self) -> bool:
        return self._dense is not None

    @property
    def num_features(self) -> Optional[int]:
        """Dimensionality of the probe's input features (after fitting)."""
        return self._dense.in_features if self._dense is not None else None

    def features(self, activations: np.ndarray) -> np.ndarray:
        """Pool and flatten raw layer activations into probe features."""
        return pool_activation(activations, max_spatial=self.max_spatial)

    def fit(self, activations: np.ndarray, labels: np.ndarray) -> "SoftmaxProbe":
        """Train the probe on the frozen backbone's activations."""
        feats = self.features(activations)
        labels = np.asarray(labels)
        if feats.shape[0] != labels.shape[0]:
            raise ShapeError(
                f"activations and labels disagree on batch size: "
                f"{feats.shape[0]} vs {labels.shape[0]}"
            )
        if feats.shape[0] == 0:
            raise ConfigurationError(f"cannot fit probe {self.layer_name!r} on zero examples")

        # Hold out part of the data so the probe can report how well its
        # layer's features *generalize* (the key structure-defect signal), not
        # just how well a linear readout can memorize them.
        n = feats.shape[0]
        n_val = int(np.floor(n * self.validation_fraction))
        order = np.arange(n)
        self._rng.shuffle(order)
        val_idx, fit_idx = order[:n_val], order[n_val:]
        if fit_idx.size == 0:
            fit_idx, val_idx = order, np.array([], dtype=np.int64)
        fit_feats, fit_labels = feats[fit_idx], labels[fit_idx]

        self._dense = Dense(
            feats.shape[1], self.num_classes, rng=self._rng, name=f"probe_{self.layer_name}"
        )
        loss = SoftmaxCrossEntropy()
        optimizer = Adam(
            self._dense.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        for _ in range(self.epochs):
            for batch_feats, batch_labels in batch_iterator(
                fit_feats, fit_labels, self.batch_size, shuffle=True, rng=self._rng
            ):
                self._dense.zero_grad()
                logits = self._dense.forward(batch_feats)
                loss.forward(logits, batch_labels)
                self._dense.backward(loss.backward())
                optimizer.step()

        # The probe head only ever infers from here on; eval mode stops it
        # retaining each prediction batch (Dense caches input for backward).
        self._dense.eval()
        predictions = self._dense.forward(fit_feats).argmax(axis=1)
        self.training_accuracy = float(np.mean(predictions == fit_labels))
        if val_idx.size:
            val_predictions = self._dense.forward(feats[val_idx]).argmax(axis=1)
            self.validation_accuracy = float(np.mean(val_predictions == labels[val_idx]))
        else:
            self.validation_accuracy = self.training_accuracy
        return self

    def predict_proba(self, activations: np.ndarray) -> np.ndarray:
        """Class-probability distribution the probe assigns to each activation."""
        if self._dense is None:
            raise NotFittedError(
                f"probe for layer {self.layer_name!r} must be fitted before prediction"
            )
        feats = self.features(activations)
        if feats.shape[1] != self._dense.in_features:
            raise ShapeError(
                f"probe for layer {self.layer_name!r} was fitted on {self._dense.in_features} "
                f"features but received {feats.shape[1]}"
            )
        return F.softmax(self._dense.forward(feats), axis=1)

    def __repr__(self) -> str:
        status = "fitted" if self.is_fitted else "unfitted"
        return f"SoftmaxProbe(layer={self.layer_name!r}, classes={self.num_classes}, {status})"


class SoftmaxInstrumentedModel:
    """A frozen target model with a trained softmax probe on every hidden layer.

    This is the paper's "softmax-instrumented model": the object that turns an
    input into its layer-by-layer class-belief trajectory.

    Parameters
    ----------
    model:
        The trained target classifier.  Its parameters are never modified.
    layer_names:
        Which stages to instrument.  Defaults to every stage except the final
        logits stage (``model.hidden_layer_names()``).
    probe_epochs, probe_batch_size, probe_learning_rate:
        Training hyper-parameters shared by all probes.
    inference_dtype:
        Compute precision of the frozen-backbone *extraction* path
        (``collect_activations`` / ``layer_distributions``).  ``"float32"``
        (also the meaning of ``None``) is the default — the backbone is
        frozen, so extraction is pure inference and float32 halves the memory
        traffic through the banded-convolution gathers and matmuls.  Probe
        *training* (``fit``) always collects activations in float64, as does
        every gradient-carrying path.  Pass ``"float64"`` to force full precision
        end to end.
    """

    def __init__(
        self,
        model: ClassifierModel,
        layer_names: Optional[Sequence[str]] = None,
        probe_epochs: int = 12,
        probe_batch_size: int = 64,
        probe_learning_rate: float = 0.01,
        max_spatial: int = 4,
        probe_validation_fraction: float = 0.2,
        inference_dtype: DTypeLike = "float32",
        rng: RngLike = None,
    ):
        self.model = model
        available = model.stage_names()
        chosen = list(layer_names) if layer_names is not None else model.hidden_layer_names()
        unknown = [name for name in chosen if name not in available]
        if unknown:
            raise ConfigurationError(
                f"layer(s) {unknown} not found in model stages {available}"
            )
        if not chosen:
            raise ConfigurationError("at least one layer must be instrumented")
        self.layer_names: List[str] = chosen
        self.probe_epochs = int(probe_epochs)
        self.probe_batch_size = int(probe_batch_size)
        self.probe_learning_rate = float(probe_learning_rate)
        self.max_spatial = int(max_spatial)
        self.probe_validation_fraction = float(probe_validation_fraction)
        # None means "the documented default" (float32), not resolve_dtype's
        # float64 fallback — callers use None for "don't care".
        self.inference_dtype = resolve_dtype(
            inference_dtype if inference_dtype is not None else "float32"
        )
        self._rng = ensure_rng(rng)

        probe_rngs = spawn(self._rng, len(self.layer_names))
        self.probes: Dict[str, SoftmaxProbe] = {
            name: SoftmaxProbe(
                layer_name=name,
                num_classes=model.num_classes,
                epochs=probe_epochs,
                batch_size=probe_batch_size,
                learning_rate=probe_learning_rate,
                max_spatial=max_spatial,
                validation_fraction=probe_validation_fraction,
                rng=probe_rng,
            )
            for name, probe_rng in zip(self.layer_names, probe_rngs)
        }
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def num_layers(self) -> int:
        """Number of instrumented hidden layers."""
        return len(self.layer_names)

    @property
    def num_classes(self) -> int:
        return self.model.num_classes

    # -- activation collection ---------------------------------------------------

    @contextmanager
    def _inference(self, dtype: np.dtype) -> Iterator[None]:
        """Eval mode and the compute dtype for the enclosed forward passes."""
        was_training = self.model.training
        self.model.eval()
        try:
            with autocast(dtype):
                yield
        finally:
            self.model.train(was_training)

    def _pooled_chunks(
        self, inputs: np.ndarray, batch_size: int
    ) -> Iterator[Tuple[int, np.ndarray, Dict[str, np.ndarray]]]:
        """``(start, logits, pooled activations)`` of each ``batch_size``-row chunk.

        Run inside :meth:`_inference`.  An empty input still runs one (empty)
        chunk, so every layer reports its ``(0, features)`` shape.
        """
        for start in range(0, max(inputs.shape[0], 1), batch_size):
            logits, acts = self.model.forward_collect(inputs[start:start + batch_size])
            pooled = {
                name: pool_activation(acts[name], max_spatial=self.max_spatial)
                for name in self.layer_names
            }
            yield start, logits, pooled

    def collect_activations(
        self, inputs: np.ndarray, batch_size: int = 128, dtype: DTypeLike = None
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Run the frozen model and gather every instrumented layer's (pooled) output.

        Returns ``(activations, logits)`` where ``activations[name]`` has shape
        ``(n, features_of_that_layer)``.  ``dtype`` selects the compute
        precision of the forward passes; ``None`` uses the model's
        ``inference_dtype`` (probe training passes float64 explicitly).
        """
        compute = self.inference_dtype if dtype is None else resolve_dtype(dtype)
        inputs = np.asarray(inputs)
        pooled: Dict[str, List[np.ndarray]] = {name: [] for name in self.layer_names}
        logits_parts: List[np.ndarray] = []
        with self._inference(compute):
            for _, logits, chunk in self._pooled_chunks(inputs, batch_size):
                logits_parts.append(logits)
                for name in self.layer_names:
                    pooled[name].append(chunk[name])
        activations = {name: np.concatenate(parts, axis=0) for name, parts in pooled.items()}
        return activations, np.concatenate(logits_parts, axis=0)

    # -- probe training -------------------------------------------------------------

    def fit(self, train_data: Dataset, batch_size: int = 128) -> "SoftmaxInstrumentedModel":
        """Train every probe on the training set (backbone frozen)."""
        if len(train_data) == 0:
            raise ConfigurationError("cannot fit the instrumented model on an empty dataset")
        inputs, labels = train_data.arrays()
        # Probe training is a training path: collect features in full precision.
        activations, _ = self.collect_activations(
            inputs, batch_size=batch_size, dtype=np.float64
        )
        for name in self.layer_names:
            self.probes[name].fit(activations[name], labels)
        self._fitted = True
        return self

    def probe_accuracies(self) -> Dict[str, float]:
        """Training accuracy of each probe (a layer-wise feature-quality profile)."""
        if not self._fitted:
            raise NotFittedError("instrumented model is not fitted; call fit() first")
        return {
            name: float(self.probes[name].training_accuracy or 0.0) for name in self.layer_names
        }

    def probe_validation_accuracies(self) -> Dict[str, float]:
        """Held-out accuracy of each probe: how well the layer's features generalize."""
        if not self._fitted:
            raise NotFittedError("instrumented model is not fitted; call fit() first")
        return {
            name: float(self.probes[name].validation_accuracy or 0.0)
            for name in self.layer_names
        }

    def feature_quality(self) -> float:
        """How well the backbone's hidden layers separate the classes, in ``[0, 1]``.

        Computed as the best held-out probe accuracy over the instrumented
        layers, rescaled so chance level maps to 0.  A structurally sound
        backbone trained on its task scores close to 1; a backbone whose
        convolutional capacity was gutted scores visibly lower — the
        model-level fingerprint of a structure defect.
        """
        accuracies = list(self.probe_validation_accuracies().values())
        best = max(accuracies) if accuracies else 0.0
        chance = 1.0 / self.num_classes
        return float(np.clip((best - chance) / (1.0 - chance), 0.0, 1.0))

    # -- footprint extraction ----------------------------------------------------------

    def layer_distributions(
        self, inputs: np.ndarray, batch_size: int = 128
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe distributions for a batch of inputs.

        The backbone runs in ``batch_size``-row chunks, and every probe head
        runs inside that loop on its chunk's pooled activations, so each
        matmul's row count is the chunk's.  A row's distributions therefore
        depend only on the chunk it falls in: splitting a batch at chunk
        boundaries, as :class:`~repro.api.LocalDiagnoser` does across cores,
        changes no bit.

        Returns
        -------
        ``(trajectories, final_probs)`` where ``trajectories`` has shape
        ``(n, num_layers, num_classes)`` (one row per instrumented layer, in
        execution order) and ``final_probs`` has shape ``(n, num_classes)``
        (the model's own softmax output).
        """
        if not self._fitted:
            raise NotFittedError("instrumented model is not fitted; call fit() first")
        inputs = np.asarray(inputs)
        n = inputs.shape[0]
        # Probe heads run in the same precision as the backbone extraction;
        # the returned trajectories are float64 at the API boundary either way.
        trajectories = np.zeros((n, self.num_layers, self.num_classes), dtype=np.float64)
        logits_parts: List[np.ndarray] = []
        with self._inference(self.inference_dtype):
            for start, logits, pooled in self._pooled_chunks(inputs, batch_size):
                rows = slice(start, start + logits.shape[0])
                for layer_idx, name in enumerate(self.layer_names):
                    trajectories[rows, layer_idx, :] = self.probes[name].predict_proba(
                        pooled[name]
                    )
                logits_parts.append(logits)
        logits = np.concatenate(logits_parts, axis=0)
        final_probs = F.softmax(np.asarray(logits, dtype=np.float64), axis=1)
        return trajectories, final_probs

    def layer_distributions_grouped(
        self, input_groups: Sequence[np.ndarray], batch_size: int = 128
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Probe distributions for several independent input groups in ONE pass.

        The groups (each ``(n_i, ...)`` with identical per-example shape) are
        concatenated, run through a single :meth:`layer_distributions` call —
        filling its chunks across group boundaries — and split back into one
        ``(trajectories, final_probs)`` pair per group.  This is the batched
        extraction primitive the serving layer (:mod:`repro.serve`) coalesces
        concurrent diagnosis requests onto.
        """
        if not self._fitted:
            raise NotFittedError("instrumented model is not fitted; call fit() first")
        groups = [np.asarray(g) for g in input_groups]
        if not groups:
            return []
        sizes = [g.shape[0] for g in groups]
        trajectories, final_probs = self.layer_distributions(
            np.concatenate(groups, axis=0), batch_size=batch_size
        )
        results: List[Tuple[np.ndarray, np.ndarray]] = []
        offset = 0
        for size in sizes:
            results.append((
                trajectories[offset:offset + size],
                final_probs[offset:offset + size],
            ))
            offset += size
        return results

    def __repr__(self) -> str:
        status = "fitted" if self._fitted else "unfitted"
        return (
            f"SoftmaxInstrumentedModel(model={self.model.kind!r}, "
            f"layers={self.num_layers}, {status})"
        )
