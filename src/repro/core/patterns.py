"""Class execution patterns.

The paper's second step: "the softmax-instrumented model is used to learn the
execution pattern of the training cases for each target class".  An execution
pattern summarizes how training examples of one class typically flow through
the network — the mean probe trajectory, the per-layer confidence the class
accumulates, and how dispersed individual trajectories are around that mean.
Faulty-case footprints are later judged against these patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.divergence import normalized_entropy
from ..analysis.trajectory import (
    JSOperand,
    LayerMajorOperand,
    _unit_layer_weights,
    check_trajectory_stack,
    cross_js_layer_divergences,
    pairwise_trajectory_divergences,
    prepare_js_operand,
    trajectory_divergence_to_stack,
    weighted_js_divergences,
)
from ..data.dataset import Dataset
from ..exceptions import NotFittedError, ShapeError
from .footprint import FootprintExtractor
from .instrument import SoftmaxInstrumentedModel

__all__ = ["ClassExecutionPattern", "PatternLibrary", "PatternMatches"]


@dataclass(frozen=True)
class ClassExecutionPattern:
    """Summary of how one class's training examples execute through the model.

    Attributes
    ----------
    class_id:
        The class this pattern describes.
    mean_trajectory:
        ``(num_layers, num_classes)`` mean probe distribution per layer.
    mean_confidence:
        Per-layer mean probability assigned to ``class_id``.
    dispersion:
        Mean JS-based trajectory divergence of member footprints from the mean
        trajectory — how tight the class's execution pattern is.
    mean_final_confidence:
        Mean final-softmax probability of ``class_id`` over members.
    mean_entropy:
        Mean (over members and layers) normalized probe entropy.
    support:
        Number of training footprints the pattern was estimated from.
    member_trajectories:
        The member footprints' trajectories, shape ``(support, L, C)``.  Kept
        so faulty cases can be compared against *individual* training
        executions (nearest-member analysis), not just the class mean.
    member_nn_scale:
        Median nearest-neighbour trajectory divergence *among* the members —
        the natural scale for judging whether an outside footprint is "as
        close as members are to each other".
    """

    class_id: int
    mean_trajectory: np.ndarray
    mean_confidence: np.ndarray
    dispersion: float
    mean_final_confidence: float
    mean_entropy: float
    support: int
    member_trajectories: Optional[np.ndarray] = None
    member_nn_scale: float = 0.0

    @property
    def num_layers(self) -> int:
        return int(self.mean_trajectory.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.mean_trajectory.shape[1])


@dataclass(frozen=True)
class PatternMatches:
    """Batched comparison of ``N`` trajectories against every class pattern.

    Produced by :meth:`PatternLibrary.batch_pattern_matches` in one
    broadcasted kernel; the columns are the library's classes in ascending
    ``class_id`` order, so an argmax over a row breaks ties towards the
    smallest class id.

    Attributes
    ----------
    class_ids:
        ``(K,)`` class ids backing the columns.
    similarities:
        ``(N, K)`` layer-weighted JS similarities (``[0, 1]``) to each class
        mean, at the library's ``late_layer_emphasis``.
    divergences:
        ``(N, K)`` layer-weighted JS divergences (nats) to each class mean, at
        the atypicality emphasis 0.5.
    dispersions:
        ``(K,)`` per-class dispersions (for atypicality denominators).
    num_classes:
        The model's class count — sizes :meth:`column_lookup`.
    """

    class_ids: np.ndarray
    similarities: np.ndarray
    divergences: np.ndarray
    dispersions: np.ndarray
    num_classes: int

    def column_lookup(self) -> np.ndarray:
        """``(num_classes,)`` map from class id to column index (``-1`` if absent)."""
        lookup = np.full(self.num_classes, -1, dtype=np.int64)
        lookup[self.class_ids] = np.arange(self.class_ids.shape[0], dtype=np.int64)
        return lookup


@dataclass(frozen=True)
class _PatternIndex:
    """The pattern side of the batched queries, prepared once per pattern set.

    Class means and member stacks are normalized, laid out class-first and
    carry their entropy terms (:func:`prepare_js_operand`), so a query only
    prepares its own stack; the layer weights are normalized to sum to one.
    The member stacks are laid out members before queries
    (:class:`LayerMajorOperand`), for the nearest-member kernel only.
    """

    class_ids: np.ndarray  # (K,) ascending
    means: JSOperand  # the K class means
    dispersions: np.ndarray  # (K,)
    # class id -> (members, member_nn_scale).  A class without stored members
    # is represented by its mean.
    # Only the nn_layers are kept: the nearest-member kernel skips layers
    # whose nn weight is exactly 0.
    members: Dict[int, Tuple[LayerMajorOperand, float]]
    similarity_weights: np.ndarray  # (L,) at the library's late_layer_emphasis
    divergence_weights: np.ndarray  # (L,) at the atypicality emphasis 0.5
    nn_layers: np.ndarray  # indices of the layers with a non-zero nn weight
    nn_weights: np.ndarray  # their weights, at the library's nn_layer_emphasis


class _WelfordMoments:
    """Chunk-merging Welford accumulator for one member population.

    Tracks the running mean trajectory, mean final-softmax confidence in the
    class, and mean normalized probe entropy over an incrementally observed
    member set.  Each shard contributes one chunk; chunk-internal means use
    numpy's pairwise summation and the cross-chunk merge is the standard
    parallel mean update ``mean += delta * (m / n)``, which stays within a few
    ULPs of a single ``np.mean`` over the concatenated members — comfortably
    inside the 1e-12 shard-equivalence contract of
    :meth:`PatternLibrary.partial_fit`.
    """

    __slots__ = ("count", "mean_trajectory", "mean_final", "mean_entropy")

    def __init__(self) -> None:
        self.count = 0
        self.mean_trajectory: Optional[np.ndarray] = None
        self.mean_final = 0.0
        self.mean_entropy = 0.0

    def seed(
        self, count: int, mean_trajectory: np.ndarray, mean_final: float, mean_entropy: float
    ) -> None:
        """Bootstrap the moments from a previously fitted pattern's statistics."""
        self.count = int(count)
        self.mean_trajectory = np.asarray(mean_trajectory, dtype=np.float64).copy()
        self.mean_final = float(mean_final)
        self.mean_entropy = float(mean_entropy)

    def update(
        self, trajectories: np.ndarray, final_confidence: np.ndarray, entropies: np.ndarray
    ) -> None:
        """Merge one ``(m, L, C)`` chunk of members into the running moments."""
        m = int(trajectories.shape[0])
        if m == 0:
            return
        chunk_traj = trajectories.mean(axis=0, dtype=np.float64)
        chunk_final = float(final_confidence.mean(dtype=np.float64))
        chunk_entropy = float(entropies.mean(dtype=np.float64))
        if self.count == 0:
            self.count = m
            self.mean_trajectory = chunk_traj
            self.mean_final = chunk_final
            self.mean_entropy = chunk_entropy
            return
        total = self.count + m
        weight = m / total
        self.mean_trajectory = self.mean_trajectory + (chunk_traj - self.mean_trajectory) * weight
        self.mean_final += (chunk_final - self.mean_final) * weight
        self.mean_entropy += (chunk_entropy - self.mean_entropy) * weight
        self.count = total


@dataclass
class _ClassAccumulator:
    """Per-class incremental state behind :meth:`PatternLibrary.partial_fit`.

    Member trajectories are retained per shard (``fit`` keeps the selected
    member stack on every pattern anyway — nearest-member analysis needs it),
    alongside the per-member correctness mask so the correct-only selection
    can flip retroactively: a class whose first correct member only arrives
    in a later shard must drop its earlier incorrect members from the
    pattern, exactly as a full refit would.
    """

    traj_chunks: List[np.ndarray] = field(default_factory=list)
    final_conf_chunks: List[np.ndarray] = field(default_factory=list)
    correct_chunks: List[np.ndarray] = field(default_factory=list)
    all_moments: _WelfordMoments = field(default_factory=_WelfordMoments)
    correct_moments: _WelfordMoments = field(default_factory=_WelfordMoments)

    def add_chunk(
        self,
        trajectories: np.ndarray,
        final_confidence: np.ndarray,
        correct: np.ndarray,
        entropies: np.ndarray,
    ) -> None:
        self.traj_chunks.append(trajectories)
        self.final_conf_chunks.append(final_confidence)
        self.correct_chunks.append(correct)
        self.all_moments.update(trajectories, final_confidence, entropies)
        if correct.any():
            self.correct_moments.update(
                trajectories[correct], final_confidence[correct], entropies[correct]
            )

    def member_stack(self, correct_only: bool) -> np.ndarray:
        """The selected members, concatenated in arrival order.

        Arrival order within a class equals the original dataset order of a
        single concatenated ``fit`` (stable argsort grouping preserves it),
        so dispersion and nearest-neighbour statistics recomputed from this
        stack are bitwise what the full fit computes.
        """
        if correct_only:
            chunks = [
                chunk[mask]
                for chunk, mask in zip(self.traj_chunks, self.correct_chunks)
                if mask.any()
            ]
        else:
            chunks = self.traj_chunks
        if not chunks:
            return np.empty((0, 0, 0), dtype=np.float64)
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks, axis=0)


@dataclass
class _IncrementalState:
    """Whole-library accumulator threading shards through ``partial_fit``."""

    classes: Dict[int, _ClassAccumulator] = field(default_factory=dict)
    # Confusion counts for the training-inconsistency statistic: per labeled
    # class, how many of its members the model mapped to each *other* class.
    confusion: Dict[int, Dict[int, int]] = field(default_factory=dict)
    label_counts: Dict[int, int] = field(default_factory=dict)
    # Inconsistency never drops below the value inherited from a previous
    # full fit (whose confusion counts were not retained by the artifact).
    inconsistency_floor: float = 0.0


class PatternLibrary:
    """Per-class execution patterns learned from the training data.

    Patterns are estimated from training examples that the model itself
    classifies correctly (the paper learns "the execution pattern of the
    training cases for each target class"; correctly-handled cases are the
    ones that characterize the class's intended execution).  Classes with no
    correctly-classified training examples fall back to using all of their
    examples; classes with no examples at all get no pattern.
    """

    def __init__(
        self,
        instrumented: SoftmaxInstrumentedModel,
        correct_only: bool = True,
        late_layer_emphasis: float = 0.5,
        nn_layer_emphasis: float = 1.0,
        batch_size: int = 128,
    ):
        self.instrumented = instrumented
        self.correct_only = bool(correct_only)
        self.late_layer_emphasis = float(late_layer_emphasis)
        self.nn_layer_emphasis = float(nn_layer_emphasis)
        self.batch_size = int(batch_size)
        self.patterns: Dict[int, ClassExecutionPattern] = {}
        self.global_mean_entropy: Optional[float] = None
        self.global_mean_dispersion: Optional[float] = None
        self._fitted = False
        self._batch_cache: Optional[tuple] = None
        self._increment: Optional[_IncrementalState] = None

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def num_classes(self) -> int:
        return self.instrumented.num_classes

    # -- fitting ----------------------------------------------------------------

    def fit(self, train_data: Dataset) -> "PatternLibrary":
        """Learn one execution pattern per class from the training data."""
        if len(train_data) == 0:
            raise ShapeError("cannot fit a pattern library on an empty dataset")
        inputs, labels = train_data.arrays()
        extractor = FootprintExtractor(self.instrumented, batch_size=self.batch_size)
        trajectories, final_probs = extractor.extract_arrays(inputs)
        predictions = final_probs.argmax(axis=1)
        self._training_inconsistency = self._compute_training_inconsistency(labels, predictions)
        # Refitting replaces the library wholesale — classes absent from the
        # new data must not survive from a previous fit, and neither must any
        # incremental partial_fit state.
        self.patterns = {}
        self._increment = None

        # One label -> member-indices grouping, computed once (stable argsort +
        # unique boundaries) and shared by the member and correct-only
        # selections — instead of re-scanning the label array per class.
        labels = np.asarray(labels)
        order = np.argsort(labels, kind="stable")
        class_values, group_starts = np.unique(labels[order], return_index=True)
        group_ends = np.append(group_starts[1:], order.size)
        correct = predictions == labels

        entropies: List[float] = []
        dispersions: List[float] = []
        for class_value, start, end in zip(class_values, group_starts, group_ends):
            class_id = int(class_value)
            if not 0 <= class_id < self.num_classes:
                continue
            member_idx = order[start:end]
            if self.correct_only:
                correct_idx = member_idx[correct[member_idx]]
                if correct_idx.size:
                    member_idx = correct_idx
            member_traj = trajectories[member_idx]
            member_final = final_probs[member_idx]

            mean_trajectory = member_traj.mean(axis=0)
            mean_confidence = member_traj[:, :, class_id].mean(axis=0)
            divergences = trajectory_divergence_to_stack(
                mean_trajectory, member_traj, late_layer_emphasis=self.late_layer_emphasis
            )
            dispersion = float(divergences.mean()) if divergences.size else 0.0
            mean_entropy = float(normalized_entropy(member_traj, axis=2).mean())

            if member_traj.shape[0] > 1:
                pairwise = pairwise_trajectory_divergences(
                    member_traj, late_layer_emphasis=self.nn_layer_emphasis
                )
                np.fill_diagonal(pairwise, np.inf)
                member_nn_scale = float(np.median(pairwise.min(axis=1)))
            else:
                member_nn_scale = dispersion

            self.patterns[class_id] = ClassExecutionPattern(
                class_id=class_id,
                mean_trajectory=mean_trajectory,
                mean_confidence=mean_confidence,
                dispersion=dispersion,
                mean_final_confidence=float(member_final[:, class_id].mean()),
                mean_entropy=mean_entropy,
                support=int(member_idx.size),
                # Fancy indexing already copied the member rows out of the
                # extraction arrays, so the stack can be stored as-is.
                member_trajectories=member_traj,
                member_nn_scale=member_nn_scale,
            )
            entropies.append(mean_entropy)
            dispersions.append(dispersion)

        if not self.patterns:
            raise ShapeError("pattern library fitting produced no patterns (empty classes only)")
        self.global_mean_entropy = float(np.mean(entropies))
        self.global_mean_dispersion = float(np.mean(dispersions))
        self._batch_cache = None
        self._fitted = True
        return self

    # -- incremental fitting -----------------------------------------------------

    def partial_fit(self, shard: Dataset) -> "PatternLibrary":
        """Fold one shard of labeled data into the library incrementally.

        Repeated calls over shards of a dataset produce the same library as
        one :meth:`fit` over the concatenated data, to within 1e-12 on every
        statistic (means are merged Welford-style; dispersion and
        nearest-neighbour scales are recomputed from the retained member
        stacks, so those are bitwise identical).  The only caveat is the
        forward pass itself: under a float32 inference dtype, extraction is
        deterministic per *batch composition*, so sharding the extraction can
        move probe distributions at float32 resolution (~1e-8).  Callers that
        need the strict 1e-12 contract across shard splits either run a
        float64 inference dtype or extract once and feed
        :meth:`partial_fit_arrays`.

        An empty shard is a no-op.  Calling ``partial_fit`` on a library that
        was fitted by :meth:`fit` (or loaded from an artifact) bootstraps the
        accumulators from the retained member stacks; members that the
        correct-only selection had discarded are gone, so strict shard
        equivalence holds for libraries built entirely through
        ``partial_fit``.
        """
        if len(shard) == 0:
            return self
        inputs, labels = shard.arrays()
        extractor = FootprintExtractor(self.instrumented, batch_size=self.batch_size)
        trajectories, final_probs = extractor.extract_arrays(inputs)
        return self.partial_fit_arrays(trajectories, final_probs, labels)

    def partial_fit_arrays(
        self, trajectories: np.ndarray, final_probs: np.ndarray, labels: np.ndarray
    ) -> "PatternLibrary":
        """:meth:`partial_fit` for already-extracted ``(N, L, C)`` arrays.

        The serving layer extracts footprints while answering requests;
        feeding those arrays here avoids a second forward pass per shard.
        """
        trajectories = check_trajectory_stack(trajectories)
        final_probs = np.asarray(final_probs, dtype=np.float64)
        labels = np.asarray(labels).reshape(-1)
        if trajectories.shape[0] != final_probs.shape[0] or labels.size != trajectories.shape[0]:
            raise ShapeError(
                f"shard arrays disagree: {trajectories.shape[0]} trajectories, "
                f"{final_probs.shape[0]} final_probs, {labels.size} labels"
            )
        if labels.size == 0:
            return self
        state = self._incremental_state()
        predictions = final_probs.argmax(axis=1)
        correct_mask = predictions == labels
        entropies = normalized_entropy(trajectories, axis=2)

        # Confusion bookkeeping for training_inconsistency (all labels count,
        # even out-of-range ones — matching fit's np.unique over raw labels).
        for label_value, predicted_value in zip(labels.tolist(), predictions.tolist()):
            state.label_counts[label_value] = state.label_counts.get(label_value, 0) + 1
            if predicted_value != label_value:
                row = state.confusion.setdefault(label_value, {})
                row[predicted_value] = row.get(predicted_value, 0) + 1

        order = np.argsort(labels, kind="stable")
        class_values, group_starts = np.unique(labels[order], return_index=True)
        group_ends = np.append(group_starts[1:], order.size)
        for class_value, start, end in zip(class_values, group_starts, group_ends):
            class_id = int(class_value)
            if not 0 <= class_id < self.num_classes:
                continue
            member_idx = order[start:end]
            accumulator = state.classes.setdefault(class_id, _ClassAccumulator())
            accumulator.add_chunk(
                trajectories[member_idx],
                final_probs[member_idx, class_id],
                correct_mask[member_idx],
                entropies[member_idx],
            )
        self._finalize_incremental(state)
        return self

    def _incremental_state(self) -> _IncrementalState:
        """The live accumulator, bootstrapped from existing patterns if needed."""
        if self._increment is not None:
            return self._increment
        state = _IncrementalState()
        if self._fitted:
            # Continue from a fit()-built or deserialized library: the
            # retained member stacks become the first "shard".  fit stored
            # only the selected members (correct ones, when any existed), so
            # they are treated as correct here; the confusion counts behind
            # training_inconsistency were not retained, so the fitted value
            # becomes a floor the incremental statistic cannot drop below.
            state.inconsistency_floor = float(getattr(self, "_training_inconsistency", 0.0))
            for class_id, pattern in self.patterns.items():
                members = pattern.member_trajectories
                if members is None or members.shape[0] == 0:
                    members = pattern.mean_trajectory[None, :, :]
                members = np.asarray(members, dtype=np.float64)
                accumulator = _ClassAccumulator()
                accumulator.traj_chunks.append(members)
                accumulator.final_conf_chunks.append(
                    np.full(members.shape[0], pattern.mean_final_confidence, dtype=np.float64)
                )
                accumulator.correct_chunks.append(np.ones(members.shape[0], dtype=bool))
                for moments in (accumulator.all_moments, accumulator.correct_moments):
                    moments.seed(
                        pattern.support,
                        pattern.mean_trajectory,
                        pattern.mean_final_confidence,
                        pattern.mean_entropy,
                    )
                state.classes[class_id] = accumulator
                state.label_counts[class_id] = (
                    state.label_counts.get(class_id, 0) + pattern.support
                )
        self._increment = state
        return state

    def _finalize_incremental(self, state: _IncrementalState) -> None:
        """Rebuild every pattern from the accumulated state (fit-equivalent math)."""
        patterns: Dict[int, ClassExecutionPattern] = {}
        entropies: List[float] = []
        dispersions: List[float] = []
        for class_id in sorted(state.classes):
            accumulator = state.classes[class_id]
            use_correct = self.correct_only and accumulator.correct_moments.count > 0
            moments = accumulator.correct_moments if use_correct else accumulator.all_moments
            if moments.count == 0 or moments.mean_trajectory is None:
                continue
            member_traj = accumulator.member_stack(use_correct)
            mean_trajectory = moments.mean_trajectory.copy()
            divergences = trajectory_divergence_to_stack(
                mean_trajectory, member_traj, late_layer_emphasis=self.late_layer_emphasis
            )
            dispersion = float(divergences.mean()) if divergences.size else 0.0
            if member_traj.shape[0] > 1:
                pairwise = pairwise_trajectory_divergences(
                    member_traj, late_layer_emphasis=self.nn_layer_emphasis
                )
                np.fill_diagonal(pairwise, np.inf)
                member_nn_scale = float(np.median(pairwise.min(axis=1)))
            else:
                member_nn_scale = dispersion
            patterns[class_id] = ClassExecutionPattern(
                class_id=class_id,
                mean_trajectory=mean_trajectory,
                mean_confidence=mean_trajectory[:, class_id].copy(),
                dispersion=dispersion,
                mean_final_confidence=float(moments.mean_final),
                mean_entropy=float(moments.mean_entropy),
                support=int(moments.count),
                member_trajectories=member_traj,
                member_nn_scale=member_nn_scale,
            )
            entropies.append(float(moments.mean_entropy))
            dispersions.append(dispersion)
        if not patterns:
            # Nothing in range yet (e.g. only out-of-range labels so far):
            # keep the accumulated state but leave the library unfitted.
            return
        self.patterns = patterns
        self.global_mean_entropy = float(np.mean(entropies))
        self.global_mean_dispersion = float(np.mean(dispersions))
        self._training_inconsistency = max(
            state.inconsistency_floor, self._incremental_inconsistency(state)
        )
        self._batch_cache = None
        self._fitted = True

    @staticmethod
    def _incremental_inconsistency(state: _IncrementalState) -> float:
        """``_compute_training_inconsistency`` over the accumulated confusion counts."""
        total = sum(state.label_counts.values())
        if total == 0 or not state.label_counts:
            return 0.0
        expected_class_size = total / len(state.label_counts)
        worst = 0.0
        for row in state.confusion.values():
            if row:
                worst = max(worst, max(row.values()) / expected_class_size)
        return float(min(worst, 1.0))

    # -- queries ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("pattern library is not fitted; call fit() first")

    def feature_quality(self) -> float:
        """Model-level feature quality (delegates to the instrumented model)."""
        return self.instrumented.feature_quality()

    @staticmethod
    def _compute_training_inconsistency(labels: np.ndarray, predictions: np.ndarray) -> float:
        """Largest systematic label/prediction disagreement inside the training set.

        For every labeled class ``c``, the number of its training examples the
        trained model itself maps to one *single* other class ``d`` is counted
        and normalized by the expected per-class size of the training set; the
        maximum over ``(c, d)`` pairs is returned (capped at 1).  A healthy
        training set yields a small value (the model fits its own training
        data); a training set with systematically mislabeled examples yields a
        large value, because either the model refuses to learn the wrong
        labels or flips the genuine ones.
        """
        labels = np.asarray(labels)
        predictions = np.asarray(predictions)
        classes = np.unique(labels)
        if labels.size == 0 or classes.size == 0:
            return 0.0
        # Normalize by the *expected* class size so a class that is merely
        # under-represented (the ITD defect) cannot masquerade as label noise.
        expected_class_size = labels.size / classes.size
        worst = 0.0
        for c in classes:
            mask = labels == c
            wrong = predictions[mask]
            wrong = wrong[wrong != c]
            if wrong.size == 0:
                continue
            counts = np.bincount(wrong)
            worst = max(worst, float(counts.max()) / expected_class_size)
        return float(min(worst, 1.0))

    def training_inconsistency(self) -> float:
        """Largest per-class systematic disagreement between training labels and the
        model's own predictions on the training set (see ``_compute_training_inconsistency``)."""
        self._require_fitted()
        return float(getattr(self, "_training_inconsistency", 0.0))

    def has_pattern(self, class_id: int) -> bool:
        return class_id in self.patterns

    def pattern(self, class_id: int) -> ClassExecutionPattern:
        """The execution pattern of ``class_id`` (raises if the class had no data)."""
        self._require_fitted()
        if class_id not in self.patterns:
            raise KeyError(f"no execution pattern for class {class_id} (no training examples)")
        return self.patterns[class_id]

    def classes(self) -> List[int]:
        """Classes that have a learned pattern."""
        self._require_fitted()
        return sorted(self.patterns)

    # -- batched queries ----------------------------------------------------------

    def _batch_index(self) -> _PatternIndex:
        """The prepared pattern side of the batched queries, rebuilt when patterns change.

        Lazy (rather than built in ``fit``) because deserialization and tests
        assemble ``patterns`` directly; ``fit`` and ``partial_fit`` drop it.
        The cache is keyed on the *identities* of the pattern objects (not
        just the class ids), so replacing a class's pattern in place —
        recalibration, hand-assembled libraries — rebuilds the prepared means
        and members instead of serving stale ones.
        """
        self._require_fitted()
        ids = tuple(sorted(self.patterns))
        patterns = tuple(self.patterns[i] for i in ids)
        key = (ids, self.late_layer_emphasis, self.nn_layer_emphasis)
        if self._batch_cache is not None:
            cached_key, cached_patterns, index = self._batch_cache
            if cached_key == key and all(
                cached is pattern for cached, pattern in zip(cached_patterns, patterns)
            ):
                return index
        means = prepare_js_operand(np.stack([p.mean_trajectory for p in patterns]))
        num_layers = means.shape[1]
        # The nearest-member queries weight layers at nn_layer_emphasis, the
        # emphasis member_nn_scale was fitted at; at 1.0 the first layer's
        # weight is exactly 0 (early beliefs are pixel-noise dominated), and
        # the kernel skips every zero-weight layer.
        nn_weights = _unit_layer_weights(num_layers, self.nn_layer_emphasis)
        nn_layers = np.flatnonzero(nn_weights)
        members: Dict[int, Tuple[LayerMajorOperand, float]] = {}
        for class_id, pattern in zip(ids, patterns):
            stack = pattern.member_trajectories
            if stack is None or stack.shape[0] == 0:
                stack = pattern.mean_trajectory[None]
            members[class_id] = (
                LayerMajorOperand.from_stack(stack[:, nn_layers]),
                float(pattern.member_nn_scale),
            )
        index = _PatternIndex(
            class_ids=np.asarray(ids, dtype=np.int64),
            means=means,
            dispersions=np.asarray([p.dispersion for p in patterns], dtype=np.float64),
            members=members,
            similarity_weights=_unit_layer_weights(num_layers, self.late_layer_emphasis),
            # Atypicality weighs layers at a fixed emphasis of 0.5,
            # independent of the library's similarity emphasis.
            divergence_weights=_unit_layer_weights(num_layers, 0.5),
            nn_layers=nn_layers,
            nn_weights=nn_weights[nn_layers],
        )
        self._batch_cache = (key, patterns, index)
        return index

    @staticmethod
    def _check_query(stack: np.ndarray, index: _PatternIndex) -> np.ndarray:
        """A query stack as float64, checked against the patterns' (L, C)."""
        stack = check_trajectory_stack(stack)
        _, num_layers, num_classes = index.means.shape
        if stack.shape[1:] != (num_layers, num_classes):
            raise ShapeError(
                f"trajectories must have shape (N, {num_layers}, {num_classes}), "
                f"got {stack.shape}"
            )
        return stack

    def batch_pattern_matches(self, stack: np.ndarray) -> PatternMatches:
        """Compare a whole ``(N, L, C)`` stack against every class pattern at once.

        One cross kernel against the prepared class means yields the
        per-layer divergences of every (case, class) pair; the similarity
        matrix applies the library's layer emphasis and the divergence matrix
        applies the atypicality emphasis 0.5.  A case's atypicality for class
        ``c`` is ``d / (d + dispersion_c + 1e-6)`` of its divergence ``d``:
        0.5 is "about as far from the mean as a typical member", values near 1
        lie far outside the training pattern.
        """
        index = self._batch_index()
        query = prepare_js_operand(self._check_query(stack, index))
        layer_divs = cross_js_layer_divergences(query, index.means)
        return PatternMatches(
            class_ids=index.class_ids,
            similarities=1.0 - (layer_divs @ index.similarity_weights) / np.log(2.0),
            divergences=layer_divs @ index.divergence_weights,
            dispersions=index.dispersions,
            num_classes=self.num_classes,
        )

    def batch_nn_typicality(
        self, stack: np.ndarray, class_ids: np.ndarray, k: int = 3, scale_floor: float = 0.01
    ) -> np.ndarray:
        """Nearest-member typicality of every stack member w.r.t. its target classes.

        Typicality is ``scale / (scale + nearest)`` in ``[0, 1]``: ``nearest``
        is the mean divergence to the ``k`` closest members of the class, with
        layers weighted at the library's ``nn_layer_emphasis``, and ``scale``
        is the class's ``member_nn_scale`` (at least ``scale_floor``).  0.5
        means "as close as members are to each other", values near 1 mean the
        case practically coincides with specific training members, values near
        0 mean even the closest members are far away.

        ``class_ids`` is ``(N,)`` (one target per case) or ``(N, T)`` (``T``
        targets per case, e.g. the predicted and the true class), and the
        result has its shape.  The stack is prepared once, on the layers with
        a non-zero nn weight, and each class's (case, target) pairs are
        compared against that class's prepared member stack in one
        :func:`weighted_js_divergences` kernel, queries innermost.  Classes
        without a pattern score 0; a class without stored members is
        compared against its mean trajectory.
        """
        index = self._batch_index()
        stack = self._check_query(stack, index)
        class_ids = np.asarray(class_ids, dtype=np.int64)
        if class_ids.ndim not in (1, 2) or class_ids.shape[0] != stack.shape[0]:
            raise ShapeError(
                f"class_ids must be (N,) or (N, T) with one row per case, got shape "
                f"{class_ids.shape} for {stack.shape[0]} cases"
            )
        query = LayerMajorOperand.from_stack(stack[:, index.nn_layers])
        out = np.zeros(class_ids.shape, dtype=np.float64)
        for class_value in np.unique(class_ids):
            entry = index.members.get(int(class_value))
            if entry is None:
                continue  # unknown class: typicality stays 0
            members, nn_scale = entry
            targets = np.nonzero(class_ids == class_value)
            # (M, n): one column per (case, target) pair of this class.
            divergences = weighted_js_divergences(
                members, query.select(targets[0]), index.nn_weights
            )
            kk = max(1, min(int(k), divergences.shape[0]))
            nearest = np.partition(divergences, kk - 1, axis=0)[:kk].mean(axis=0)
            scale = max(nn_scale, scale_floor)
            out[targets] = scale / (scale + nearest)
        return out

    def pattern_overlap(self) -> float:
        """Mean pairwise similarity between different classes' mean trajectories.

        Well-separated classes (a sound backbone) score low; a backbone whose
        hidden layers cannot tell the classes apart scores high.  Computed
        loop-free as one cross kernel over the prepared class means.
        """
        index = self._batch_index()
        k = index.class_ids.shape[0]
        if k < 2:
            return 0.0
        divergences = (
            cross_js_layer_divergences(index.means, index.means) @ index.similarity_weights
        )
        similarities = 1.0 - divergences / np.log(2.0)
        upper = np.triu_indices(k, 1)
        return float(np.mean(similarities[upper]))

    def __repr__(self) -> str:
        status = "fitted" if self._fitted else "unfitted"
        return f"PatternLibrary(classes={len(self.patterns)}, {status})"
