"""Incremental pattern updates from live labeled traffic.

:class:`PatternUpdater` buffers labeled ``(trajectories, final_probs,
labels)`` observations served by the diagnosis stack and periodically folds
them into its model's :class:`~repro.core.patterns.PatternLibrary` via
:meth:`~repro.core.patterns.PatternLibrary.partial_fit_arrays` — no second
forward pass, Welford-merged statistics equivalent to a full refit.

Every applied update is snapshotted through an artifact registry (duck-typed:
anything with ``register(name, morph, metadata=...)``, in practice
:class:`repro.serve.ArtifactRegistry`) as a **new immutable version**.  The
serving layer keeps resolving ``version=None`` to the latest snapshot, so an
update rolls forward automatically — and rolling *back* after a bad update is
a one-line resolve of the previous version, whose artifact bytes were never
touched.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from ..core.diagnosis import DeepMorph
from ..obs import span as obs_span

__all__ = ["PatternUpdater", "UpdateResult", "RegistryLike"]


class RegistryLike(Protocol):
    """The one registry method the updater needs (keeps monitor cycle-free)."""

    def register(
        self, name: str, morph: DeepMorph, version: Optional[str] = None,
        metadata: Optional[Dict] = None,
    ) -> object: ...


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one applied pattern update."""

    model: str
    cases: int
    classes: Tuple[int, ...]
    registered: Optional[Dict]  # manifest record of the snapshot, if registered
    applied_at: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "cases": self.cases,
            "classes": list(self.classes),
            "registered": self.registered,
            "applied_at": self.applied_at,
        }


class PatternUpdater:
    """Buffer labeled observations; periodically ``partial_fit`` + snapshot.

    The updater owns its *own* :class:`DeepMorph` instance (typically loaded
    fresh from the registry), never the one the serving layer is answering
    requests with — serving state (resident models and their precomputed
    per-model contexts) stays immutable, and an update only becomes visible
    by registering a new artifact version.

    Parameters
    ----------
    morph:
        The fitted DeepMorph whose pattern library absorbs the updates.
    name:
        Registry name updates are snapshotted under.
    registry:
        Optional registry the snapshots are registered with; ``None`` keeps
        updates in-memory only.
    min_cases:
        :meth:`maybe_apply` folds the buffer once it holds at least this
        many labeled cases.
    max_buffer_cases:
        Hard bound on buffered cases; beyond it the oldest chunks are
        discarded (counted in :attr:`discarded_total`).
    """

    def __init__(
        self,
        morph: DeepMorph,
        name: str,
        registry: Optional[RegistryLike] = None,
        min_cases: int = 256,
        max_buffer_cases: int = 65536,
    ) -> None:
        if min_cases < 1:
            raise ValueError(f"min_cases must be >= 1, got {min_cases}")
        if max_buffer_cases < min_cases:
            raise ValueError(
                f"max_buffer_cases ({max_buffer_cases}) must be >= min_cases ({min_cases})"
            )
        self.morph = morph
        self.name = name
        self.registry = registry
        self.min_cases = int(min_cases)
        self.max_buffer_cases = int(max_buffer_cases)
        self._lock = threading.Lock()
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pending = 0
        self.discarded_total = 0
        self.applied_total = 0
        self.cases_applied_total = 0
        self.last_result: Optional[UpdateResult] = None

    # -- buffering ----------------------------------------------------------------

    def add(
        self, trajectories: np.ndarray, final_probs: np.ndarray, labels: np.ndarray
    ) -> int:
        """Buffer one labeled chunk; returns the pending case count."""
        trajectories = np.asarray(trajectories)
        final_probs = np.asarray(final_probs)
        labels = np.asarray(labels).reshape(-1)
        rows = int(labels.shape[0])
        if rows == 0:
            return self._pending
        with self._lock:
            self._chunks.append((trajectories.copy(), final_probs.copy(), labels.copy()))
            self._pending += rows
            while self._pending > self.max_buffer_cases and len(self._chunks) > 1:
                oldest = self._chunks.pop(0)
                dropped = int(oldest[2].shape[0])
                self._pending -= dropped
                self.discarded_total += dropped
            return self._pending

    @property
    def pending_cases(self) -> int:
        return int(self._pending)

    def ready(self) -> bool:
        """Whether the buffer holds enough cases for an update."""
        return self._pending >= self.min_cases

    # -- applying -----------------------------------------------------------------

    def maybe_apply(self, metadata: Optional[Dict] = None) -> Optional[UpdateResult]:
        """Apply the buffered update if :meth:`ready`, else do nothing."""
        if not self.ready():
            return None
        return self.apply(metadata=metadata)

    def apply(self, metadata: Optional[Dict] = None) -> Optional[UpdateResult]:
        """Fold the buffered cases into the library and snapshot the artifact.

        Returns ``None`` when the buffer is empty.  The registry write (when
        configured) happens outside the buffer lock but inside the updater's
        application path, so concurrent ``apply`` calls serialize on the
        buffer swap and each snapshot sees a consistent library.
        """
        with self._lock:
            if not self._chunks:
                return None
            chunks, self._chunks = self._chunks, []
            self._pending = 0
        if len(chunks) == 1:
            trajectories, final_probs, labels = chunks[0]
        else:
            trajectories = np.concatenate([c[0] for c in chunks], axis=0)
            final_probs = np.concatenate([c[1] for c in chunks], axis=0)
            labels = np.concatenate([c[2] for c in chunks], axis=0)
        with obs_span(
            "monitor.update", {"model": self.name, "cases": int(labels.shape[0])}
        ):
            library = self.morph.patterns
            library.partial_fit_arrays(trajectories, final_probs, labels)
            classes = tuple(int(c) for c in np.unique(labels) if c in library.patterns)
            registered: Optional[Dict] = None
            if self.registry is not None:
                manifest = {
                    "monitor": {
                        "kind": "partial_fit",
                        "cases": int(labels.shape[0]),
                        "classes": list(classes),
                    }
                }
                manifest.update(metadata or {})
                record = self.registry.register(self.name, self.morph, metadata=manifest)
                as_dict = getattr(record, "as_dict", None)
                registered = as_dict() if callable(as_dict) else None
        result = UpdateResult(
            model=self.name,
            cases=int(labels.shape[0]),
            classes=classes,
            registered=registered,
            applied_at=time.time(),
        )
        with self._lock:
            self.applied_total += 1
            self.cases_applied_total += result.cases
            self.last_result = result
        return result

    def stats(self) -> Dict[str, object]:
        """Counters and the last result for ``/monitor`` payloads."""
        with self._lock:
            return {
                "model": self.name,
                "pending_cases": int(self._pending),
                "min_cases": self.min_cases,
                "applied_total": self.applied_total,
                "cases_applied_total": self.cases_applied_total,
                "discarded_total": self.discarded_total,
                "last_result": self.last_result.as_dict() if self.last_result else None,
            }
