"""Footprint caching for the diagnosis service.

Production monitoring re-submits the same inputs over and over (the same
faulty cases keep showing up while a defect is being investigated), and
footprint extraction — a full instrumented forward pass plus one probe
evaluation per hidden layer — is by far the most expensive step of a
diagnosis.  The service therefore memoizes per-case extraction results in a
bounded, thread-safe LRU cache keyed on a digest of the raw input bytes.

Cache values are ``(trajectory, final_probs)`` pairs, which are independent of
the request's true labels: labels are only attached when footprints are
rebuilt through :meth:`repro.core.FootprintExtractor.from_arrays`, so a case
cached during one request is reusable by any later request regardless of
labeling.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

__all__ = ["LRUCache", "FootprintCache", "ResponseCache", "ResponseEntry", "input_digest"]


def input_digest(row: np.ndarray) -> str:
    """Stable content digest of one input example.

    Hashes the raw bytes together with shape and dtype so arrays that compare
    equal after a reshape or cast do not collide.
    """
    row = np.ascontiguousarray(row)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(str(row.dtype).encode())
    hasher.update(str(row.shape).encode())
    hasher.update(row.tobytes())
    return hasher.hexdigest()


class LRUCache:
    """A thread-safe least-recently-used mapping with hit/miss accounting.

    ``maxsize <= 0`` disables the cache entirely (every ``get`` misses and
    ``put`` is a no-op), which gives the service a uniform code path for the
    "caching off" configuration.
    """

    def __init__(self, maxsize: int = 1024):
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default=None):
        """Return the cached value for ``key`` (marking it most recent) or ``default``."""
        with self._lock:
            if key not in self._data:
                self.misses += 1
                return default
            self.hits += 1
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key: Hashable, value) -> None:
        """Insert ``value`` under ``key``, evicting the least recent entry if full."""
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:
        return f"LRUCache(size={len(self)}, maxsize={self.maxsize})"


class FootprintCache:
    """Per-case ``(trajectory, final_probs)`` cache keyed on ``(model, input digest)``.

    The model key is part of the cache key because the same input produces
    different footprints under different registered models (or versions of the
    same model).  When a :class:`~repro.serve.metrics.MetricsRegistry` is
    given, per-row hits/misses, evictions, and the resident size are recorded
    there (in addition to the cache's own :meth:`stats` counters).
    """

    def __init__(self, maxsize: int = 4096, metrics=None):
        self._cache = LRUCache(maxsize)
        self._metrics = metrics
        if metrics is not None:
            self._m_hits = metrics.counter("cache.hits_total", "footprint cache row hits")
            self._m_misses = metrics.counter("cache.misses_total", "footprint cache row misses")
            self._m_evictions = metrics.counter(
                "cache.evictions_total", "footprint cache rows evicted"
            )
            self._m_size = metrics.gauge("cache.size", "footprint cache resident rows")

    def lookup(
        self, model_key: str, inputs: np.ndarray
    ) -> Tuple[List[Optional[Tuple[np.ndarray, np.ndarray]]], List[str]]:
        """Check every row of ``inputs`` against the cache.

        Returns ``(entries, digests)`` where ``entries[i]`` is the cached
        ``(trajectory, final_probs)`` pair for row ``i`` or ``None`` on a
        miss, and ``digests[i]`` is row ``i``'s content digest (so the caller
        can :meth:`store` freshly-extracted rows without re-hashing).
        """
        entries: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
        digests: List[str] = []
        for i in range(inputs.shape[0]):
            digest = input_digest(inputs[i])
            digests.append(digest)
            entries.append(self._cache.get((model_key, digest)))
        if self._metrics is not None:
            hits = sum(1 for entry in entries if entry is not None)
            self._m_hits.inc(hits)
            self._m_misses.inc(len(entries) - hits)
        return entries, digests

    def store(
        self, model_key: str, digest: str, trajectory: np.ndarray, final_probs: np.ndarray
    ) -> None:
        """Cache one freshly-extracted case."""
        before = self._cache.evictions
        self._cache.put((model_key, digest), (trajectory.copy(), final_probs.copy()))
        if self._metrics is not None:
            self._m_evictions.inc(self._cache.evictions - before)
        self._update_size()

    def clear(self) -> None:
        self._cache.clear()
        self._update_size()

    def invalidate_model(self, name: str, version: Optional[str] = None) -> int:
        """Drop every cached case of ``name@version`` (every version if ``None``).

        Matches the cache's own keys, not the models resident in a service: a
        model that has left residency still has its footprints cached.
        Returns how many cases were dropped.
        """
        with self._cache._lock:
            doomed = [
                key for key in self._cache._data
                if key[0] == f"{name}@{version}"
                or (version is None and key[0].partition("@")[0] == name)
            ]
            for key in doomed:
                del self._cache._data[key]
        self._update_size()
        return len(doomed)

    def _update_size(self) -> None:
        if self._metrics is not None:
            self._m_size.set(len(self._cache))

    def stats(self) -> Dict[str, int]:
        return self._cache.stats()

    def __repr__(self) -> str:
        return f"FootprintCache({self._cache!r})"


class ResponseEntry:
    """One cached ``/diagnose`` answer: the decoded document plus its encodings.

    The document is codec-neutral; wire bytes are produced lazily per codec
    and memoized, so a cache hit re-serves the exact bytes of the original
    response (bitwise identity for same-codec repeats) and a JSON entry can
    answer a binary client without recomputing the diagnosis.
    """

    __slots__ = ("expires_at", "document", "_encoded", "_lock")

    def __init__(self, expires_at: float, document: Dict):
        self.expires_at = float(expires_at)
        self.document = document
        self._encoded: Dict[str, bytes] = {}
        self._lock = threading.Lock()

    def encoded(self, codec) -> bytes:
        """The document as wire bytes under ``codec`` (memoized per content type)."""
        with self._lock:
            blob = self._encoded.get(codec.content_type)
            if blob is None:
                blob = codec.encode_report(self.document)
                self._encoded[codec.content_type] = blob
            return blob


class ResponseCache:
    """Two-level TTL'd response cache keyed on *decoded* request identity.

    A raw-body digest cannot share entries across wire codecs (the same
    arrays have different byte representations per encoding), so the cache
    keys twice:

    * ``(content type, body digest) -> canonical key`` — the loop-side fast
      path: a byte-identical repeat resolves to its entry without decoding
      anything;
    * ``canonical key -> ResponseEntry`` — the canonical level, keyed on
      :func:`repro.wire.request_digest` of the decoded request, so a JSON and
      a binary request for the same payload share one entry (the second
      codec's first hit pays one decode+digest, then its body digest is
      linked for the fast path).

    ``maxsize <= 0`` disables both levels.  Expired entries read as misses
    and are replaced by the next store.  Hit/miss accounting is the
    *caller's* (response-level counters live in the gateway's metrics);
    the embedded ``LRUCache`` counters are internal.
    """

    def __init__(
        self,
        maxsize: int = 1024,
        ttl_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.maxsize = int(maxsize)
        self.ttl_seconds = float(ttl_seconds)
        self._clock = clock
        # Sized alike: every entry has at least one body alias, and LRU
        # eviction keeps the alias map from outliving its entries for long.
        self._bodies = LRUCache(self.maxsize)
        self._entries = LRUCache(self.maxsize)

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    @staticmethod
    def body_key(content_type: str, body: bytes) -> str:
        """Digest of one request's raw wire form (codec-qualified)."""
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(content_type.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(body)
        return hasher.hexdigest()

    def _fresh(self, canonical_key: str) -> Optional[ResponseEntry]:
        entry = self._entries.get(canonical_key)
        if isinstance(entry, ResponseEntry) and self._clock() < entry.expires_at:
            return entry
        return None

    def lookup_body(
        self, content_type: str, body: bytes
    ) -> Tuple[Optional[str], Optional[ResponseEntry]]:
        """``(body key, fresh entry or None)`` — the pre-decode fast path.

        The key is ``None`` when the cache is disabled (callers skip every
        later cache step on ``None``).
        """
        if not self.enabled:
            return None, None
        key = self.body_key(content_type, body)
        canonical = self._bodies.get(key)
        if canonical is None:
            return key, None
        return key, self._fresh(canonical)

    def lookup_canonical(self, canonical_key: Optional[str]) -> Optional[ResponseEntry]:
        """A fresh entry under the decoded request's digest, if any."""
        if not self.enabled or canonical_key is None:
            return None
        return self._fresh(canonical_key)

    def link(self, body_key: Optional[str], canonical_key: str) -> None:
        """Alias one raw wire form to an entry (cross-codec fast-path admission)."""
        if self.enabled and body_key is not None:
            self._bodies.put(body_key, canonical_key)

    def store(
        self, body_key: Optional[str], canonical_key: str, document: Dict
    ) -> ResponseEntry:
        """Admit a freshly computed response under both key levels."""
        entry = ResponseEntry(self._clock() + self.ttl_seconds, document)
        self._entries.put(canonical_key, entry)
        self.link(body_key, canonical_key)
        return entry

    def clear(self) -> None:
        self._bodies.clear()
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResponseCache(size={len(self)}, maxsize={self.maxsize}, "
            f"ttl={self.ttl_seconds})"
        )
