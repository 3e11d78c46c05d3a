"""Response caching for the diagnosis gateway.

Production monitoring re-submits the same payloads over and over (the same
faulty cases keep showing up while a defect is being investigated), and a
diagnosis — extraction, specifics, scoring — is far costlier than a lookup.
The gateway therefore answers whole-payload repeats from a bounded, TTL'd
:class:`ResponseCache` before any replica is involved; every request that
misses it runs the full pipeline.  :class:`LRUCache` is the thread-safe
mapping underneath.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Tuple

__all__ = ["LRUCache", "ResponseCache", "ResponseEntry"]


class LRUCache:
    """A thread-safe least-recently-used mapping with hit/miss accounting.

    ``maxsize <= 0`` disables the cache entirely (every ``get`` misses and
    ``put`` is a no-op), which gives the response cache a uniform code path
    for the "caching off" configuration.
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
