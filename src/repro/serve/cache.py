"""Response caching for the diagnosis gateway.

Production monitoring re-submits the same payloads over and over (the same
faulty cases keep showing up while a defect is being investigated), and a
diagnosis — extraction, specifics, scoring — is far costlier than a lookup.
The gateway therefore answers byte-identical repeats of a request body from a
bounded, TTL'd :class:`ResponseCache` before any replica is involved; every
request that misses it runs the full pipeline.  :class:`LRUCache` is the thread-safe
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
    response (bitwise identity for same-codec repeats) and answers whatever
    codec the repeat's ``Accept`` names without recomputing the diagnosis.
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
    """TTL'd LRU of ``/diagnose`` responses keyed on the raw request body.

    The key is :meth:`body_key`: a digest of the request's content type and
    its exact bytes, so a hit needs no decoding at all.  Only a
    byte-identical repeat under the same codec hits; the same request
    re-sent under another codec, or in another JSON spelling, is a miss and
    runs the full pipeline.

    ``maxsize <= 0`` disables the cache.  Expired entries read as misses and
    are replaced by the next store.  Hit/miss accounting is the *caller's*
    (response-level counters live in the gateway's metrics); the embedded
    ``LRUCache`` counters are internal.
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

    def lookup_body(
        self, content_type: str, body: bytes
    ) -> Tuple[Optional[str], Optional[ResponseEntry]]:
        """``(body key, fresh entry or None)`` for one raw request.

        The key is ``None`` when the cache is disabled (callers then store
        nothing).
        """
        if not self.enabled:
            return None, None
        key = self.body_key(content_type, body)
        entry = self._entries.get(key)
        if entry is not None and self._clock() < entry.expires_at:
            return key, entry
        return key, None

    def store(self, body_key: str, document: Dict) -> ResponseEntry:
        """Admit a freshly computed response under its body key."""
        entry = ResponseEntry(self._clock() + self.ttl_seconds, document)
        self._entries.put(body_key, entry)
        return entry

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResponseCache(size={len(self)}, maxsize={self.maxsize}, "
            f"ttl={self.ttl_seconds})"
        )
