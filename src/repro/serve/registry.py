"""Artifact registry: named, versioned storage of fitted DeepMorph instances.

The registry is a plain directory tree —

::

    <root>/
        <model name>/
            v1/
                artifact.npz    # the fitted DeepMorph (repro.serialize.deepmorph)
                manifest.json   # name, version, creation time, free-form metadata
            v2/
                ...

— so artifacts survive process restarts, can be rsync'd between machines, and
remain inspectable without the library.  Versions are monotonically numbered
(``v1``, ``v2``, ...); ``version=None`` always resolves to the latest.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.diagnosis import DeepMorph
from ..exceptions import ArtifactNotFoundError, ServeError
from ..serialize.deepmorph import load_deepmorph, save_deepmorph

__all__ = ["ArtifactRecord", "ArtifactRegistry"]

PathLike = Union[str, Path]

#: A name is one directory, so it stays within the 255-byte file-name limit
#: of common filesystems: a longer one is the client's error, not an OSError.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,254}$")
_VERSION_RE = re.compile(r"^v(\d+)$")

_ARTIFACT_FILE = "artifact.npz"
_MANIFEST_FILE = "manifest.json"
_SEQUENCE_FILE = ".sequence"


@dataclass(frozen=True)
class ArtifactRecord:
    """Manifest entry describing one registered artifact version."""

    name: str
    version: str
    path: Path
    created_at: float
    model_kind: str
    num_classes: int
    metadata: Dict

    @property
    def key(self) -> str:
        """Canonical ``name@version`` identifier used by the serving layer."""
        return f"{self.name}@{self.version}"

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "version": self.version,
            "key": self.key,
            "created_at": self.created_at,
            "model_kind": self.model_kind,
            "num_classes": self.num_classes,
            "metadata": dict(self.metadata),
        }


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ServeError(
            f"invalid artifact name {name!r}; use up to 255 letters, digits, '.', '_' or '-'"
        )
    return name


class ArtifactRegistry:
    """Persist and resolve fitted DeepMorph instances by ``name`` + ``version``."""

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    # -- write side ----------------------------------------------------------------

    def register(
        self,
        name: str,
        morph: DeepMorph,
        version: Optional[str] = None,
        metadata: Optional[Dict] = None,
    ) -> ArtifactRecord:
        """Persist a fitted DeepMorph under ``name`` and return its record.

        ``version=None`` allocates the next ``v<n>``; an explicit version must
        be fresh (re-registering an existing version is an error — artifacts
        are immutable once written).

        Safe under concurrent writers — in-process (the monitor's background
        ``partial_fit`` snapshots race user calls) and cross-process (a CLI
        registering against a live service).  The version directory's
        ``mkdir`` is the atomic claim: a collision on an auto-allocated
        version rescans and retries with the next number, a collision on an
        explicit version is the immutability error.  The manifest is the
        commit marker — written last, via an atomic rename, and required by
        the version listing — so readers never resolve a half-written
        version.  Sequence-file updates are atomic renames too, so a
        concurrent reader never sees a torn write.
        """
        _validate_name(name)
        with self._lock:
            if version is not None and not _VERSION_RE.match(version):
                raise ServeError(f"invalid version {version!r}; use 'v<number>'")
            version_dir = self._claim_version_dir(name, version)
            version = version_dir.name
            try:
                save_deepmorph(morph, version_dir / _ARTIFACT_FILE)
                manifest = {
                    "name": name,
                    "version": version,
                    "created_at": time.time(),
                    "model_kind": morph.model.kind,
                    "num_classes": morph.model.num_classes,
                    "metadata": dict(metadata or {}),
                }
                # The manifest write is the publish point: temp + os.replace
                # makes the version appear to readers all-or-nothing, after
                # its artifact bytes are already on disk.
                manifest_path = version_dir / _MANIFEST_FILE
                tmp_path = manifest_path.with_name(
                    f"{_MANIFEST_FILE}.{os.getpid()}.{threading.get_ident()}.tmp"
                )
                with open(tmp_path, "w", encoding="utf-8") as handle:
                    json.dump(manifest, handle, indent=2, sort_keys=True)
                os.replace(tmp_path, manifest_path)
                self._bump_sequence(name, self._version_number(version))
            except Exception:
                shutil.rmtree(version_dir, ignore_errors=True)
                raise
        return self.record(name, version)

    def _claim_version_dir(self, name: str, version: Optional[str]) -> Path:
        """Atomically claim (create) the directory of the version to register.

        ``mkdir`` without ``exist_ok`` is the one filesystem operation that
        both creates and detects a concurrent claim atomically; auto
        allocation retries with a fresh scan on collision, explicit versions
        surface the immutability error.
        """
        if version is not None:
            version_dir = self.root / name / version
            try:
                version_dir.mkdir(parents=True)
            except FileExistsError:
                raise ServeError(
                    f"artifact {name}@{version} already exists; versions are immutable"
                ) from None
            return version_dir
        for _ in range(1000):
            candidate = self.root / name / f"v{self._next_version_number(name)}"
            try:
                candidate.mkdir(parents=True)
            except FileExistsError:
                continue  # another writer claimed this number; rescan
            return candidate
        raise ServeError(f"could not allocate a fresh version for {name!r}")

    def _sequence_path(self, name: str) -> Path:
        return self.root / name / _SEQUENCE_FILE

    def _next_version_number(self, name: str) -> int:
        """Next free version number, never reusing a deleted one.

        Deleted version numbers must stay burned: the serving layer caches
        loaded models and footprints under ``name@version`` keys, so reusing
        a number would silently serve a stale artifact.  A per-model sequence
        file keeps the high-water mark across deletes.

        The scan counts every claimed ``v<n>`` directory — including ones a
        concurrent writer has created but not yet written an artifact into —
        so an allocation retry after an mkdir collision always moves past the
        contested number.
        """
        model_dir = self.root / name
        claimed = (
            (entry.name for entry in model_dir.iterdir()
             if entry.is_dir() and _VERSION_RE.match(entry.name))
            if model_dir.is_dir()
            else ()
        )
        highest = max((self._version_number(v) for v in claimed), default=0)
        sequence_path = self._sequence_path(name)
        if sequence_path.exists():
            try:
                highest = max(highest, int(sequence_path.read_text().strip()))
            except ValueError:
                pass
        return highest + 1

    def _bump_sequence(self, name: str, number: int) -> None:
        """Raise the high-water mark to ``number`` with an atomic rename.

        The new value is written to a temp file and ``os.replace``d over the
        sequence file, so a concurrent reader sees either the old or the new
        content, never a torn write.  Concurrent bumps may race the
        read-compare, but the mark only ever needs to reach the highest
        *registered* number and every registration bumps with its own — the
        on-disk version scan in :meth:`_next_version_number` covers any
        transiently lower mark.
        """
        sequence_path = self._sequence_path(name)
        current = 0
        if sequence_path.exists():
            try:
                current = int(sequence_path.read_text().strip())
            except ValueError:
                pass
        if number > current:
            tmp_path = sequence_path.with_name(
                f"{_SEQUENCE_FILE}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            tmp_path.write_text(str(number))
            os.replace(tmp_path, sequence_path)

    def delete(self, name: str, version: Optional[str] = None) -> None:
        """Delete one version, or the whole model when ``version`` is ``None``."""
        _validate_name(name)
        with self._lock:
            target = self.root / name if version is None else self.root / name / version
            registered = (
                bool(self._versions_on_disk(name))
                if version is None
                else (target / _ARTIFACT_FILE).exists()
            )
            if not registered:
                label = name if version is None else f"{name}@{version}"
                raise ArtifactNotFoundError(label)
            # Burn the deleted version numbers before removing anything (a
            # whole-model delete takes the sequence file with it otherwise).
            high_water = self._next_version_number(name) - 1
            shutil.rmtree(target)
            if high_water > 0:
                (self.root / name).mkdir(parents=True, exist_ok=True)
                self._bump_sequence(name, high_water)

    # -- read side ------------------------------------------------------------------

    def _versions_on_disk(self, name: str) -> List[str]:
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        return [
            entry.name
            for entry in model_dir.iterdir()
            if entry.is_dir() and _VERSION_RE.match(entry.name)
            # The manifest is register()'s last, atomic write: requiring it
            # hides versions that are claimed (or mid-write) but not yet
            # committed, so a concurrent reader never loads a torn artifact.
            and (entry / _MANIFEST_FILE).exists()
        ]

    @staticmethod
    def _version_number(version: str) -> int:
        return int(_VERSION_RE.match(version).group(1))

    def models(self) -> List[str]:
        """Names that have at least one registered version."""
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and self._versions_on_disk(entry.name)
        )

    def versions(self, name: str) -> List[str]:
        """Versions of ``name``, oldest first."""
        _validate_name(name)
        found = self._versions_on_disk(name)
        if not found:
            raise ArtifactNotFoundError(name)
        return sorted(found, key=self._version_number)

    def resolve(self, name: str, version: Optional[str] = None) -> str:
        """Resolve ``version`` (or the latest) to a concrete version string."""
        available = self.versions(name)
        if version is None:
            return available[-1]
        if version not in available:
            raise ArtifactNotFoundError(f"{name}@{version}")
        return version

    def record(self, name: str, version: Optional[str] = None) -> ArtifactRecord:
        """Manifest record of one artifact version (latest when ``None``)."""
        version = self.resolve(name, version)
        version_dir = self.root / name / version
        manifest_path = version_dir / _MANIFEST_FILE
        manifest: Dict = {}
        if manifest_path.exists():
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        return ArtifactRecord(
            name=name,
            version=version,
            path=version_dir / _ARTIFACT_FILE,
            created_at=float(manifest.get("created_at", 0.0)),
            model_kind=str(manifest.get("model_kind", "unknown")),
            num_classes=int(manifest.get("num_classes", 0)),
            metadata=dict(manifest.get("metadata", {})),
        )

    def records(self) -> List[ArtifactRecord]:
        """One record per registered version, over every model."""
        return [
            self.record(name, version)
            for name in self.models()
            for version in self.versions(name)
        ]

    def load(self, name: str, version: Optional[str] = None) -> DeepMorph:
        """Load the fitted DeepMorph for ``name@version`` (latest when ``None``)."""
        record = self.record(name, version)
        return load_deepmorph(record.path)

    def __contains__(self, name: str) -> bool:
        return bool(self._versions_on_disk(name))

    def __repr__(self) -> str:
        return f"ArtifactRegistry(root={str(self.root)!r}, models={self.models()})"
