"""Content-addressed cache for certificates and verdicts, with resume.

Keys are digests of the canonical request (group, label, split, operation,
caps, seed, artifact version); values are canonical JSON.  Writes are
atomic (temp file then rename), stale-version entries are misses, corrupt
entries are misses.  One process owns a cache directory at a time, via a
lock file."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from . import ARTIFACT_VERSION


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class CacheLocked(RuntimeError):
    pass


class Cache:
    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock_path = self.root / "lock"
        self._lock_fd = None

    def acquire(self):
        try:
            fd = os.open(self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise CacheLocked(f"cache directory {self.root} is locked "
                              f"(remove {self._lock_path} if stale)")
        os.write(fd, str(os.getpid()).encode())
        self._lock_fd = fd
        return self

    def release(self):
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            self._lock_fd = None
            try:
                os.unlink(self._lock_path)
            except FileNotFoundError:
                pass

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()

    def key(self, payload: dict) -> str:
        payload = dict(payload)
        payload["artifact_version"] = ARTIFACT_VERSION
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        path = self._path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None            # corrupt entry: treated as a miss
        if entry.get("artifact_version") != ARTIFACT_VERSION:
            return None
        return entry.get("value")

    def put(self, key: str, value) -> None:
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        entry = {"artifact_version": ARTIFACT_VERSION, "value": value}
        tmp.write_text(canonical_json(entry))
        os.replace(tmp, path)
