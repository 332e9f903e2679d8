"""Cache for certificates and verdicts, with resume.

A key is the canonical JSON text of the request (group, label, split,
operation, the caps the operation reads, seed).  Each entry is named by a
checksum of the request, and carries the request and the artifact version
that wrote it beside its value.  It is served only for that request and
version: a name collision, an entry copied under another name, or an entry
of another version is a miss, which the rerun overwrites in place.  The
checksum is `zlib`'s, as `hashlib` would load OpenSSL into every CLI
process.  Writes are atomic (temp file then rename), and corrupt entries
are misses.  One process owns a cache directory at a time, via a lock
file."""

from __future__ import annotations

import json
import os
import zlib
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
                              f"(remove {self._lock_path} if stale)") from None
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
        return canonical_json(payload)

    def _path(self, key: str) -> Path:
        text = key.encode()
        name = f"{zlib.crc32(text):08x}{zlib.adler32(text):08x}"
        return self.root / f"{name}.json"

    def get(self, key: str):
        path = self._path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None            # corrupt entry: treated as a miss
        if (not isinstance(entry, dict)
                or entry.get("artifact_version") != ARTIFACT_VERSION
                or entry.get("request") != key):
            return None
        return entry.get("value")

    def put(self, key: str, value) -> None:
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        entry = {"artifact_version": ARTIFACT_VERSION, "request": key,
                 "value": value}
        tmp.write_text(canonical_json(entry))
        os.replace(tmp, path)
