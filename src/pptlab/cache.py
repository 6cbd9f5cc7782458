"""Append-only JSON-lines result cache.

One object per line: {"key": ..., "version": ..., "record": ...}.  The
cache is a pure accelerator: entries from other tool versions are
ignored, corrupted lines are skipped with a warning, and any I/O failure
degrades to cache-off without changing results.

Lookups go through one per-process index of the last cache file read:
its identity, the byte offset scanned so far, and the byte span of the
last line for each ``(key, version)``.  A lookup parses only the whole
lines appended since the previous one (a line still being written waits
for its newline), then reads and parses the one line it hits.  The index
holds no records, so memory does not grow with the cache.  A file that
was replaced, truncated or rewritten in place is scanned again from the
start; a hit whose line no longer carries the key it was indexed under is
never returned.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

CACHE_FILE = "cache.jsonl"
CACHE_ENV = "PPTLAB_CACHE"


def content_hash(payload: dict) -> str:
    """SHA-256 of the canonical byte encoding of a JSON-able payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _warn(message: str) -> None:
    print(f"pptlab: cache warning: {message}", file=sys.stderr)


@dataclass
class _Index:
    """Where each entry of one cache file sits, as of the last scan."""

    identity: tuple  # (path, st_dev, st_ino)
    offset: int = 0  # bytes scanned: always just past a newline
    lines: int = 0
    spans: dict = field(default_factory=dict)  # (key, version) -> (start, end)


_index: _Index | None = None
_index_lock = threading.Lock()


def _parse(raw: bytes) -> dict | None:
    """The entry on one line, or None if the line is corrupted."""
    try:
        entry = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    if (
        isinstance(entry, dict)
        and isinstance(entry.get("key"), str)
        and isinstance(entry.get("version"), str)
        and "record" in entry
    ):
        return entry
    return None


def _refresh(fh, path: Path) -> _Index:
    """The index of the open cache file ``fh``, extended by its new whole lines."""
    global _index
    st = os.fstat(fh.fileno())
    index = _index
    identity = (str(path), st.st_dev, st.st_ino)
    if index is None or index.identity != identity or st.st_size < index.offset:
        index = _Index(identity)
    elif index.offset:
        fh.seek(index.offset - 1)
        if fh.read(1) != b"\n":  # rewritten in place: the scanned prefix moved
            index = _Index(identity)
    _index = index
    fh.seek(index.offset)
    tail = fh.read()
    start = index.offset
    for raw in tail[: tail.rfind(b"\n") + 1].split(b"\n")[:-1]:
        index.lines += 1
        if raw.strip():
            entry = _parse(raw)
            if entry is None:
                _warn(f"skipping corrupted line {index.lines} in {path}")
            else:
                index.spans[entry["key"], entry["version"]] = (start, start + len(raw))
        start += len(raw) + 1
    index.offset = start
    return index


class ResultCache:
    def __init__(self, directory: str | Path):
        self.path = Path(directory) / CACHE_FILE

    @classmethod
    def from_environment(cls, flag_value: str | None = None) -> "ResultCache | None":
        directory = flag_value or os.environ.get(CACHE_ENV)
        return cls(directory) if directory else None

    def get(self, key: str, version: str) -> dict | None:
        global _index
        with _index_lock:
            try:
                with open(self.path, "rb") as fh:
                    for _ in range(2):
                        span = _refresh(fh, self.path).spans.get((key, version))
                        if span is None:
                            return None
                        fh.seek(span[0])
                        entry = _parse(fh.read(span[1] - span[0]))
                        if entry is not None and entry["key"] == key and entry["version"] == version:
                            return entry["record"]
                        _index = None  # the line moved under the index: scan once more
                    return None
            except (FileNotFoundError, NotADirectoryError):
                return None
            except OSError as exc:
                _index = None
                _warn(f"read failed ({exc}); continuing without cache")
                return None

    def put(self, key: str, version: str, record: dict) -> None:
        entry = {"key": key, "version": version, "record": record}
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # one unbuffered O_APPEND write, so concurrent writers never interleave a line
            with open(self.path, "ab", buffering=0) as fh:
                written = fh.write(line)
        except OSError as exc:
            _warn(f"write failed ({exc}); result not cached")
            return
        if written != len(line):
            _warn(f"short write ({written} of {len(line)} bytes) to {self.path}")
