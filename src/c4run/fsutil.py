"""Filesystem primitives: atomic replace, write-once link, advisory locks.

Durability discipline used everywhere: write to a temporary file in the
target directory, fsync the file, atomically rename over the destination,
then fsync the directory. A reader therefore always sees either the old
complete object or the new complete object, never a torn write.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from .errors import CorruptStateError, ExactlyOnceViolation


def json_canonical(obj: Any) -> str:
    """Deterministic JSON text (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_tmp(path: Path, data: bytes) -> Path:
    tmp = path.parent / f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    return tmp


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Replace path with data atomically and durably."""
    tmp = _write_tmp(path, data)
    os.replace(tmp, path)
    fsync_dir(path.parent)


def atomic_write_json(path: Path, obj: Any) -> None:
    atomic_write_bytes(path, (json_canonical(obj) + "\n").encode())


def write_once_bytes(path: Path, data: bytes) -> None:
    """Create path with data; fail if it already exists.

    Uses link(2) from a synced temporary so the check-and-create is atomic
    even against concurrent writers in other processes.
    """
    tmp = _write_tmp(path, data)
    try:
        os.link(tmp, path)
    except FileExistsError:
        raise ExactlyOnceViolation(f"{path.name} already exists") from None
    finally:
        os.unlink(tmp)
    fsync_dir(path.parent)


def read_json(path: Path, what: str = "artifact") -> Any:
    """Parse a JSON artifact; a present-but-unparseable file is corruption."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CorruptStateError(f"unparseable {what} at {path}: {exc}") from exc


def append_line(path: Path, line: str) -> None:
    """Append one line and fsync; callers serialize via a lock."""
    with open(path, "a", encoding="utf-8") as f:
        f.write(line + "\n")
        f.flush()
        os.fsync(f.fileno())


@contextmanager
def locked(lock_path: Path, *, exclusive: bool = True, blocking: bool = True):
    """Hold an advisory flock on lock_path for the duration of the context.

    flock is per open-file-description, so this serializes both threads in
    one process and separate processes. A crashed holder releases the lock
    automatically when its descriptors close.
    """
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    flags = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
    if not blocking:
        flags |= fcntl.LOCK_NB
    try:
        fcntl.flock(fd, flags)  # raises BlockingIOError when non-blocking and busy
        yield
    finally:
        os.close(fd)


def remove_if_exists(path: Path) -> bool:
    try:
        os.unlink(path)
        return True
    except FileNotFoundError:
        return False
