"""Filesystem primitives: atomic replace, write-once link, journals, locks.

Durability discipline for objects: write to a temporary file, fsync the
file, atomically rename over the destination, then fsync the directory. A
reader therefore always sees either the old complete object or the new
complete object, never a torn write. The temporary file is a spare from a
:class:`Spares` stock made earlier on the same file system or, when there
is none, a new file in the target directory.

A journal is a file of newline-terminated lines, written only by
:func:`append_line` and read only by :func:`read_lines`. A tail with no
newline is an append that crashed before its fsync: no reader sees it, and
the next append cuts it off.

The host writes every file these functions read, so they alone decide what
a corrupt one is: each opens through one opener, which never blocks and
refuses anything but a regular file, and :func:`decode_json` is where a
file that does not parse or decode becomes CorruptStateError. A missing
file stays FileNotFoundError, for each caller to read as the absence it is.
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
import shutil
import stat
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from .errors import ContractViolation, CorruptStateError, ExactlyOnceViolation


def json_canonical(obj: Any) -> str:
    """Deterministic JSON text (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _unique_name() -> str:
    return f"{os.getpid()}.{os.urandom(4).hex()}"


def _new_file(path: Path) -> int:
    return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o666)


def _write_tmp(path: Path, data: bytes, spares: Optional[Spares]) -> Path:
    """A new temporary holding data, fsynced: a stocked spare, else a new
    file in path's directory. It is filled through the descriptor that
    created it, never by reopening its name."""
    spare = spares.file() if spares is not None else None
    if spare is None:
        tmp = path.parent / f".{path.name}.{_unique_name()}.tmp"
        fd = _new_file(tmp)
    else:
        tmp, fd = spare
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)
    return tmp


def atomic_write_bytes(path: Path, data: bytes, spares: Optional[Spares] = None) -> None:
    """Replace path with data atomically and durably."""
    tmp = _write_tmp(path, data, spares)
    os.replace(tmp, path)
    fsync_dir(path.parent)


def atomic_write_json(path: Path, obj: Any, spares: Optional[Spares] = None) -> None:
    atomic_write_bytes(path, (json_canonical(obj) + "\n").encode(), spares)


def write_once_bytes(path: Path, data: bytes, spares: Optional[Spares] = None) -> None:
    """Create path with data; fail if it already exists.

    Uses link(2) from a synced temporary so the check-and-create is atomic
    even against concurrent writers in other processes.
    """
    tmp = _write_tmp(path, data, spares)
    try:
        os.link(tmp, path)
    except FileExistsError:
        raise ExactlyOnceViolation(f"{path.name} already exists") from None
    finally:
        os.unlink(tmp)
    fsync_dir(path.parent)


def open_regular(path: Path, flags: int = os.O_RDONLY) -> int:
    """A descriptor on the regular file at path, opened without blocking.
    A missing file raises FileNotFoundError; anything else in its place is
    CorruptStateError, before a byte is read or written."""
    try:
        fd = os.open(path, flags | os.O_NONBLOCK, 0o666)
    except OSError as exc:
        if exc.errno not in (errno.EISDIR, errno.ENXIO):  # a directory opened to write; a socket
            raise
    else:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            return fd
        os.close(fd)
    raise CorruptStateError(f"{path} is not a regular file")


def read_bytes(path: Path) -> bytes:
    with open(open_regular(path), "rb") as f:
        return f.read()


def decode_json(raw: bytes, what: str, decode: Optional[Callable[[Any], Any]] = None) -> Any:
    """The JSON in raw, through decode when given; CorruptStateError if it
    does not parse or decode (bad json, hex, base64 or UTF-8, a missing key,
    a wrong type, nesting too deep, or an invariant a record checks)."""
    try:
        obj = json.loads(raw)
        return obj if decode is None else decode(obj)
    except (ValueError, KeyError, TypeError, RecursionError, ContractViolation) as exc:
        raise CorruptStateError(f"unparseable {what}: {exc}") from exc


def read_json(path: Path, what: str = "artifact", decode: Optional[Callable[[Any], Any]] = None) -> Any:
    """The JSON artifact at path, through decode when given (decode_json)."""
    return decode_json(read_bytes(path), f"{what} at {path}", decode)


def read_lines(path: Path, pos: int = 0) -> tuple[list[bytes], int]:
    """The complete lines of a journal past byte offset pos, without their
    newlines, and the offset just after the last of them."""
    with open(open_regular(path), "rb") as f:
        f.seek(pos)
        data = f.read()
    end = data.rfind(b"\n") + 1
    return data[:end].splitlines(), pos + end


def append_line(path: Path, line: bytes, pos: Optional[int] = None) -> int:
    """Cut the journal at pos, the end of its last complete line (found
    here when None), then append line and its newline and fsync. Returns
    the new end; callers make the journal and serialize appends."""
    with open(open_regular(path, os.O_RDWR | os.O_APPEND), "a+b") as f:
        size = f.seek(0, os.SEEK_END)
        if pos is None:  # only a torn tail costs a whole read
            f.seek(max(0, size - 1))
            pos = size if f.read(1) in (b"\n", b"") else read_lines(path)[1]
        elif size < pos:
            raise CorruptStateError(f"{path.name} is shorter than its read prefix")
        if size > pos:
            f.truncate(pos)
        f.write(line + b"\n")
        f.flush()
        os.fsync(f.fileno())
    return pos + len(line) + 1


@contextmanager
def locked(lock_path: Path, *, exclusive: bool = True, blocking: bool = True, create: bool = True):
    """Hold an advisory flock on lock_path for the duration of the context.

    flock is per open-file-description, so this serializes both threads in
    one process and separate processes. A crashed holder releases the lock
    when its descriptors close. Only create=True makes a missing lock_path.
    """
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    fd = open_regular(lock_path, os.O_RDWR | (os.O_CREAT if create else 0))
    flags = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
    if not blocking:
        flags |= fcntl.LOCK_NB
    try:
        fcntl.flock(fd, flags)  # raises BlockingIOError when non-blocking and busy
        yield
    finally:
        os.close(fd)


def remove_if_exists(path: Path) -> bool:
    """Remove the file at path, or a directory the host put in its place."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        return False
    except IsADirectoryError:
        shutil.rmtree(path, ignore_errors=True)
    return True


class _Spare(NamedTuple):
    path: Path
    fd: int  # open from creation on, so no other inode can take its number
    inode: tuple[int, int]  # (st_dev, st_ino) of fd


def _inode(st: os.stat_result) -> tuple[int, int]:
    return st.st_dev, st.st_ino


class Spares:
    """A stock of empty files and directories, made ahead of use in one
    directory on the file system of the objects they become.

    Making an inode is the dearest step of a durable write, so a serve makes
    them while it is idle, and its request path renames or links a spare
    into place instead. Each name carries the pid and random hex. Each spare
    stays open from creation until it is taken, and a file is filled
    through that descriptor. Taking a spare checks that its name still
    names the open inode, so a name swapped for, say, a symlink is dropped
    and redirects nothing. When the stock is empty the caller makes its
    inode in place, as it would without a stock: a spare made on demand
    would cost the same inode plus a move between directories, and the lock
    of the one spare directory that every serve of the instance shares. The
    loops of one serve share a stock: list.pop and list.append are atomic,
    and two loops that top it up at once overshoot by at most one spare
    each.
    """

    def __init__(self, path: Path, *, files: int, dirs: int) -> None:
        self.path = path
        self.want = (files, dirs)
        self._files: list[_Spare] = []
        self._dirs: list[_Spare] = []

    def stock(self) -> None:
        """Top the stock up. An inode that cannot be made now is made in
        place later, where its error surfaces."""
        files, dirs = self.want
        try:
            while len(self._files) < files:
                self._files.append(self._make_file())
            while len(self._dirs) < dirs:
                self._dirs.append(self._make_dir())
        except OSError:
            pass

    def file(self) -> Optional[tuple[Path, int]]:
        """A stocked empty file and a write descriptor on it, or None; the
        caller closes the descriptor and renames or links the file away."""
        spare = self._take(self._files)
        return None if spare is None else (spare.path, spare.fd)

    def directory(self) -> Optional[Path]:
        """A stocked empty directory for the caller to rename away, or None."""
        spare = self._take(self._dirs)
        if spare is None:
            return None
        os.close(spare.fd)
        return spare.path

    def clear(self) -> None:
        """Remove every spare still in stock."""
        for stock in (self._files, self._dirs):
            while stock:
                _drop(stock.pop())

    def purge(self) -> None:
        """Clear the stock and empty the directory of the spares that killed
        processes left; only for a caller that knows none is in use."""
        self.clear()
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(exist_ok=True)

    def _take(self, stock: list[_Spare]) -> Optional[_Spare]:
        while True:
            try:
                spare = stock.pop()
            except IndexError:
                return None
            try:
                if _inode(os.lstat(spare.path)) == spare.inode:
                    return spare
            except OSError:
                pass
            _drop(spare)

    def _make_file(self) -> _Spare:
        path = self.path / _unique_name()
        fd = _new_file(path)
        return _Spare(path, fd, _inode(os.fstat(fd)))

    def _make_dir(self) -> _Spare:
        path = self.path / f"{_unique_name()}.d"
        os.mkdir(path)
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)
        return _Spare(path, fd, _inode(os.fstat(fd)))


def _drop(spare: _Spare) -> None:
    """Close a spare and remove its name, whatever that names by now."""
    os.close(spare.fd)
    with suppress(OSError):
        remove_if_exists(spare.path)
