"""How scram state reaches disk and comes back: one atomic write, one lock
and one JSON reader.

``atomic_write`` writes a dot-named temp file beside the target and renames
it over the target, so a reader sees the old file or the new one and a
killed command leaves at most a dot-named temp file. ``locked`` holds an
``flock`` on a lock file that is never unlinked; the kernel drops it when
the holder exits or is killed. No file is fsync'ed: a rename survives the
death of the process, and surviving power loss is not promised.
``read_json`` turns a state file that cannot be read, parsed or is not a
JSON object into one ``AreaError`` that names the file.
"""

from __future__ import annotations

import fcntl
import json
import os
import stat
from collections.abc import Iterator
from contextlib import contextmanager, suppress

from .errors import AreaError


def _open_creating_parent(path: str, flags: int) -> int:
    try:
        return os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return os.open(path, flags, 0o666)


def atomic_write(path: str, data: bytes | str) -> None:
    """Replace ``path`` with ``data``, creating its directory if needed.

    A new file gets ``0o666`` less the umask; a replaced file keeps its
    mode. A symlinked ``path`` stays a symlink: its target is replaced.
    """
    target = os.path.realpath(path) if os.path.islink(path) else path
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fd = _open_creating_parent(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    try:
        with os.fdopen(fd, "wb") as fh:
            with suppress(FileNotFoundError):
                os.fchmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def read_json(path: str, what: str) -> dict:
    """The JSON object stored in ``path``, a ``what`` (say, "tool record").

    An unreadable file, bad JSON or another top-level value (a list, say)
    raises an ``AreaError`` naming ``what`` and ``path``.
    """
    try:
        with open(path, "rb") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise AreaError(f"unreadable {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise AreaError(f"{what} {path} is not a JSON object")
    return payload


@contextmanager
def locked(path: str, wait: bool) -> Iterator[None]:
    """Hold an exclusive lock on ``path`` for the ``with`` body.

    With ``wait`` this blocks until the lock is free; without it a held lock
    raises ``BlockingIOError`` at once. Each call opens the file anew, so
    threads of one process exclude each other too. The file is opened
    read-only, so a lock file created by another user still works.
    """
    fd = _open_creating_parent(path, os.O_RDONLY | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX if wait else fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)
