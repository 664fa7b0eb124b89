"""How scram state reaches disk and comes back: a private file and a
private tree, each published by one rename, one lock, and two readers.

A ``PrivateFile`` is a new dot-named temp file ``.<name>.<8 hex>.tmp``
beside its target, grown by appends and renamed over the target once, so a
reader sees the old file or the new one and a killed command leaves at
most a dot-named temp file, which nothing reads: ``list_dir``, which lists
scram's state, alone skips dot-names. ``atomic_write`` replaces a file
with one ``PrivateFile``; a document cache pack is one too.
``private_tree`` gives a new tree a dot-named sibling of its final path;
``write_new`` writes each of its files in one create-or-truncate write,
with no temp file, because nothing reads the tree until it is renamed into
place in one step. ``link`` hard-links a file and replaces nothing:
``PrivateFile`` alone replaces one. ``locked`` holds an ``flock`` on a file
that is never unlinked; the kernel drops it when the holder exits or is
killed. No file is fsync'ed: a rename survives the death of the process,
and surviving power loss is not promised. ``read_text`` and ``read_json`` give a
caller's default for a file that does not exist and turn any other failure
to open, read, decode or parse (JSON nested too deeply too) into one
``AreaError``, ``unreadable <what> <path>: <reason>``, as ``list_dir``
does for a directory; the other helpers turn an ``OSError`` into one that
names the path they were given, worded by ``cannot``, which the document
cache uses too. Both name a dangling symlink in the way as the reason.
``check_name`` is the one rule for a name that a document or a command
gives a file of scram's own: it stays in its directory and is not taken
for a temp file.
"""

from __future__ import annotations

import fcntl
import json
import os
import stat
from collections.abc import Iterator
from contextlib import contextmanager, suppress

from .errors import AreaError


def _dangling(path) -> str | None:
    """``<link> is a dangling symlink`` if ``path`` is, or sits below, one;
    the walk up ends at a path that exists, as all above it resolves."""
    below, above = None, os.fsdecode(path)
    while above != below and not os.path.exists(above):
        if os.path.islink(above):
            return f"{above} is a dangling symlink"
        below, above = above, os.path.dirname(above)
    return None


def cannot(doing: str, path: str, exc: OSError) -> AreaError:
    """The one wording of a failed file operation: ``cannot <doing>
    <path>: <reason>``; a dangling symlink in the way is the reason."""
    link = (isinstance(exc, (FileExistsError, FileNotFoundError)) and exc.filename
            and _dangling(exc.filename))
    return AreaError(f"cannot {doing} {path}: {link or exc.strerror or exc}")


def _creating_parent(make, path: str):
    """``make(path)``, made again once the missing directory of ``path`` is."""
    try:
        return make(path)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return make(path)


def _open_creating_parent(path: str, flags: int) -> int:
    return _creating_parent(lambda new: os.open(new, flags, 0o666), path)


def _write_all(fd: int, data: bytes | str, offset: int = 0) -> int:
    """Write ``data`` at ``offset``; returns the offset just past it."""
    view = memoryview(data.encode() if isinstance(data, str) else data)
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written
    return offset


def make_dirs(path: str) -> None:
    """Create the new directory ``path`` and any missing parents."""
    try:
        os.makedirs(path)
    except OSError as exc:
        raise cannot("create directory", path, exc) from exc


def atomic_write(path: str, data: bytes | str) -> None:
    """Replace ``path`` with ``data``, creating its directory if needed. A
    symlinked ``path`` stays a symlink: its target is replaced."""
    PrivateFile(os.path.realpath(path) if os.path.islink(path) else path).finish(data)


def write_new(path: str, data: bytes | str) -> None:
    """Write ``data`` to ``path`` in a tree that ``private_tree`` is building,
    creating its directory if needed: one create-or-truncate write, no temp
    file and no rename."""
    try:
        fd = _open_creating_parent(path, os.O_CREAT | os.O_TRUNC | os.O_WRONLY)
        try:
            _write_all(fd, data)
        finally:
            os.close(fd)
    except OSError as exc:
        raise cannot("write", path, exc) from exc


def _publish(private: str, target: str) -> None:
    try:
        os.rename(private, target)
    except OSError as exc:
        raise cannot("publish", target, exc) from exc


def link(source: str, target: str) -> None:
    """Make the new ``target`` a hard link to the file ``source``, creating
    its directory if needed; a ``target`` that exists fails."""
    try:
        _creating_parent(lambda path: os.link(source, path), target)
    except OSError as exc:
        raise cannot("link", target, exc) from exc


class PrivateFile:
    """A new file ``.<name>.<8 hex>.tmp`` beside ``target``, creating its
    directory if needed, grown by ``append`` and published over ``target``
    by ``finish``. ``fd`` is open for reading until then, so what was
    appended can be read back with ``os.pread``. A new file gets ``0o666``
    less the umask; a replaced one keeps its mode. Nothing reads the
    dot-name, so a killed command leaves only an unread temp file;
    ``discard``, or a failed ``finish``, removes it. Errors name
    ``target``."""

    def __init__(self, target: str):
        directory, name = os.path.split(target)
        self.target = target
        self.path = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        self.size = 0
        try:
            self.fd = _open_creating_parent(self.path,
                                            os.O_CREAT | os.O_EXCL | os.O_RDWR)
        except OSError as exc:
            raise cannot("write", target, exc) from exc

    def append(self, data: bytes | str) -> int:
        """Append ``data``; returns the offset it starts at."""
        offset = self.size
        try:
            self.size = _write_all(self.fd, data, offset)
        except OSError as exc:
            raise cannot("write", self.target, exc) from exc
        return offset

    def finish(self, data: bytes | str) -> None:
        """Append ``data`` and rename the file over ``target``; on any
        failure the file is discarded."""
        try:
            self.append(data)
            try:
                with suppress(FileNotFoundError):
                    os.fchmod(self.fd, stat.S_IMODE(os.stat(self.target).st_mode))
            except OSError as exc:
                raise cannot("write", self.target, exc) from exc
            _publish(self.path, self.target)
        except BaseException:
            self.discard()
            raise
        os.close(self.fd)

    def discard(self) -> None:
        os.close(self.fd)
        with suppress(OSError):
            os.unlink(self.path)


@contextmanager
def private_tree(target: str) -> Iterator[str]:
    """A new directory ``.<name>.<8 hex>.partial`` beside ``target``, and
    any missing parents, for the body to build a new tree in; renamed to
    ``target`` when the body succeeds, and removed when it fails. Errors
    name ``target``.

    Anything at ``target`` on entry, a dangling symlink or an empty
    directory too, fails at once. The rename fails, and the tree is
    removed, when ``target`` has appeared meanwhile as a file or a
    non-empty directory. A killed command leaves only the dot-named tree,
    which no scram command reads.
    """
    if os.path.lexists(target):
        raise AreaError(f"target directory already exists: {target}")
    directory, name = os.path.split(target)
    tree = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.partial")
    try:
        os.makedirs(tree)
    except OSError as exc:
        raise cannot("create directory", target, exc) from exc
    try:
        yield tree
        try:
            _publish(tree, target)
        except AreaError:
            if os.path.lexists(target):
                raise AreaError(f"target directory already exists: {target}") from None
            raise
    except BaseException:
        # imported here: only a failed command removes a tree
        import shutil

        shutil.rmtree(tree, ignore_errors=True)
        raise


_REQUIRED = object()


def _read(path: str, what: str, missing, load, **how):
    try:
        with open(path, **how) as fh:
            return load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        if missing is not _REQUIRED and isinstance(exc, FileNotFoundError):
            return missing
        reason = (isinstance(exc, FileNotFoundError) and _dangling(path)
                  or getattr(exc, "strerror", None) or exc)
        raise AreaError(f"unreadable {what} {path}: {reason}") from exc


def read_text(path: str, what: str, missing=_REQUIRED) -> str:
    """The text of ``path``, a ``what`` (say, "registry"): UTF-8 whatever the
    locale, universal newlines; a missing file gives ``missing`` if passed."""
    return _read(path, what, missing, lambda fh: fh.read(), encoding="utf-8")


def read_json(path: str, what: str, missing=_REQUIRED) -> dict:
    """The JSON object stored in ``path``, read under the rule of
    ``read_text``; another top-level value (a list, say) fails too."""

    def load(fh) -> dict:
        payload = json.load(fh)
        if not isinstance(payload, dict):
            raise AreaError(f"{what} {path} is not a JSON object")
        return payload

    return _read(path, what, missing, load, mode="rb")


def list_dir(path: str, what: str) -> list[str]:
    """The names in the directory ``path``, a ``what``, but the dot-names
    of temp files, read under the rule of ``read_text``; a missing one has
    none, unless a dangling link is why."""
    try:
        return [name for name in os.listdir(path) if name[0] != "."]
    except FileNotFoundError as exc:
        link = _dangling(path)
        if link is None:
            return []
        raise AreaError(f"unreadable {what} {path}: {link}") from exc
    except OSError as exc:
        raise AreaError(f"unreadable {what} {path}: {exc.strerror or exc}") from exc


def check_name(name: str, what: str) -> str:
    """``name``, a ``what`` (say, "tool name"), if it names a file of its
    own in one directory: non-empty, no ``/`` or NUL, no leading ``.``
    (the dot-names are temp files, which listings skip)."""
    if not name or name.startswith(".") or "/" in name or "\0" in name:
        raise AreaError(f"bad {what} {name!r}: a name must be non-empty, hold "
                        f"no '/' or NUL and not start with '.'")
    return name


@contextmanager
def locked(path: str, wait: bool) -> Iterator[bool]:
    """Try to hold an exclusive lock on ``path`` for the ``with`` body, and
    give the body whether it holds it.

    With ``wait`` this blocks until the lock is free, so the body always
    holds it; without it the body runs at once, given False when another
    holder has the lock. Each call opens the file anew, so threads of one
    process exclude each other too. The file is opened read-only, so a lock
    file created by another user still works.
    """
    try:
        fd = _open_creating_parent(path, os.O_RDONLY | os.O_CREAT)
    except OSError as exc:
        raise cannot("lock", path, exc) from exc
    try:
        held = True
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if wait else fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            held = False
        yield held
    finally:
        os.close(fd)
