"""Scheme-pluggable URL retrieval with a persistent content cache.

URLs here are simpler than RFC 3986: ``scheme:[//]authority[?query]``.
The query is an ordered list of key=value pairs (``module``, ``version``,
``auth``, ``user`` in practice). A URL may lean on a base URL declared by
the enclosing document: it then inherits the base's scheme, authority and
query defaults, with its own query keys winning.

Built-in schemes: ``file`` reads the local filesystem, ``http``/``https``
do a plain GET, and ``cvs`` (alias ``vcs``) shells out to an operator
configured checkout command so that any versioning backend can be plugged
in (site key ``scheme.cvs.command``, placeholders ``{module}`` ``{version}``
``{out}``). Neither may hang: an HTTP connect or read, or a checkout
command, that takes more than ``FETCH_TIMEOUT`` seconds fails the fetch.

Cache layout: ``<root>/packs/<time_ns>.<pid>.<8 hex>.pack``, one immutable
pack per command that fetched or kept something; a command makes
``<root>/packs`` when it opens the cache. A pack holds the fetched contents
and the kept payloads, then a JSON index mapping each key to ``[offset,
length, content_hash, fetched_at]``, then a fixed-width footer giving the
index's offset. One rule, ``_served``, picks the copy of a key that
lookups serve and compaction keeps: versioned entries never change, as the
earliest verified copy wins, and unversioned (HEAD) entries are served from
cache until a command is made with ``refresh``, which refetches each once,
and then the latest copy wins. ``auth`` and ``user`` never enter the cache
key, so identities share content.

Beside the packs, ``<root>/records/<SHA-256>`` is the record store: one
file per distinct tool record that a bootstrap wrote, named by its bytes'
hash, which ``write_record`` hard-links into the next new area that needs
those bytes instead of creating a file there. An entry is read before it
is used, so one is healed by an unlink and a link, not atomically. A pack
or entry that is a FIFO, a dangling symlink or unopenable holds nothing,
as does an entry that is any symlink, and no open of one waits.

The cache keeps bytes and alone hashes them: a fetch returns them with
the SHA-256 it verified or computed. A payload is bytes that
``activedoc``, their one reader and writer, ``keep``s under a
``payload_key`` (``"payload"`` and parts of its choosing); ``recall``
serves it as a HEAD entry, latest copy first, and neither fetches nor counts.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import time
from contextlib import suppress

from .errors import AreaError, FetchError, UrlError
from .fsutil import PrivateFile, cannot, link, list_dir, locked, write_new

HEAD = "HEAD"
# the first part of the key of every payload
PAYLOAD = "payload"

PACKS = "packs"
RECORDS = "records"
# a publishing command merges the packs when it sees more than this many
COMPACT_ABOVE = 16
# a pack ends with this and its index's offset, as 16 hex digits
_MAGIC = b"scram-pack-1 "
_FOOTER_LEN = len(_MAGIC) + 16

_EXCLUDED_KEY_PARAMS = ("auth", "user")

# seconds that an HTTP connect or read, or a checkout command, may take
FETCH_TIMEOUT = 60


class ResourceUrl:
    __slots__ = ("scheme", "authority", "query", "fragment", "raw", "_key")

    def __init__(self, scheme: str, authority: str,
                 query: tuple[tuple[str, str], ...], fragment: str, raw: str):
        self.scheme = scheme
        self.authority = authority
        self.query = query
        self.fragment = fragment
        self.raw = raw
        self._key: str | None = None  # cache_key(), once computed

    def __str__(self) -> str:
        return self.raw or self.unparse()

    def unparse(self) -> str:
        """The URL as a string that ``parse_url`` reads back unchanged."""
        # parse_url drops one leading '//', so such an authority gets its own
        slashes = "//" if self.authority.startswith("//") else ""
        out = f"{self.scheme}:{slashes}{self.authority}"
        if self.query:
            out += "?" + "&".join(f"{k}={v}" for k, v in self.query)
        if self.fragment:
            out += "#" + self.fragment
        return out

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.query:
            if k == key:
                return v
        return default

    def cache_key(self, version: str | None = None) -> str:
        """Normalized identity: query order and auth/user identity do not
        fragment the cache. The key of the URL's own version is computed
        once."""
        if version is None and self._key is not None:
            return self._key
        pairs = sorted(
            (k, v) for k, v in self.query if k not in _EXCLUDED_KEY_PARAMS
        )
        key = json.dumps([self.scheme, self.authority, pairs,
                          self.version_tag(version)])
        if version is None:
            self._key = key
        return key

    def version_tag(self, explicit: str | None = None) -> str:
        return explicit or self.get("version") or HEAD


def url_scheme(raw: str) -> str:
    """The lower-case scheme that ``raw`` names, or "" when it names none."""
    cleaned = "".join(raw.split())
    name, colon, _ = cleaned.split("?", 1)[0].split("#", 1)[0].partition(":")
    if colon and name[:1].isalpha() \
            and name.replace("+", "").replace("-", "").replace(".", "").isalnum():
        return name.lower()
    return ""


def parse_url(raw: str, base: ResourceUrl | None = None) -> ResourceUrl:
    """Decompose a URL string, resolving against ``base`` when one applies.

    Whitespace inside ``raw`` is discarded (documents wrap long URLs across
    lines). A missing scheme, or a same-scheme URL with an empty authority
    or a relative path (not ``//host/...``), pulls scheme/authority/query
    defaults from the base, and any
    same-scheme URL takes the base's query keys it lacks. A URL that took
    anything from its base prints in its resolved form, so messages and
    locations name the document it reached, not the bare reference.
    """
    cleaned = "".join(raw.split())
    if not cleaned:
        raise UrlError("empty URL")

    scheme = url_scheme(cleaned)
    rest = cleaned[len(scheme) + 1:] if scheme else cleaned

    fragment = ""
    if "#" in rest:
        rest, fragment = rest.split("#", 1)
    query: list[tuple[str, str]] = []
    if "?" in rest:
        rest, query_text = rest.split("?", 1)
        for pair in query_text.split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            query.append((key, value))
    # a '//' authority names its host and is never joined to a base path
    named_host = rest.startswith("//")
    if named_host:
        rest = rest[2:]
    authority = rest

    relative = not scheme
    if base is not None and (not scheme or scheme == base.scheme):
        if not scheme:
            scheme = base.scheme
        if scheme == base.scheme:
            if not authority:
                authority = base.authority
                relative = True
            elif not (named_host or authority.startswith("/")) and base.authority:
                # a base ending in '/' is a directory root; otherwise the
                # reference replaces the base's last path segment
                root = base.authority
                if not root.endswith("/"):
                    root = root.rpartition("/")[0] + "/"
                authority = root + authority if root != "/" else authority
                relative = True
            own = {k for k, _ in query}
            defaults = [(k, v) for k, v in base.query if k not in own]
            query = defaults + query
            relative = relative or bool(defaults)

    if not scheme:
        raise UrlError(f"URL {raw!r} has no scheme and no base is in effect")
    return ResourceUrl(scheme, authority, tuple(query), fragment,
                       "" if relative else cleaned)


class CacheStats:
    """A command's fetches: ``hits`` served from a pack, ``misses`` sent to
    an adapter, failed ones too."""
    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0


class SchemeRegistry:
    """Maps lower-case scheme names to fetch adapters
    ``adapter(url, version) -> bytes``; two names may share one adapter."""

    def __init__(self, adapters: dict):
        self._adapters = adapters

    def adapter_for(self, url: ResourceUrl):
        scheme = url.scheme.lower()
        try:
            return self._adapters[scheme]
        except KeyError:
            known = ", ".join(sorted(self._adapters))
            raise UrlError(
                f"unknown URL scheme '{scheme}' in {url} (registered: {known})"
            ) from None

    def retrieve(self, url: ResourceUrl, version: str | None) -> bytes:
        adapter = self.adapter_for(url)
        try:
            return adapter(url, version)
        except UrlError:
            raise
        except Exception as exc:
            raise FetchError(f"fetch of {url} failed: {exc}") from exc


def fetch_file(url: ResourceUrl, version: str | None) -> bytes:
    # version tags are meaningless for plain files and ignored
    try:
        with open(url.authority, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FetchError(f"cannot read {url.authority}: {exc.strerror or exc}") from exc


def fetch_http(url: ResourceUrl, version: str | None) -> bytes:
    # imported here: urllib.request pulls in http.client, ssl and email,
    # which no verb needs unless it fetches over HTTP
    import urllib.request

    # ``parse_url`` strips the ``//`` before the host, and a request needs it
    query = "&".join(f"{k}={v}" for k, v in url.query)
    target = f"{url.scheme}://{url.authority}" + (f"?{query}" if query else "")
    try:
        # a plain GET by design
        with urllib.request.urlopen(target, timeout=FETCH_TIMEOUT) as resp:  # noqa: S310
            return resp.read()
    except Exception as exc:
        # a connect that times out comes wrapped in a URLError
        if isinstance(getattr(exc, "reason", exc), TimeoutError):
            raise FetchError(f"GET {target} timed out after {FETCH_TIMEOUT:g} s") from exc
        raise FetchError(f"GET {target} failed: {exc}") from exc


def external_command_adapter(template: str):
    """Adapter factory for version-control schemes.

    ``template`` is a shell-less command template; ``{module}`` and
    ``{version}`` come from the URL/query, ``{out}`` is a scratch file the
    command must write. Without ``{out}`` the command's stdout is taken.
    """

    def adapter(url: ResourceUrl, version: str | None) -> bytes:
        # imported here: only a checkout runs a command
        import shlex
        import signal
        import subprocess
        import tempfile

        module = url.get("module", url.authority) or ""
        tag = url.version_tag(version)
        out_path = None
        try:
            if "{out}" in template:
                fd, out_path = tempfile.mkstemp(prefix="scram-co-")
                os.close(fd)
            argv = [
                part.format(module=module, version=tag, out=out_path or "")
                for part in shlex.split(template)
            ]
            # a session of its own, which a timeout or an interrupt kills
            # whole while the command is unreaped and its pid names the group
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  start_new_session=True) as proc:
                try:
                    stdout, stderr = proc.communicate(timeout=FETCH_TIMEOUT)
                except subprocess.TimeoutExpired:
                    raise FetchError(f"checkout command for {url} timed out after "
                                     f"{FETCH_TIMEOUT:g} s") from None
                finally:
                    if proc.returncode is None:
                        os.killpg(proc.pid, signal.SIGKILL)
            if proc.returncode != 0:
                detail = stderr.decode(errors="replace").strip()
                raise FetchError(
                    f"checkout command for {url} exited {proc.returncode}: {detail}"
                )
            if out_path is not None:
                with open(out_path, "rb") as fh:
                    return fh.read()
            return stdout
        except FileNotFoundError as exc:
            raise FetchError(f"checkout command for {url} not found: {exc}") from exc
        finally:
            if out_path is not None and os.path.exists(out_path):
                os.unlink(out_path)

    return adapter


def default_registry(site) -> SchemeRegistry:
    """Registry with the built-in schemes; ``cvs:`` needs a site-configured
    command template and errors helpfully without one."""
    template = site.get("scheme.cvs.command")
    if template:
        cvs = external_command_adapter(template)
    else:
        def cvs(url, version):
            raise FetchError(
                f"{url}: scheme 'cvs' needs site key scheme.cvs.command "
                "(a checkout command template with {module} {version} {out})"
            )
    return SchemeRegistry({"file": fetch_file, "http": fetch_http,
                           "https": fetch_http, "cvs": cvs, "vcs": cvs})


class UrlCache:
    """Persistent content cache in front of a SchemeRegistry, used by one
    command at a time; it alone decides what is fetched and counts it in
    ``stats``.

    Opening the cache makes ``<root>/packs`` unless it is a directory
    already, so a root that cannot hold the packs fails there, once, as
    ``cannot use cache <root>: <reason>``, and no later step checks it
    again. The first lookup lists ``<root>/packs``, opens each pack and
    decodes its index; a pack unlinked by a compaction before it is opened
    makes the listing start again, and one still listed, a dangling
    symlink, holds nothing. A lookup serves the copy that
    ``_served`` picks from this command's private pack, whose copies rank
    as the latest, and the published packs; a key with none is a miss,
    which runs the adapter and ``keep``s the content in the private pack.
    With ``refresh`` a HEAD key skips the published packs, so it reaches
    its adapter once per command; a payload does not, since whoever kept
    it checks what it depends on. ``publish`` ends the command: it stamps
    ``fetched_at`` into the private pack's index, renames the pack into
    place and, past ``COMPACT_ABOVE`` packs, merges them, keeping the copy
    of each key that ``_served`` picks. No fetch takes a lock.
    """

    def __init__(self, root: str, registry: SchemeRegistry, refresh: bool = False):
        self.packs = os.path.join(root, PACKS)
        self.records = os.path.join(root, RECORDS)
        if not os.path.isdir(self.packs):
            try:
                os.makedirs(self.packs, exist_ok=True)
            except OSError as exc:
                raise cannot("use cache", root, exc) from exc
        self.registry = registry
        self.refresh = refresh
        self.stats = CacheStats()
        # (fd, index, index offset) of each published pack, once listed
        self._packs: list[tuple] | None = None
        self._fds: list[int] = []
        self._own: PrivateFile | None = None
        # key -> [offset, length, content_hash, fetched_at] in the private
        # pack, whose copies rank as the latest until it is published
        self._own_index: dict[str, list] = {}

    def fetch(self, url: ResourceUrl, version: str | None = None) -> tuple[bytes, str]:
        """The content at ``url`` and its SHA-256."""
        key = url.cache_key(version)
        head = url.version_tag(version) == HEAD
        # refetched once per command under refresh, then served from its own pack
        served = self._lookup(key, head, published=not (head and self.refresh))
        if served is not None:
            self.stats.hits += 1
            return served
        self.stats.misses += 1
        content = self.registry.retrieve(url, version)
        return content, self.keep(key, content)

    def recall(self, key: str) -> bytes | None:
        """The bytes kept under ``key``, a ``payload_key``: the copy in
        this command's pack, else the latest verified copy in a published
        one; None when there is none. A recall is not a fetch and is not
        counted."""
        served = self._lookup(key, True)
        return None if served is None else served[0]

    def keep(self, key: str, data: bytes) -> str:
        """Append ``data`` under ``key`` to this command's pack and return
        its SHA-256."""
        if self._own is None:
            self._own = PrivateFile(os.path.join(self.packs, _pack_name()))
        offset = self._own.append(data)
        content_hash = sha256_of(data)
        self._own_index[key] = [offset, len(data), content_hash, float("inf")]
        return content_hash

    def write_record(self, path: str, data: bytes) -> None:
        """Write ``data`` to ``path``, a new file in a tree that
        ``private_tree`` is building: a hard link to the record store's
        entry ``<root>/records/<SHA-256 of data>`` if that holds ``data``,
        read and compared first; else a ``write_new``, which is then linked
        into the store, in place of an entry that holds other bytes, is not
        a regular file or is at the link limit, which is unlinked first. A
        fault of the store only costs the link: the record is written."""
        entry = os.path.join(self.records, sha256_of(data))
        held = _held(entry, len(data))
        stale = held is not None
        if held == data:
            try:
                link(entry, path)
                return
            except AreaError as exc:
                stale = exc.__cause__.errno == errno.EMLINK
        write_new(path, data)
        if stale:
            with suppress(OSError):
                os.unlink(entry)
        with suppress(AreaError):
            link(path, entry)

    def _lookup(self, key: str, latest: bool,
                published: bool = True) -> tuple[bytes, str] | None:
        """The served copy of ``key`` and its SHA-256, or None."""
        packs = [] if self._own is None else [
            (self._own.fd, self._own_index, self._own.size)]
        if published:
            if self._packs is None:
                self._packs = self._read_packs(self._list())
            packs += self._packs
        served = _served(key, packs, latest)
        return None if served is None else (served[0], served[1][2])

    def _read_packs(self, names: list[str]) -> list[tuple]:
        packs = []
        for name in names:
            try:
                fd = os.open(os.path.join(self.packs, name),
                             os.O_RDONLY | os.O_NONBLOCK)
            except FileNotFoundError:
                listed = self._list()
                if name not in listed:
                    # merged away by a compaction, which published the merge first
                    self._close()
                    return self._read_packs(listed)
                continue  # a dangling symlink: it holds nothing
            except OSError:
                continue  # unreadable to this user: it holds nothing
            self._fds.append(fd)
            packs.append((fd, *_index(fd)))
        return packs

    def _list(self) -> list[str]:
        names = list_dir(self.packs, "document cache")
        return sorted(name for name in names if name.endswith(".pack"))

    def _close(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._fds = []
        self._packs = None

    def publish(self) -> None:
        """End the command's fetching: publish what it fetched as one pack,
        merge the packs if there are more than ``COMPACT_ABOVE``, and close
        them all. A command that fetched nothing publishes nothing. Called
        by ``project.build_engine`` alone, when its block ends, so the pack
        is published before the area or records that the command made."""
        own, self._own = self._own, None
        index, self._own_index = self._own_index, {}
        try:
            if own is not None:
                fetched_at = time.time()
                _finish(own, {key: [*entry[:3], fetched_at]
                              for key, entry in index.items()})
                if len(self._list()) > COMPACT_ABOVE:
                    self._compact()
        finally:
            self._close()

    def _compact(self) -> None:
        """Merge the packs into one holding each key's served copy,
        under ``<root>/packs/lock``; skipped while another command holds
        it. The merged pack is published before the merged ones are
        unlinked, so a reader always finds every key."""
        with locked(os.path.join(self.packs, "lock"), wait=False) as held:
            if not held:
                return
            self._close()
            names = self._list()
            if len(names) <= COMPACT_ABOVE:
                return  # another command has just merged them
            packs = self._read_packs(names)
            merged = PrivateFile(os.path.join(self.packs, _pack_name()))
            index = {}
            try:
                for key in dict.fromkeys(key for _, keys, _ in packs for key in keys):
                    served = _served(key, packs, _is_head(key))
                    if served is not None:
                        content, (_, *entry) = served
                        index[key] = [merged.append(content), *entry]
            except BaseException:
                merged.discard()
                raise
            _finish(merged, index)
            for name in names:
                with suppress(OSError):
                    os.unlink(os.path.join(self.packs, name))


def _pack_name() -> str:
    return f"{time.time_ns()}.{os.getpid()}.{os.urandom(4).hex()}.pack"


def _finish(pack: PrivateFile, index: dict) -> None:
    """Append ``index`` and the footer to ``pack`` and publish it."""
    pack.finish(json.dumps(index).encode() + _MAGIC + b"%016x" % pack.size)


def _index(fd: int) -> tuple[dict, int]:
    """The index of the pack open at ``fd`` and its offset, which no entry
    may pass; an empty one for a file that is not a pack. Its entries are
    checked only when their key is looked up."""
    with suppress(OSError, ValueError, RecursionError):
        size = os.fstat(fd).st_size
        footer = os.pread(fd, _FOOTER_LEN, max(size - _FOOTER_LEN, 0))
        if len(footer) == _FOOTER_LEN and footer.startswith(_MAGIC):
            start, end = int(footer[len(_MAGIC):], 16), size - _FOOTER_LEN
            if 0 <= start <= end:
                index = json.loads(os.pread(fd, end - start, start))
                if type(index) is dict:
                    return index, start
    return {}, 0


def _well_formed(entry, limit: int) -> bool:
    if type(entry) is not list or len(entry) != 4:
        return False
    offset, length, content_hash, fetched_at = entry
    return (type(offset) is int and type(length) is int
            and 0 <= offset and 0 <= length and offset + length <= limit
            and type(content_hash) is str and type(fetched_at) in (int, float))


def _served(key: str, packs: list[tuple], latest: bool) -> tuple[bytes, list] | None:
    """The copy of ``key`` that ``packs``, each ``(fd, index, index
    offset)``, serve, and its entry; None when none verifies. The one
    serving rule: of the key's well-formed entries, and no other, the
    earliest ``fetched_at`` is tried first, or the latest when ``latest``
    (a HEAD or payload key), and the first copy whose SHA-256 matches its
    ``content_hash`` is served, so a served versioned entry never changes
    and a refresh is served from then on."""
    copies = sorted(((index[key], fd) for fd, index, limit in packs
                     if key in index and _well_formed(index[key], limit)),
                    key=lambda copy: copy[0][3], reverse=latest)
    for entry, fd in copies:
        content = _verified(fd, *entry[:3])
        if content is not None:
            return content, entry
    return None


def payload_key(*parts: str) -> str:
    """The key of the payload that ``parts`` name."""
    return json.dumps([PAYLOAD, *parts], separators=(",", ":"))


def _is_head(key: str) -> bool:
    """Whether ``key`` ranks as a HEAD key, latest copy first: a payload's
    key does too."""
    try:
        parts = json.loads(key)
        return parts[-1] == HEAD or parts[0] == PAYLOAD
    except (ValueError, RecursionError, TypeError, KeyError, IndexError):
        return False


def _verified(fd: int, offset: int, length: int, content_hash: str) -> bytes | None:
    """The ``length`` bytes at ``offset`` of the file open at ``fd`` if
    their SHA-256 is ``content_hash``, else None."""
    try:
        content = os.pread(fd, length, offset)
    except OSError:
        return None
    return content if sha256_of(content) == content_hash else None


def _held(path: str, size: int) -> bytes | None:
    """Up to ``size + 1`` bytes of the file ``path``, enough to tell
    whether it holds ``size`` bytes alone; None if it cannot be read, and
    no bytes if it is not a regular file, which the open does not wait
    for, or a symlink, which it does not follow."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK | os.O_NOFOLLOW)
    except OSError as exc:
        return b"" if exc.errno == errno.ELOOP else None
    try:
        return os.read(fd, size + 1) if stat.S_ISREG(os.fstat(fd).st_mode) else b""
    except OSError:
        return None
    finally:
        os.close(fd)


def sha256_of(data: bytes) -> str:
    # imported here: only fetching hashes, and hashlib loads OpenSSL
    import hashlib

    return hashlib.sha256(data).hexdigest()
