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
``{out}``).

Cache layout: one file per entry, ``<root>/<scheme>/<sha256 of the key>``,
holding a one-line JSON header (``url``, ``key``, ``fetched_at``,
``content_hash``) and then the content. Versioned entries are immutable;
unversioned (HEAD) entries are served from cache until a refresh is
requested. ``auth`` and ``user`` never enter the cache key, so identities
share content.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack

from .errors import AreaError, FetchError, UrlError
from .fsutil import locked, overwrite

HEAD = "HEAD"

_EXCLUDED_KEY_PARAMS = ("auth", "user")


class ResourceUrl:
    __slots__ = ("scheme", "authority", "query", "fragment", "raw")

    def __init__(self, scheme: str, authority: str = "",
                 query: tuple[tuple[str, str], ...] = (), fragment: str = "",
                 raw: str = ""):
        self.scheme = scheme
        self.authority = authority
        self.query = query
        self.fragment = fragment
        self.raw = raw

    def __str__(self) -> str:
        return self.raw or self.unparse()

    def unparse(self) -> str:
        out = f"{self.scheme}:{self.authority}"
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
        fragment the cache."""
        pairs = sorted(
            (k, v) for k, v in self.query if k not in _EXCLUDED_KEY_PARAMS
        )
        return json.dumps([self.scheme, self.authority, pairs,
                           self.version_tag(version)])

    def version_tag(self, explicit: str | None = None) -> str:
        return explicit or self.get("version") or HEAD


def parse_url(raw: str, base: ResourceUrl | None = None) -> ResourceUrl:
    """Decompose a URL string, resolving against ``base`` when one applies.

    Whitespace inside ``raw`` is discarded (documents wrap long URLs across
    lines). A missing scheme, or a same-scheme URL with a relative or empty
    authority, pulls scheme/authority/query defaults from the base; such a
    URL prints in its resolved form, so messages and locations name the
    document it reached, not the bare reference.
    """
    cleaned = "".join(raw.split())
    if not cleaned:
        raise UrlError("empty URL")

    scheme = ""
    rest = cleaned
    head = cleaned.split("?", 1)[0].split("#", 1)[0]
    colon = head.find(":")
    if colon > 0 and cleaned[:colon].replace("+", "").replace("-", "").replace(".", "").isalnum() \
            and cleaned[:colon][0].isalpha():
        scheme = cleaned[:colon].lower()
        rest = cleaned[colon + 1:]

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
    if rest.startswith("//"):
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
            elif not authority.startswith("/") and base.authority:
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

    if not scheme:
        raise UrlError(f"URL {raw!r} has no scheme and no base is in effect")
    return ResourceUrl(scheme, authority, tuple(query), fragment,
                       "" if relative else cleaned)


class CacheEntry:
    __slots__ = ("key", "path", "fetched_at", "content_hash")

    def __init__(self, key: str, path: str, fetched_at: float,
                 content_hash: str):
        self.key = key
        self.path = path
        self.fetched_at = fetched_at
        self.content_hash = content_hash


class CacheStats:
    __slots__ = ("hits", "misses", "adapter_calls")

    def __init__(self, hits: int = 0, misses: int = 0, adapter_calls: int = 0):
        self.hits = hits
        self.misses = misses
        self.adapter_calls = adapter_calls


class SchemeRegistry:
    """Maps lower-case scheme names to fetch adapters
    ``adapter(url, version) -> bytes``; two names may share one adapter."""

    def __init__(self, adapters: dict):
        self._adapters = adapters

    def adapter_for(self, scheme: str):
        scheme = scheme.lower()
        try:
            return self._adapters[scheme]
        except KeyError:
            known = ", ".join(sorted(self._adapters))
            raise UrlError(
                f"unknown URL scheme '{scheme}' (registered: {known})"
            ) from None

    def retrieve(self, url: ResourceUrl, version: str | None) -> bytes:
        adapter = self.adapter_for(url.scheme)
        try:
            return adapter(url, version)
        except (UrlError, FetchError):
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
        with urllib.request.urlopen(target) as resp:  # noqa: S310 - plain GET by design
            return resp.read()
    except Exception as exc:
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
            proc = subprocess.run(argv, capture_output=True)
            if proc.returncode != 0:
                detail = proc.stderr.decode(errors="replace").strip()
                raise FetchError(
                    f"checkout command for {url} exited {proc.returncode}: {detail}"
                )
            if out_path is not None:
                with open(out_path, "rb") as fh:
                    return fh.read()
            return proc.stdout
        except FileNotFoundError as exc:
            raise FetchError(f"checkout command not found: {exc}") from exc
        finally:
            if out_path is not None and os.path.exists(out_path):
                os.unlink(out_path)

    return adapter


def default_registry(site=None) -> SchemeRegistry:
    """Registry with the built-in schemes; ``cvs:`` needs a site-configured
    command template and errors helpfully without one."""
    template = site.get("scheme.cvs.command") if site is not None else None
    if template:
        cvs = external_command_adapter(template)
    else:
        def cvs(url, version):
            raise FetchError(
                "scheme 'cvs' needs site key scheme.cvs.command "
                "(a checkout command template with {module} {version} {out})"
            )
    return SchemeRegistry({"file": fetch_file, "http": fetch_http,
                           "https": fetch_http, "cvs": cvs, "vcs": cvs})


class UrlCache:
    """Persistent content cache in front of a SchemeRegistry.

    Versioned fetches become immutable entries: the adapter runs once per
    key, ever. HEAD fetches are refetched only when ``refresh`` is set.
    Each entry is one file that is also its own lock. A hit reads it
    without a lock and serves it only if its header parses and the
    content's SHA-256 equals the header's ``content_hash``. A miss, a
    damaged entry (empty, torn, truncated, without a header) or a refreshed
    HEAD fetch locks the entry file, looks again, and only then runs the
    adapter and rewrites the file in place through the locked descriptor,
    so fetches of the same key, from any thread or process, wait for each
    other; distinct keys proceed in parallel. A reader that meets a rewrite
    in progress sees a hash mismatch and waits for the lock. An entry file
    is never unlinked: that would split its lock.
    """

    def __init__(self, root: str, registry: SchemeRegistry):
        self.root = root
        self.registry = registry
        self.stats = CacheStats()

    def _path(self, url: ResourceUrl, key: str) -> str:
        return os.path.join(self.root, url.scheme, _sha256(key.encode()))

    def fetch(self, url: ResourceUrl, version: str | None = None,
              refresh: bool = False) -> tuple[bytes, CacheEntry]:
        key = url.cache_key(version)
        path = self._path(url, key)
        reuse = not (refresh and url.version_tag(version) == HEAD)
        if reuse:
            try:
                with open(path, "rb") as fh:
                    hit = _verified(key, path, fh.read())
            except OSError:
                hit = None  # missing or unreadable: the lock path decides
            if hit is not None:
                self.stats.hits += 1
                return hit
        with ExitStack() as held:
            try:
                fd = held.enter_context(locked(path, wait=True, writable=True))
            except AreaError as exc:
                # name a cache root that is no directory as it was given,
                # not the entry below it
                if os.path.isdir(self.root):
                    raise
                raise AreaError(
                    f"cannot use cache {self.root}: {exc.__cause__.strerror}"
                ) from exc
            if reuse:
                hit = _verified(key, path, os.pread(fd, os.fstat(fd).st_size, 0))
                if hit is not None:
                    self.stats.hits += 1
                    return hit
            self.stats.misses += 1
            content = self.registry.retrieve(url, version)
            self.stats.adapter_calls += 1
            entry = CacheEntry(key, path, time.time(), _sha256(content))
            header = json.dumps({
                "url": url.unparse(),
                "key": key,
                "fetched_at": entry.fetched_at,
                "content_hash": entry.content_hash,
            })
            try:
                overwrite(fd, header.encode() + b"\n" + content)
            except OSError as exc:
                raise FetchError(
                    f"cannot write cache entry {path} for {url}: {exc.strerror}"
                ) from exc
            return content, entry


def _verified(key: str, path: str, data: bytes) -> tuple[bytes, CacheEntry] | None:
    """The content stored in the entry bytes ``data`` and its entry, or None
    when the entry is damaged: no header line, a header that is not a JSON
    object of this key with a numeric ``fetched_at``, or content whose
    SHA-256 is not the header's ``content_hash``."""
    header, newline, content = data.partition(b"\n")
    if not newline:
        return None
    try:
        meta = json.loads(header)
    except (ValueError, RecursionError):
        return None
    if type(meta) is not dict or meta.get("key") != key:
        return None
    fetched_at = meta.get("fetched_at")
    content_hash = _sha256(content)
    if type(fetched_at) not in (int, float) or meta.get("content_hash") != content_hash:
        return None
    return content, CacheEntry(key, path, fetched_at, content_hash)


def _sha256(data: bytes) -> str:
    # imported here: only fetching hashes, and hashlib loads OpenSSL
    import hashlib

    return hashlib.sha256(data).hexdigest()

