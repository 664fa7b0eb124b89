"""Typed document activation on top of fetch and tokenize.

A document type registry maps a ``<doc type=...>`` path to a builder that
turns an event stream into a domain object, gated on a minimum document
version. Activation runs the whole pipeline (fetch, tokenize, splice,
header check, build) and memoizes the result per engine, keyed by
normalized URL and version, so a document is activated at most once per
engine. The tokenized events of each nested document are memoized per
engine under the same key, so a fragment referenced many times is fetched
and tokenized once per engine, also when the engine refreshes.

Two splicing tags exist. ``<inline url=...>`` always splices the target's
events in place. ``<include url=...>`` does the same for document types
that do not claim the tag themselves, but then insists the included
document has a header of the same type; types registered with
``splice_includes=False`` (the project requirements format does this) see
the include events and record them as references instead. Both tags are
spliced in one pass in document order; each nested document is spliced
against its own URL at every reference, and the chain of documents being
spliced is the one cycle check, reported with every URL in the cycle.
"""

from __future__ import annotations

from .errors import DocTypeError
from .markup import (
    DocHeader,
    parse_version,
    read_doc_header,
    splice_inline,
    strip_doc_header,
    tokenize_markup,
)
from .urlaccess import ResourceUrl, UrlCache, parse_url


class TypedDocument:
    __slots__ = ("header", "source", "version", "payload")

    def __init__(self, header: DocHeader, source: ResourceUrl, version: str,
                 payload: object):
        self.header = header
        self.source = source
        self.version = version
        self.payload = payload


class _TypeEntry:
    __slots__ = ("doc_type", "min_version", "builder", "splice_includes")

    def __init__(self, doc_type: str, min_version: tuple[int, ...],
                 builder, splice_includes: bool):
        self.doc_type = doc_type
        self.min_version = min_version
        self.builder = builder
        self.splice_includes = splice_includes


class DocTypeRegistry:
    def __init__(self):
        self._types: dict[tuple[str, ...], _TypeEntry] = {}

    def register(self, doc_type: str, min_version: str, builder,
                 *, splice_includes: bool = True) -> "DocTypeRegistry":
        key = DocHeader(doc_type, "0").type_path()
        if key in self._types:
            raise DocTypeError(f"document type '{doc_type}' is already registered")
        self._types[key] = _TypeEntry(
            doc_type, parse_version(min_version), builder, splice_includes
        )
        return self

    def entry_for(self, header: DocHeader) -> _TypeEntry:
        entry = self._types.get(header.type_path())
        if entry is None:
            known = ", ".join(sorted(e.doc_type for e in self._types.values()))
            raise DocTypeError(
                f"unknown document type '{header.doc_type}' (registered: {known})"
            )
        if parse_version(header.doc_version) < entry.min_version:
            minimum = ".".join(str(p) for p in entry.min_version)
            raise DocTypeError(
                f"document version {header.doc_version} of '{header.doc_type}' "
                f"is older than the supported minimum {minimum}"
            )
        return entry


class EngineStats:
    __slots__ = ("fetches", "parses")

    def __init__(self, fetches: int = 0, parses: int = 0):
        self.fetches = fetches
        self.parses = parses

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.fetches, self.parses) == (other.fetches, other.parses)


class DocumentEngine:
    """Binds a cache and a type registry into ``activate``."""

    def __init__(self, cache: UrlCache, types: DocTypeRegistry,
                 refresh: bool = False):
        self.cache = cache
        self.types = types
        self.refresh = refresh
        self.stats = EngineStats()
        self._activated: dict[str, TypedDocument] = {}
        # tokenized events of nested documents, by cache key
        self._nested: dict[str, list] = {}

    def activate(self, url: ResourceUrl | str,
                 version: str | None = None) -> TypedDocument:
        if isinstance(url, str):
            url = parse_url(url)
        key = url.cache_key(version)
        doc = self._activated.get(key)
        if doc is None:
            doc = self._activated[key] = self._activate_uncached(url, version)
        return doc

    def _activate_uncached(self, url: ResourceUrl,
                           version: str | None) -> TypedDocument:
        try:
            events = self.events_for(url, version)
            header = read_doc_header(events)
            entry = self.types.entry_for(header)
            chain = {url.cache_key(version): url}
            events = self._splice(events, url, version, header, entry, chain)
            payload = entry.builder(strip_doc_header(events))
        except Exception as exc:
            self._tag_context(exc, url)
            raise
        return TypedDocument(header, url, url.version_tag(version), payload)

    def events_for(self, url: ResourceUrl, version: str | None):
        content, _ = self.cache.fetch(url, version, refresh=self.refresh)
        self.stats.fetches += 1
        text = content.decode("utf-8", errors="replace")
        self.stats.parses += 1
        return tokenize_markup(text, source_id=str(url))

    def _splice(self, events, url, version, header, entry, chain):
        """Splice ``<inline>`` and, unless the type opts out, ``<include>``
        in one pass, resolving each nested document against its own URL.
        ``chain`` maps the cache key of each document being spliced to its
        URL, outermost first. A nested document is fetched and tokenized
        once per engine however often it is referenced; it is still spliced,
        header-checked and cycle-checked at every reference."""

        def resolve(target: str, tag: str):
            resolved = parse_url(target, base=url)
            resolved_version = resolved.get("version") or url.version_tag(version)
            key = resolved.cache_key(resolved_version)
            if key in chain:
                cycle = " -> ".join(str(u) for u in [*chain.values(), resolved])
                raise DocTypeError(f"document inclusion cycle: {cycle}")
            inner_events = self._nested.get(key)
            if inner_events is None:
                inner_events = self._nested[key] = self.events_for(
                    resolved, resolved_version)
            inner_header, inner_entry = header, entry
            if tag == "include":
                inner_header = read_doc_header(inner_events)
                if inner_header.type_path() != header.type_path():
                    raise DocTypeError(
                        f"<include> of {resolved} expects type "
                        f"'{header.doc_type}', found '{inner_header.doc_type}'"
                    )
                inner_entry = self.types.entry_for(inner_header)
            return self._splice(
                inner_events, resolved, resolved_version, inner_header,
                inner_entry, {**chain, key: resolved},
            )

        tags = ("inline", "include") if entry.splice_includes else ("inline",)
        return splice_inline(events, resolve, tags=tags)

    @staticmethod
    def _tag_context(exc: Exception, url: ResourceUrl) -> None:
        from .errors import ScramError

        if isinstance(exc, ScramError) and exc.context is None:
            exc.context = f"while activating {url}"
