"""Typed document activation on top of fetch and tokenize.

Each caller names the document types it accepts (``markup.DocType``: a
``<doc type=...>`` path, a minimum document version and a builder that
turns an event stream into a domain object), and activation checks the
document's header against them with ``markup.check_doc_type``. Activation
runs the whole pipeline (fetch, tokenize, header check, splice, build) and
returns the payload, the builder's domain object; the caller's URL is the
base of any reference the payload holds. Header and payload are memoized
per engine, keyed by normalized URL and version, so a document is
activated at most once per engine; a memoized document is checked again
against the types of each caller. The tokenized events of each nested
document are memoized per engine under the same key, so a fragment
referenced many times is fetched and tokenized once per engine.
What a fetch reaches, a pack or an adapter, and how many fetches were made
is decided and counted by the engine's ``UrlCache`` alone.

A type with a ``codec`` (tool documents and configurations) has its
payloads kept in the cache, which stores bytes: this module alone encodes,
decodes and checks the entry, and a cache it cannot write to keeps nothing
and the command goes on. A parse keeps the payload under the codec's tag,
the type's name, the document's cache key (a relative reference resolves
against its URL) and the SHA-256 of its bytes, and records with it the
header and the URL, version and SHA-256 of each distinct document spliced
into it. A caller that accepts exactly that one type is served the
kept payload instead of a parse when each recorded document still has its
hash; each is fetched through the cache once per engine to learn it, so
fetch counts and ``refresh`` are what a parse would give. Any doubt (no
verified copy, another hash, a failed fetch, a header or shape that does
not decode) is a miss, which parses.

Two splicing tags exist. ``<inline url=...>`` always splices the target's
events in place. ``<include url=...>`` does the same for document types
that do not claim the tag themselves, but then checks the included
document's header against the including document's type; types made with
``splice_includes=False`` (the project requirements format does this) see
the include events and record them as references instead. Both tags are
spliced in one pass in document order; each nested document is spliced
against its own URL at every reference, and the chain of documents being
spliced is the one cycle check, reported with every URL in the cycle. The
same chain bounds the nesting: more than ``MAX_NESTING`` documents spliced
one inside another is an error that names them all. The same pass bounds
the expansion: the events that references splice into one activation,
counted once per reference, may not pass ``SPLICE_FLOOR`` or, if larger,
``SPLICE_FACTOR`` times the events of the distinct documents it reads, so
a few hundred bytes of fragments that each inline the next twice fail
early instead of growing to millions of events.
"""

from __future__ import annotations

import json
from contextlib import suppress

from .errors import CacheError, DocTypeError, ScramError
from .markup import (
    DocHeader,
    DocType,
    check_doc_type,
    read_doc_header,
    splice_inline,
    strip_doc_header,
    tokenize_markup,
)
from .urlaccess import ResourceUrl, UrlCache, parse_url, payload_key, sha256_of

MAX_NESTING = 32  # documents spliced one inside another, below the activated one
# the events that references may splice into one activation: this many
# times the events of the distinct documents it reads, and at least the floor
SPLICE_FACTOR = 16
SPLICE_FLOOR = 10_000

# the encoder of kept payload entries, compact JSON without a cycle
_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


class DocumentEngine:
    """Binds a cache into ``activate``."""

    def __init__(self, cache: UrlCache):
        self.cache = cache
        # the header and payload of each activated document, by cache key
        self._activated: dict[str, tuple[DocHeader, object]] = {}
        # the SHA-256 and bytes of each nested document, by cache key
        self._nested: dict[str, tuple[str, bytes]] = {}
        # tokenized events of nested documents, by cache key
        self._events: dict[str, list] = {}

    def activate(self, url: ResourceUrl, accepted: tuple[DocType, ...]):
        """The payload of the document at ``url``, which must be of one of
        the ``accepted`` types."""
        key = url.cache_key()
        try:
            done = self._activated.get(key)
            if done is None:
                done = self._activated[key] = self._activate_uncached(url, key, accepted)
            else:
                check_doc_type(done[0], accepted)
        except ScramError as exc:
            if exc.context is None and not isinstance(exc, CacheError):
                exc.context = f"while activating {url}"
            raise
        return done[1]

    def _activate_uncached(self, url: ResourceUrl, key: str,
                           accepted: tuple[DocType, ...]) -> tuple[DocHeader, object]:
        content = self.cache.fetch(url)
        codec = accepted[0].codec if len(accepted) == 1 else None
        if codec is not None:
            kept = payload_key(codec.tag, accepted[0].name, key, sha256_of(content))
            done = self._recall(kept, accepted[0])
            if done is not None:
                return done
        events = self.events_for(url, content)
        header = read_doc_header(events)
        doc_type = check_doc_type(header, accepted)
        spliced: dict[str, list] = {}
        events = self._splice(events, url, None, doc_type, {key: url}, spliced,
                              [0, len(events)])
        payload = doc_type.builder(strip_doc_header(events))
        if codec is not None:
            entry = [header.doc_type, header.doc_version, list(spliced.values()),
                     codec.encode(payload)]
            with suppress(CacheError):
                self.cache.keep(kept, _compact(entry).encode())
        return header, payload

    def _recall(self, kept: str, doc_type: DocType) -> tuple[DocHeader, object] | None:
        """The header and payload kept under ``kept``, if every document
        spliced into it still has the SHA-256 recorded with it; any doubt
        is None."""
        data = self.cache.recall(kept)
        if data is None:
            return None
        try:
            doc_type_name, doc_version, recorded, value = json.loads(data)
            header = DocHeader(doc_type_name, doc_version)
            check_doc_type(header, (doc_type,))
            for raw, version, sha in recorded:
                url = parse_url(raw)
                if self._nested_doc(url, version, url.cache_key(version))[0] != sha:
                    return None
            return header, doc_type.codec.decode(value)
        except (ScramError, ValueError, LookupError, TypeError, AttributeError,
                RecursionError):
            return None

    def _nested_doc(self, url: ResourceUrl, version: str, key: str) -> tuple[str, bytes]:
        """The SHA-256 and bytes of a nested document, fetched once per engine."""
        doc = self._nested.get(key)
        if doc is None:
            content = self.cache.fetch(url, version)
            doc = self._nested[key] = (sha256_of(content), content)
        return doc

    def events_for(self, url: ResourceUrl, content: bytes):
        """The events of ``content``, the bytes of the document at ``url``."""
        return tokenize_markup(content.decode("utf-8", errors="replace"),
                               source_id=str(url))

    def _splice(self, events, url, version, doc_type, chain, spliced, counts):
        """Splice ``<inline>`` and, unless the type opts out, ``<include>``
        in one pass, resolving each nested document against its own URL.
        ``chain`` maps the cache key of each document being spliced to its
        URL, outermost first; ``spliced`` gets the [URL, version, SHA-256]
        of each distinct nested document, by cache key; ``counts`` holds
        the events spliced so far and those of the distinct documents read.
        A nested document is fetched and tokenized once per engine however
        often it is referenced; it is still spliced, header-checked,
        cycle-checked, depth-checked and counted at every reference."""

        def resolve(target: str, tag: str):
            resolved = parse_url(target, base=url)
            resolved_version = resolved.get("version") or url.version_tag(version)
            key = resolved.cache_key(resolved_version)
            if key in chain or len(chain) > MAX_NESTING:
                names = " -> ".join(str(u) for u in [*chain.values(), resolved])
                raise DocTypeError(
                    f"document inclusion cycle: {names}" if key in chain else
                    f"documents nested more than {MAX_NESTING} deep: {names}")
            sha, content = self._nested_doc(resolved, resolved_version, key)
            inner_events = self._events.get(key)
            if inner_events is None:
                inner_events = self._events[key] = self.events_for(resolved, content)
            if key not in spliced:
                spliced[key] = [resolved.unparse(), resolved_version, sha]
                counts[1] += len(inner_events)
            counts[0] += len(inner_events)
            bound = max(SPLICE_FLOOR, SPLICE_FACTOR * counts[1])
            if counts[0] > bound:
                raise DocTypeError(
                    f"references splice more than {bound} events, the larger of "
                    f"{SPLICE_FLOOR} and {SPLICE_FACTOR} times the {counts[1]} events "
                    f"of the {len(spliced) + 1} documents read")
            if tag == "include":
                # located at the included header, which names its URL
                inner_header = read_doc_header(inner_events)
                check_doc_type(inner_header, (doc_type,), inner_header.location)
            return self._splice(inner_events, resolved, resolved_version,
                                doc_type, {**chain, key: resolved}, spliced, counts)

        tags = ("inline", "include") if doc_type.splice_includes else ("inline",)
        return splice_inline(events, resolve, tags=tags)
