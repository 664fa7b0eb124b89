"""Typed document activation on top of fetch and tokenize.

Each caller names the document types it accepts (``markup.DocType``: a
``<doc type=...>`` path, a minimum document version and a builder that
turns an event stream into a domain object), and activation checks the
document's header against them with ``markup.check_doc_type``.
``activate`` fetches the document and recalls a kept payload, and
``_activate_uncached`` parses it otherwise (tokenize, header check,
splice, build); either gives the payload, the builder's domain object,
and the caller's URL is the base of any reference it holds. A cache fault
or a failed fetch of the activated document is the command's. Only a
parse names the document, as ``while activating <url>``, and not when its
error is located in that document, which names it already. An engine
keeps nothing of the documents it activates, so a second activation
fetches again and is checked against its own caller's types. Its one
memo holds the documents spliced into them, keyed by normalized URL and
version: each one's SHA-256, then its events once tokenized, so a
fragment referenced many times is fetched and tokenized once per engine.
What a fetch reaches, a pack or an adapter, is decided and counted by the
engine's ``UrlCache`` alone, and the fetch gives each document's SHA-256:
this module hashes none.

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

from .errors import AreaError, DocTypeError, ScramError
from .markup import (
    DocHeader,
    DocType,
    check_doc_type,
    read_doc_header,
    splice_inline,
    strip_doc_header,
    tokenize_markup,
)
from .urlaccess import ResourceUrl, UrlCache, parse_url, payload_key

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
        # each nested document by cache key: [its SHA-256, its bytes], the
        # bytes replaced by their events once they are tokenized
        self._nested: dict[str, list] = {}

    def activate(self, url: ResourceUrl, accepted: tuple[DocType, ...]):
        """The payload of the document at ``url``, which must be of one of
        the ``accepted`` types."""
        content, sha = self.cache.fetch(url)
        codec = accepted[0].codec if len(accepted) == 1 else None
        kept = None
        if codec is not None:
            kept = payload_key(codec.tag, accepted[0].name, url.cache_key(), sha)
            payload = self._recall(kept, accepted[0])
            if payload is not None:
                return payload
        try:
            return self._activate_uncached(url, content, accepted, kept)
        except ScramError as exc:
            # an error located in this document names it already
            if exc.context is None and (exc.location is None
                                        or exc.location.source != str(url)):
                exc.context = f"while activating {url}"
            raise

    def _activate_uncached(self, url: ResourceUrl, content: bytes,
                           accepted: tuple[DocType, ...], kept: str | None):
        """Parse ``content``, the bytes at ``url``, and keep the payload
        under ``kept``, if given."""
        events = self.events_for(url, content)
        header = read_doc_header(events)
        doc_type = check_doc_type(header, accepted)
        spliced: dict[str, list] = {}
        events = self._splice(events, url, None, doc_type, {url.cache_key(): url},
                              spliced, [0, len(events)])
        payload = doc_type.builder(strip_doc_header(events))
        if kept is not None:
            entry = [header.doc_type, header.doc_version, list(spliced.values()),
                     doc_type.codec.encode(payload)]
            with suppress(AreaError):
                self.cache.keep(kept, _compact(entry).encode())
        return payload

    def _recall(self, kept: str, doc_type: DocType):
        """The payload kept under ``kept``, if every document spliced into
        it still has the SHA-256 recorded with it; any doubt is None."""
        data = self.cache.recall(kept)
        if data is None:
            return None
        try:
            doc_type_name, doc_version, recorded, value = json.loads(data)
            check_doc_type(DocHeader(doc_type_name, doc_version), (doc_type,))
            for raw, version, sha in recorded:
                url = parse_url(raw)
                if self._nested_doc(url, version, url.cache_key(version))[0] != sha:
                    return None
            return doc_type.codec.decode(value)
        except (ScramError, ValueError, LookupError, TypeError, AttributeError,
                RecursionError):
            return None

    def _nested_doc(self, url: ResourceUrl, version: str, key: str) -> list:
        """The memo entry of a nested document, fetched once per engine."""
        doc = self._nested.get(key)
        if doc is None:
            content, sha = self.cache.fetch(url, version)
            doc = self._nested[key] = [sha, content]
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
            doc = self._nested_doc(resolved, resolved_version, key)
            if not isinstance(doc[1], list):
                doc[1] = self.events_for(resolved, doc[1])
            sha, inner_events = doc
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
