"""Event-based parser for the scram document dialect.

The dialect looks like XML but is deliberately not well-formed: tags are
events, not tree nodes, and nothing forces an open tag to ever close.
``<select name=CC>`` on its own is a complete, legal document. Attribute
values are either unquoted (ending at whitespace or ``>``) or double-quoted
(and may then contain spaces, ``=``, ``&``, ``>`` and newlines). There are
no entities, comments or CDATA; a ``<`` that cannot start a tag is plain
character data.

Dispatch is table-driven: each parser passes plain tables from casefolded
tag name to handler, one per event kind. Scope-like tags (Client,
Architecture) are modelled without nesting rules: their handlers set a
field of the parse state that later handlers read. See docs/dialect.md for
the full grammar and reference documents.
"""

from __future__ import annotations

import enum
import re
from types import MappingProxyType

from .errors import DocTypeError, MarkupError, ScramError

__all__ = [
    "Value",
    "Location",
    "EventKind",
    "TagEvent",
    "DocHeader",
    "DocType",
    "PayloadCodec",
    "check_doc_type",
    "tokenize_markup",
    "read_doc_header",
    "parse_with_handlers",
    "splice_inline",
]


class Value:
    """A value object: equal to an object of its own class whose every slot
    is equal."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        slots = self.__slots__
        return ([getattr(self, name) for name in slots]
                == [getattr(other, name) for name in slots])


class Location(Value):
    __slots__ = ("source", "line", "column")

    def __init__(self, source: str, line: int, column: int):
        self.source = source
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"{self.source}:{self.line}:{self.column}"


class EventKind(enum.Enum):
    OPEN = "open"
    CLOSE = "close"
    CHARDATA = "chardata"


OPEN, CLOSE, CHARDATA = EventKind.OPEN, EventKind.CLOSE, EventKind.CHARDATA
_NO_ATTRS = MappingProxyType({})  # the attrs of every attribute-free event


class TagEvent:
    """One parse event. An open event's ``attrs`` maps each casefolded
    attribute key to its value; ``name`` keeps the tag's spelling.

    Equality deliberately ignores ``location`` so that event streams can be
    compared semantically (round-trip tests, splice tests) regardless of
    where the text happened to sit in its source. An event from
    ``tokenize_markup`` keeps its offset into the text and builds its
    ``Location`` the first time it is read; most never are.
    """

    __slots__ = ("kind", "name", "folded_name", "attrs", "text",
                 "_location", "_lines", "_pos")

    def __init__(self, kind: EventKind, name: str = "",
                 attrs: dict[str, str] | None = None, text: str = "",
                 location: Location | None = None):
        self.kind = kind
        self.name = name
        self.folded_name = name.casefold()
        self.attrs = attrs or _NO_ATTRS
        self.text = text
        self._location = location
        self._lines = None
        self._pos = 0

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.name, self.attrs, self.text)
                == (other.kind, other.name, other.attrs, other.text))

    @property
    def location(self) -> Location | None:
        location = self._location
        if location is None and self._lines is not None:
            location = self._location = self._lines.at(self._pos)
        return location

    def get(self, key: str, default: str | None = None) -> str | None:
        """Look up an attribute value, matching the key case-insensitively."""
        return self.attrs.get(key.casefold(), default)

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise MarkupError(
                f"<{self.name}> is missing required attribute '{key}'",
                location=self.location,
            )
        return value


def _type_path(doc_type: str) -> tuple[str, ...]:
    # 'a:b' and 'a::b' name the same type path.
    return tuple(p for p in doc_type.replace("::", ":").split(":") if p)


class DocHeader:
    """Type and version of a document, from its leading ``<doc>`` tag, and
    where that tag stands."""

    __slots__ = ("doc_type", "doc_version", "location")

    def __init__(self, doc_type: str, doc_version: str,
                 location: Location | None = None):
        self.doc_type = doc_type
        self.doc_version = doc_version
        self.location = location

    def type_path(self) -> tuple[str, ...]:
        return _type_path(self.doc_type)


class DocType:
    """A document type a reader accepts: the ``type`` its header names, the
    oldest ``version`` it reads, and the ``builder`` that turns the body's
    events into a payload. With ``splice_includes`` false, ``<include>``
    tags reach the builder as references instead of being spliced. A type
    whose payloads are cached has a ``codec``."""

    __slots__ = ("name", "path", "min_version", "builder", "splice_includes",
                 "codec")

    def __init__(self, name: str, min_version: str, builder,
                 splice_includes: bool = True, codec: PayloadCodec | None = None):
        self.name = name
        self.path = _type_path(name)
        self.min_version = parse_version(min_version)
        self.builder = builder
        self.splice_includes = splice_includes
        self.codec = codec


class PayloadCodec:
    """A payload's cached form: ``encode(payload)`` gives a JSON value and
    ``decode(value)`` the payload back, trusting its shape. ``tag`` names
    the form and must change whenever the form or the builder does."""

    __slots__ = ("tag", "encode", "decode")

    def __init__(self, tag: str, encode, decode):
        self.tag = tag
        self.encode = encode
        self.decode = decode


def check_doc_type(header: DocHeader, accepted, location=None) -> DocType:
    """The type in ``accepted`` that ``header`` names, if the header's
    version is at least that type's minimum; otherwise a DocTypeError
    located at ``location``."""
    path = header.type_path()
    for doc_type in accepted:
        if doc_type.path == path:
            if parse_version(header.doc_version) < doc_type.min_version:
                minimum = ".".join(map(str, doc_type.min_version))
                raise DocTypeError(
                    f"document version {header.doc_version} of "
                    f"'{header.doc_type}' is older than the supported "
                    f"minimum {minimum}", location=location)
            return doc_type
    names = " or ".join(t.name for t in accepted)
    raise DocTypeError(f"expected a {names} document, found '{header.doc_type}'",
                       location=location)


# In str patterns ``\s`` is exactly ``str.isspace`` and ``\w`` exactly
# ``str.isalnum`` plus ``_``. A tag name starts with a character for which
# ``isalpha()`` holds, or ``_``; no class says that exactly, so the search
# takes the wider ``[^\W\d]`` (which also admits numerics such as ``½``)
# and the tokenizer tests the character itself. The search takes a tag's
# ``/``, its name (``[\w.-]*`` after the first character) and, when only
# whitespace comes before it, the ``>`` that ends a tag without attributes.
_TAG = re.compile(r"<(/?)([^\W\d][\w.-]*)(\s*>)?")
# One attribute: a key, then an optional ``=`` with a quoted or an unquoted
# value. A key never starts at ``/>``. A quote that never closes leaves the
# ``=`` unmatched and both value groups empty.
_ATTR = re.compile(r'\s*(?!/>)([^\s=>"]+)(?:=(?:"([^"]*)"|(?!")([^\s>]*)))?')
_TAG_END = re.compile(r"\s*/?>")
_SPACE = re.compile(r"\s*")


_new_event = object.__new__


class _LineIndex:
    """Line and column of any offset in one text, counted at each lookup:
    only errors and ``<doc>`` headers are located, and a header stands
    near the start."""

    __slots__ = ("text", "source")

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source

    def at(self, pos: int) -> Location:
        line_start = self.text.rfind("\n", 0, pos) + 1
        return Location(self.source, self.text.count("\n", 0, pos) + 1,
                        pos - line_start + 1)


def _located(kind: EventKind, name: str, attrs, text: str, lines: _LineIndex,
             pos: int) -> TagEvent:
    """A tokenized event, located on demand at ``pos`` of ``lines``."""
    ev = _new_event(TagEvent)
    ev.kind = kind
    ev.name = name
    ev.folded_name = name.casefold()
    ev.attrs = attrs
    ev.text = text
    ev._location = None
    ev._lines = lines
    ev._pos = pos
    return ev


def _scan_open_tag(text: str, at: int, name: str, pos: int,
                   lines: _LineIndex) -> tuple[TagEvent, int]:
    """The open tag at ``at`` whose attributes start at ``pos``."""
    attrs: dict[str, str] = {}
    while (m := _ATTR.match(text, pos)) is not None:
        key, quoted, plain = m.groups()
        pos = m.end()
        if quoted is None and plain is None and text.startswith("=", pos):
            raise MarkupError(
                f"unterminated quoted value for '{key}' in tag <{name}>",
                location=lines.at(pos + 1),
            )
        folded = key.casefold()
        if folded in attrs:
            raise MarkupError(
                f"duplicate attribute '{key}' in tag <{name}>", location=lines.at(at)
            )
        attrs[folded] = quoted if quoted is not None else plain or ""
    m = _TAG_END.match(text, pos)
    if m is not None:
        # ``/>`` is an XML habit; tolerated, treated as a plain open tag.
        return _located(OPEN, name, attrs or _NO_ATTRS, "", lines, at), m.end()
    raise _bad_tag_end(text, at, "<" + name, pos, lines)


def _bad_tag_end(text: str, at: int, opening: str, pos: int,
                 lines: _LineIndex) -> MarkupError:
    """The error for the tag at ``at`` that begins with ``opening``, ``<name``
    or ``</name``, and whose contents end at ``pos`` with no ``>``."""
    pos = _SPACE.match(text, pos).end()
    if pos == len(text):
        return MarkupError(f"unterminated tag {opening}", location=lines.at(at))
    return MarkupError(
        f"unexpected character {text[pos]!r} in tag {opening}>",
        location=lines.at(pos),
    )


def tokenize_markup(text: str, source_id: str = "<string>") -> list[TagEvent]:
    """Tokenize document text into an ordered event stream.

    Total over tag-free text: anything that cannot start a tag is collected
    into maximal CharData runs, and a run that ``str.strip`` leaves empty
    makes no event, so no reader ever sees whitespace-only text. Open tags
    never require a matching close. Raises MarkupError only for a tag or
    quoted value left open at end of input, or a duplicate attribute key.
    """
    lines = _LineIndex(text, source_id)
    events: list[TagEvent] = []
    run_start = 0  # start of the pending CharData run
    pos = 0
    while (m := _TAG.search(text, pos)) is not None:
        at = m.start()
        closing, name, end = m.groups()
        if not (name[0].isalpha() or name[0] == "_"):
            pos = at + 1
            continue
        if at > run_start and not (run := text[run_start:at]).isspace():
            events.append(_located(CHARDATA, "", _NO_ATTRS, run, lines, run_start))
        if end is not None:
            kind = CLOSE if closing else OPEN
            events.append(_located(kind, name, _NO_ATTRS, "", lines, at))
            pos = m.end()
        elif closing:
            raise _bad_tag_end(text, at, "</" + name, m.end(), lines)
        else:
            event, pos = _scan_open_tag(text, at, name, m.end(), lines)
            events.append(event)
        run_start = pos
    if len(text) > run_start and not (run := text[run_start:]).isspace():
        events.append(_located(CHARDATA, "", _NO_ATTRS, run, lines, run_start))
    return events


def read_doc_header(events) -> DocHeader:
    """Return the type/version declared by the ``<doc>`` tag that opens the
    stream."""
    if not events:
        raise MarkupError("document has no <doc> header")
    ev = events[0]
    if ev.kind is CHARDATA:
        raise MarkupError("text before the <doc> header", location=ev.location)
    if ev.kind is CLOSE or ev.folded_name != "doc":
        raise MarkupError(
            f"expected <doc> header, found <{'/' if ev.kind is CLOSE else ''}{ev.name}>",
            location=ev.location,
        )
    doc_type = ev.get("type")
    doc_version = ev.get("version")
    if not doc_type:
        raise MarkupError("<doc> is missing its type attribute", location=ev.location)
    if doc_version is None:
        raise MarkupError(
            "<doc> is missing its version attribute", location=ev.location
        )
    if not _valid_version(doc_version):
        raise MarkupError(
            f"bad document version {doc_version!r} (want digits and dots)",
            location=ev.location,
        )
    return DocHeader(doc_type, doc_version, ev.location)


def _valid_version(version: str) -> bool:
    # isdecimal, not isdigit: int() rejects digits such as '²'
    parts = version.split(".")
    return all(p.isdecimal() for p in parts) and bool(parts[0])


def parse_version(version: str) -> tuple[int, ...]:
    """Dotted version string to a comparable tuple; 2.1 > 2.0 and 10.0 > 2.0."""
    if not _valid_version(version):
        raise MarkupError(f"bad version string {version!r}")
    return tuple(int(p) for p in version.split("."))


_NO_HANDLERS: dict = {}  # the table of a kind the caller leaves out; never written


def parse_with_handlers(events, state, open=_NO_HANDLERS, close=_NO_HANDLERS,
                        chardata=_NO_HANDLERS):
    """Dispatch an event stream through tag tables, mutating ``state``.

    ``open``, ``close`` and ``chardata`` each map a casefolded tag name to
    ``handler(state, event)``; an event whose tag has no handler of its
    kind is skipped. CharData is routed to the chardata handler of the
    innermost tag still open at that point (open tags are tracked
    leniently: a close pops back through never-closed tags, an unmatched
    close pops nothing). Errors out of handlers are re-raised with the
    event's location attached.
    """
    open_stack: list[str] = []
    for ev in events:
        kind = ev.kind
        if kind is CHARDATA:
            if not open_stack:
                continue
            handler = chardata.get(open_stack[-1])
        else:
            folded = ev.folded_name
            if kind is OPEN:
                handler = open.get(folded)
                open_stack.append(folded)
            else:
                handler = close.get(folded)
                if folded in open_stack:
                    while open_stack.pop() != folded:
                        pass
        if handler is None:
            continue
        try:
            handler(state, ev)
        except ScramError as exc:
            if exc.location is None:
                exc.location = ev.location
            raise
        except Exception as exc:
            raise MarkupError(
                f"handler for <{ev.name or 'chardata'}> failed: {exc}",
                location=ev.location,
            ) from exc


def splice_inline(events, resolver, *, tags=("inline",)) -> list[TagEvent]:
    """Replace each open event of a tag in ``tags`` (by default
    ``<inline url=...>``) with the events ``resolver(url, tag)`` returns.

    One pass in document order. The resolved stream is taken as-is apart
    from a leading ``<doc>`` header, which is dropped, so nested splicing
    and cycle detection are the resolver's job. Close events of the spliced
    tags are dropped; all other events keep their relative order.
    """
    folded_tags = {tag.casefold() for tag in tags}
    out: list[TagEvent] = []
    for ev in events:
        if ev.folded_name not in folded_tags:
            out.append(ev)
        elif ev.kind is OPEN:
            url = ev.require("url")
            try:
                resolved = resolver(url, ev.folded_name)
            except ScramError as exc:
                if exc.location is None:
                    exc.location = ev.location
                raise
            except Exception as exc:
                raise MarkupError(
                    f"cannot inline {url!r}: {exc}", location=ev.location
                ) from exc
            out.extend(strip_doc_header(resolved))
    return out


def strip_doc_header(events) -> list[TagEvent]:
    """The stream without its first event, if that is a ``<doc>`` open
    event; otherwise the stream itself."""
    if events and events[0].kind is OPEN and events[0].folded_name == "doc":
        return events[1:]
    return events
