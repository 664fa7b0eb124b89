"""Event-based parser for the scram document dialect.

The dialect looks like XML but is deliberately not well-formed: tags are
events, not tree nodes, and nothing forces an open tag to ever close.
``<select name=CC>`` on its own is a complete, legal document. Attribute
values are either unquoted (ending at whitespace or ``>``) or double-quoted
(and may then contain spaces, ``=``, ``&``, ``>`` and newlines). There are
no entities, comments or CDATA; a ``<`` that cannot start a tag is plain
character data.

Dispatch is table-driven: callers register handlers per tag name inside
named groups, and handlers may switch groups on and off mid-parse, which is
how scope-like tags (Client, Architecture) are modelled without nesting
rules. See docs/dialect.md for the full grammar and reference documents.
"""

from __future__ import annotations

import enum
import re

from .errors import MarkupError

__all__ = [
    "Location",
    "EventKind",
    "TagEvent",
    "DocHeader",
    "HandlerMap",
    "tokenize_markup",
    "serialize_events",
    "read_doc_header",
    "parse_with_handlers",
    "splice_inline",
]


class Location:
    __slots__ = ("source", "line", "column")

    def __init__(self, source: str, line: int, column: int):
        self.source = source
        self.line = line
        self.column = column

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.line, self.column)
                == (other.source, other.line, other.column))

    def __str__(self) -> str:
        return f"{self.source}:{self.line}:{self.column}"


class EventKind(enum.Enum):
    OPEN = "open"
    CLOSE = "close"
    CHARDATA = "chardata"


class TagEvent:
    """One parse event.

    Equality deliberately ignores ``location`` so that event streams can be
    compared semantically (round-trip tests, splice tests) regardless of
    where the text happened to sit in its source.
    """

    __slots__ = ("kind", "name", "attrs", "text", "location")

    def __init__(self, kind: EventKind, name: str = "",
                 attrs: tuple[tuple[str, str], ...] = (), text: str = "",
                 location: Location | None = None):
        if kind is EventKind.CLOSE and (attrs or text):
            raise ValueError("close events carry no attributes and no text")
        if kind is EventKind.CHARDATA and (name or attrs):
            raise ValueError("chardata events carry no name and no attributes")
        self.kind = kind
        self.name = name
        self.attrs = attrs
        self.text = text
        self.location = location

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.name, self.attrs, self.text)
                == (other.kind, other.name, other.attrs, other.text))

    @property
    def folded_name(self) -> str:
        return self.name.casefold()

    def get(self, key: str, default: str | None = None) -> str | None:
        """Look up an attribute value, matching the key case-insensitively."""
        want = key.casefold()
        for k, v in self.attrs:
            if k.casefold() == want:
                return v
        return default

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise MarkupError(
                f"<{self.name}> is missing required attribute '{key}'",
                location=self.location,
            )
        return value


def open_event(name, attrs=(), location=None) -> TagEvent:
    return TagEvent(EventKind.OPEN, name=name, attrs=tuple(attrs), location=location)


def close_event(name, location=None) -> TagEvent:
    return TagEvent(EventKind.CLOSE, name=name, location=location)


def chardata_event(text, location=None) -> TagEvent:
    return TagEvent(EventKind.CHARDATA, text=text, location=location)


class DocHeader:
    """Type and version of a document, from its leading ``<doc>`` tag."""

    __slots__ = ("doc_type", "doc_version")

    def __init__(self, doc_type: str, doc_version: str):
        self.doc_type = doc_type
        self.doc_version = doc_version

    def type_path(self) -> tuple[str, ...]:
        # 'a:b' and 'a::b' name the same type path.
        return tuple(p for p in self.doc_type.replace("::", ":").split(":") if p)


# In str patterns ``\s`` is exactly ``str.isspace`` and ``\w`` exactly
# ``str.isalnum`` plus ``_``. A tag name starts with a character for which
# ``isalpha()`` holds, or ``_``; no class says that exactly, so the search
# takes the wider ``[^\W\d]`` (which also admits numerics such as ``½``)
# and ``_name_start`` decides.
_TAG_START = re.compile(r"<(?=/?[^\W\d])")
_NAME = re.compile(r"[\w.-]*")
# One attribute: a key, then an optional ``=`` with a quoted or an unquoted
# value. A key never starts at ``/>``. A quote that never closes leaves the
# ``=`` unmatched and both value groups empty.
_ATTR = re.compile(r'\s*(?!/>)([^\s=>"]+)(?:=(?:"([^"]*)"|(?!")([^\s>]*)))?')
_TAG_END = re.compile(r"\s*/?>")
_SPACE = re.compile(r"\s*")


def _name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


class _Lines:
    """Line and column of positions in one text. Positions are asked for in
    increasing order, and newlines are counted forward from the last one,
    so locating every event of a text costs one pass over it."""

    __slots__ = ("text", "source", "pos", "line", "line_start")

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source
        self.pos = 0
        self.line = 1
        self.line_start = 0

    def at(self, pos: int) -> Location:
        newlines = self.text.count("\n", self.pos, pos)
        if newlines:
            self.line += newlines
            self.line_start = self.text.rfind("\n", self.pos, pos) + 1
        self.pos = pos
        return Location(self.source, self.line, pos - self.line_start + 1)


def _scan_open_tag(text: str, at: int, lines: _Lines) -> tuple[TagEvent, int]:
    start = lines.at(at)
    pos = _NAME.match(text, at + 1).end()
    name = text[at + 1 : pos]
    attrs: list[tuple[str, str]] = []
    seen: set[str] = set()
    while (m := _ATTR.match(text, pos)) is not None:
        key, quoted, plain = m.groups()
        pos = m.end()
        if quoted is None and plain is None and text.startswith("=", pos):
            raise MarkupError(
                f"unterminated quoted value for '{key}' in tag <{name}>",
                location=lines.at(pos + 1),
            )
        folded = key.casefold()
        if folded in seen:
            raise MarkupError(
                f"duplicate attribute '{key}' in tag <{name}>", location=start
            )
        seen.add(folded)
        attrs.append((key, quoted if quoted is not None else plain or ""))
    m = _TAG_END.match(text, pos)
    if m is not None:
        # ``/>`` is an XML habit; tolerated, treated as a plain open tag.
        return open_event(name, attrs, start), m.end()
    pos = _SPACE.match(text, pos).end()
    if pos == len(text):
        raise MarkupError(f"unterminated tag <{name}", location=start)
    raise MarkupError(
        f"unexpected character {text[pos]!r} in tag <{name}>",
        location=lines.at(pos),
    )


def _scan_close_tag(text: str, at: int, lines: _Lines) -> tuple[TagEvent, int]:
    start = lines.at(at)
    name_end = _NAME.match(text, at + 2).end()
    name = text[at + 2 : name_end]
    pos = _SPACE.match(text, name_end).end()
    if pos == len(text):
        raise MarkupError(f"unterminated tag </{name}", location=start)
    if text[pos] != ">":
        raise MarkupError(
            f"unexpected character {text[pos]!r} in tag </{name}>",
            location=lines.at(pos),
        )
    return close_event(name, start), pos + 1


def tokenize_markup(text: str, source_id: str = "<string>") -> list[TagEvent]:
    """Tokenize document text into an ordered event stream.

    Total over tag-free text: anything that cannot start a tag is collected
    into maximal CharData runs, so the concatenation of all CharData equals
    the input when no tags are present. Open tags never require a matching
    close. Raises MarkupError only for a tag or quoted value left open at
    end of input, or a duplicate attribute key.
    """
    lines = _Lines(text, source_id)
    events: list[TagEvent] = []
    run_start = 0  # start of the pending CharData run
    pos = 0
    while (m := _TAG_START.search(text, pos)) is not None:
        at = m.start()
        closing = text[at + 1] == "/"
        if not _name_start(text[at + 2] if closing else text[at + 1]):
            pos = at + 1
            continue
        if at > run_start:
            events.append(chardata_event(text[run_start:at], lines.at(run_start)))
        scan = _scan_close_tag if closing else _scan_open_tag
        event, pos = scan(text, at, lines)
        events.append(event)
        run_start = pos
    if len(text) > run_start:
        events.append(chardata_event(text[run_start:], lines.at(run_start)))
    return events


def _serialize_attr(key: str, value: str) -> str:
    plain = value and not any(c.isspace() for c in value) and ">" not in value
    if plain and not value.startswith('"'):
        return f"{key}={value}"
    if '"' in value:
        raise MarkupError(
            f"attribute '{key}' needs quoting but contains a double quote"
        )
    return f'{key}="{value}"'


def serialize_events(events) -> str:
    """Render an event stream back to document text.

    Inverse of tokenize_markup at the event level: re-tokenizing the output
    of a stream that came from a parse yields an equal stream. Hand-built
    streams with adjacent CharData events merge on reparse.
    """
    parts: list[str] = []
    for ev in events:
        if ev.kind is EventKind.CHARDATA:
            parts.append(ev.text)
        elif ev.kind is EventKind.OPEN:
            inner = " ".join([ev.name] + [_serialize_attr(k, v) for k, v in ev.attrs])
            parts.append(f"<{inner}>")
        else:
            parts.append(f"</{ev.name}>")
    return "".join(parts)


def read_doc_header(events) -> DocHeader:
    """Return the type/version declared by the stream's first ``<doc>`` tag.

    Only whitespace character data may precede it.
    """
    for ev in events:
        if ev.kind is EventKind.CHARDATA:
            if ev.text.strip():
                raise MarkupError(
                    "text before the <doc> header", location=ev.location
                )
            continue
        if ev.kind is EventKind.OPEN and ev.folded_name == "doc":
            doc_type = ev.get("type")
            doc_version = ev.get("version")
            if not doc_type:
                raise MarkupError(
                    "<doc> is missing its type attribute", location=ev.location
                )
            if doc_version is None:
                raise MarkupError(
                    "<doc> is missing its version attribute", location=ev.location
                )
            if not _valid_version(doc_version):
                raise MarkupError(
                    f"bad document version {doc_version!r} (want digits and dots)",
                    location=ev.location,
                )
            return DocHeader(doc_type, doc_version)
        raise MarkupError(
            f"expected <doc> header, found <{'/' if ev.kind is EventKind.CLOSE else ''}{ev.name}>",
            location=ev.location,
        )
    raise MarkupError("document has no <doc> header")


def _valid_version(version: str) -> bool:
    parts = version.split(".")
    return all(p.isdigit() for p in parts) and bool(parts[0])


def parse_version(version: str) -> tuple[int, ...]:
    """Dotted version string to a comparable tuple; 2.1 > 2.0 and 10.0 > 2.0."""
    if not _valid_version(version):
        raise MarkupError(f"bad version string {version!r}")
    return tuple(int(p) for p in version.split("."))


class _Registration:
    __slots__ = ("group", "handler")

    def __init__(self, group: str, handler):
        self.group = group
        self.handler = handler


class HandlerMap:
    """Named groups of per-tag handlers with an active subset.

    Handlers are callables ``handler(state, event)``. Dispatch consults only
    active groups; a tag without an active handler is skipped silently.
    Registering the same (tag, kind) twice in one group is an error, and two
    *active* groups claiming the same (tag, kind) is a dispatch-time error,
    so scope-switching (Client on/off) must deactivate one side.
    """

    def __init__(self):
        self._registrations: dict[tuple[str, EventKind], list[_Registration]] = {}
        self._groups: set[str] = set()
        self._active: set[str] = set()

    def add(self, group: str, tag: str, *, open=None, close=None, chardata=None,
            activate: bool = True) -> "HandlerMap":
        """Register handlers for one tag inside a group.

        New groups start active unless ``activate=False``.
        """
        if group not in self._groups:
            self._groups.add(group)
            if activate:
                self._active.add(group)
        pairs = ((EventKind.OPEN, open), (EventKind.CLOSE, close),
                 (EventKind.CHARDATA, chardata))
        for kind, handler in pairs:
            if handler is None:
                continue
            key = (tag.casefold(), kind)
            regs = self._registrations.setdefault(key, [])
            if any(r.group == group for r in regs):
                raise MarkupError(
                    f"group '{group}' already handles <{tag}> {kind.value}"
                )
            regs.append(_Registration(group, handler))
        return self

    def activate(self, group: str) -> None:
        if group not in self._groups:
            raise MarkupError(f"unknown handler group '{group}'")
        self._active.add(group)

    def deactivate(self, group: str) -> None:
        self._active.discard(group)

    def lookup(self, tag: str, kind: EventKind):
        regs = self._registrations.get((tag.casefold(), kind), ())
        live = [r for r in regs if r.group in self._active]
        if len(live) > 1:
            groups = ", ".join(sorted(r.group for r in live))
            raise MarkupError(
                f"tag <{tag}> {kind.value} is claimed by several active groups: {groups}"
            )
        return live[0].handler if live else None


def parse_with_handlers(events, handlers: HandlerMap, state):
    """Dispatch an event stream through a HandlerMap, mutating ``state``.

    CharData is routed to the chardata handler of the innermost tag still
    open at that point (open tags are tracked leniently: a close pops back
    through never-closed tags, an unmatched close pops nothing). Errors out
    of handlers are re-raised with the event's location attached.
    """
    open_stack: list[str] = []
    for ev in events:
        if ev.kind is EventKind.CHARDATA:
            handler = None
            if open_stack:
                handler = handlers.lookup(open_stack[-1], EventKind.CHARDATA)
            if handler is not None:
                _invoke(handler, state, ev)
            continue
        handler = handlers.lookup(ev.name, ev.kind)
        if ev.kind is EventKind.OPEN:
            if handler is not None:
                _invoke(handler, state, ev)
            open_stack.append(ev.folded_name)
        else:
            if handler is not None:
                _invoke(handler, state, ev)
            if ev.folded_name in open_stack:
                while open_stack.pop() != ev.folded_name:
                    pass
    return state


def _invoke(handler, state, ev: TagEvent):
    from .errors import ScramError

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
    from .errors import ScramError

    folded_tags = {tag.casefold() for tag in tags}
    out: list[TagEvent] = []
    for ev in events:
        if ev.folded_name not in folded_tags:
            out.append(ev)
        elif ev.kind is EventKind.OPEN:
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
    """Drop the first ``<doc>`` open event, if the stream starts with one."""
    out = list(events)
    for i, ev in enumerate(out):
        if ev.kind is EventKind.CHARDATA and not ev.text.strip():
            continue
        if ev.kind is EventKind.OPEN and ev.folded_name == "doc":
            del out[i]
        break
    return out
