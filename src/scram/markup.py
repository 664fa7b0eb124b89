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
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Location:
    source: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.source}:{self.line}:{self.column}"


class EventKind(enum.Enum):
    OPEN = "open"
    CLOSE = "close"
    CHARDATA = "chardata"


@dataclass(frozen=True)
class TagEvent:
    """One parse event.

    Equality deliberately ignores ``location`` so that event streams can be
    compared semantically (round-trip tests, splice tests) regardless of
    where the text happened to sit in its source.
    """

    kind: EventKind
    name: str = ""
    attrs: tuple[tuple[str, str], ...] = ()
    text: str = ""
    location: Location | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind is EventKind.CLOSE and (self.attrs or self.text):
            raise ValueError("close events carry no attributes and no text")
        if self.kind is EventKind.CHARDATA and (self.name or self.attrs):
            raise ValueError("chardata events carry no name and no attributes")

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


@dataclass(frozen=True)
class DocHeader:
    """Type and version of a document, from its leading ``<doc>`` tag."""

    doc_type: str
    doc_version: str

    def type_path(self) -> tuple[str, ...]:
        # 'a:b' and 'a::b' name the same type path.
        return tuple(p for p in self.doc_type.replace("::", ":").split(":") if p)


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-."


class _Scanner:
    """Cursor over document text with line/column tracking."""

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def location(self) -> Location:
        return Location(self.source, self.line, self.column)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def advance(self, count: int = 1) -> str:
        taken = self.text[self.pos : self.pos + count]
        for ch in taken:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += len(taken)
        return taken

    def skip_whitespace(self) -> None:
        while not self.eof() and self.peek().isspace():
            self.advance()

    def take_while(self, pred) -> str:
        start = self.pos
        while not self.eof() and pred(self.peek()):
            self.advance()
        return self.text[start : self.pos]


def _plausible_tag(scanner: _Scanner) -> bool:
    nxt = scanner.peek(1)
    if _is_name_start(nxt):
        return True
    return nxt == "/" and _is_name_start(scanner.peek(2))


def _scan_open_tag(scanner: _Scanner, start: Location) -> TagEvent:
    scanner.advance()  # consume '<'
    name = scanner.take_while(_is_name_char)
    attrs: list[tuple[str, str]] = []
    seen: set[str] = set()
    while True:
        scanner.skip_whitespace()
        if scanner.eof():
            raise MarkupError(f"unterminated tag <{name}", location=start)
        ch = scanner.peek()
        if ch == ">":
            scanner.advance()
            return open_event(name, attrs, start)
        if ch == "/" and scanner.peek(1) == ">":
            # XML habit; tolerated, treated as a plain open tag.
            scanner.advance(2)
            return open_event(name, attrs, start)
        key = scanner.take_while(lambda c: not c.isspace() and c not in '=>"')
        if not key:
            raise MarkupError(
                f"unexpected character {scanner.peek()!r} in tag <{name}>",
                location=scanner.location(),
            )
        value = ""
        if scanner.peek() == "=":
            scanner.advance()
            if scanner.peek() == '"':
                quote_at = scanner.location()
                scanner.advance()
                chunk_start = scanner.pos
                while not scanner.eof() and scanner.peek() != '"':
                    scanner.advance()
                if scanner.eof():
                    raise MarkupError(
                        f"unterminated quoted value for '{key}' in tag <{name}>",
                        location=quote_at,
                    )
                value = scanner.text[chunk_start : scanner.pos]
                scanner.advance()  # closing quote
            else:
                value = scanner.take_while(lambda c: not c.isspace() and c != ">")
        folded = key.casefold()
        if folded in seen:
            raise MarkupError(
                f"duplicate attribute '{key}' in tag <{name}>", location=start
            )
        seen.add(folded)
        attrs.append((key, value))


def _scan_close_tag(scanner: _Scanner, start: Location) -> TagEvent:
    scanner.advance(2)  # consume '</'
    name = scanner.take_while(_is_name_char)
    scanner.skip_whitespace()
    if scanner.eof():
        raise MarkupError(f"unterminated tag </{name}", location=start)
    if scanner.peek() != ">":
        raise MarkupError(
            f"unexpected character {scanner.peek()!r} in tag </{name}>",
            location=scanner.location(),
        )
    scanner.advance()
    return close_event(name, start)


def tokenize_markup(text: str, source_id: str = "<string>") -> list[TagEvent]:
    """Tokenize document text into an ordered event stream.

    Total over tag-free text: anything that cannot start a tag is collected
    into maximal CharData runs, so the concatenation of all CharData equals
    the input when no tags are present. Open tags never require a matching
    close. Raises MarkupError only for a tag or quoted value left open at
    end of input, or a duplicate attribute key.
    """
    scanner = _Scanner(text, source_id)
    events: list[TagEvent] = []
    run_start = 0
    run_location = scanner.location()

    def flush(upto: int) -> None:
        if upto > run_start:
            events.append(chardata_event(text[run_start:upto], run_location))

    while not scanner.eof():
        if scanner.peek() == "<" and _plausible_tag(scanner):
            flush(scanner.pos)
            start = scanner.location()
            if scanner.peek(1) == "/":
                events.append(_scan_close_tag(scanner, start))
            else:
                events.append(_scan_open_tag(scanner, start))
            run_start = scanner.pos
            run_location = scanner.location()
        else:
            scanner.advance()
    flush(scanner.pos)
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
