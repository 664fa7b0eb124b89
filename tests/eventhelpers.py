"""Event constructors, a serializer, the reference scanner and a payload
view for markup tests. The serializer carries the tokenizer's round-trip
property (re-tokenizing what it writes gives the events back)."""

from scram.errors import MarkupError
from scram.markup import CHARDATA, CLOSE, OPEN, Location, TagEvent


def open_event(name, attrs=(), location=None) -> TagEvent:
    """An open event with the ``(key, value)`` pairs ``attrs``, keyed as
    the tokenizer keys them: casefolded."""
    return TagEvent(OPEN, name=name, attrs={k.casefold(): v for k, v in attrs},
                    location=location)


def close_event(name, location=None) -> TagEvent:
    return TagEvent(CLOSE, name=name, location=location)


def chardata_event(text, location=None) -> TagEvent:
    return TagEvent(CHARDATA, text=text, location=location)


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
        if ev.kind is CHARDATA:
            parts.append(ev.text)
        elif ev.kind is OPEN:
            inner = " ".join([ev.name] + [_serialize_attr(k, v)
                                          for k, v in ev.attrs.items()])
            parts.append(f"<{inner}>")
        else:
            parts.append(f"</{ev.name}>")
    return "".join(parts)


class _Scanner:
    """The character-at-a-time scanner that ``tokenize_markup`` replaced,
    kept as its reference."""

    def __init__(self, text, source):
        self.text, self.source = text, source
        self.pos, self.line, self.column = 0, 1, 1

    def location(self):
        return Location(self.source, self.line, self.column)

    def eof(self):
        return self.pos >= len(self.text)

    def peek(self, offset=0):
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def advance(self, count=1):
        taken = self.text[self.pos : self.pos + count]
        for ch in taken:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += len(taken)
        return taken

    def skip_whitespace(self):
        while not self.eof() and self.peek().isspace():
            self.advance()

    def take_while(self, pred):
        start = self.pos
        while not self.eof() and pred(self.peek()):
            self.advance()
        return self.text[start : self.pos]


def _is_name_start(ch):
    return ch.isalpha() or ch == "_"


def _is_name_char(ch):
    return ch.isalnum() or ch in "_-."


def _scanner_open_tag(scanner, start):
    scanner.advance()
    name = scanner.take_while(_is_name_char)
    attrs, seen = [], set()
    while True:
        scanner.skip_whitespace()
        if scanner.eof():
            raise MarkupError(f"unterminated tag <{name}", location=start)
        ch = scanner.peek()
        if ch == ">":
            scanner.advance()
            return open_event(name, attrs, start)
        if ch == "/" and scanner.peek(1) == ">":
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
                scanner.advance()
            else:
                value = scanner.take_while(lambda c: not c.isspace() and c != ">")
        folded = key.casefold()
        if folded in seen:
            raise MarkupError(
                f"duplicate attribute '{key}' in tag <{name}>", location=start
            )
        seen.add(folded)
        attrs.append((key, value))


def _scanner_close_tag(scanner, start):
    scanner.advance(2)
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


def scanner_tokenize(text, source_id="<string>", keep_blank=False):
    """The reference tokenizer; it drops the CharData runs that
    ``str.strip`` leaves empty unless ``keep_blank`` is set."""
    scanner = _Scanner(text, source_id)
    events = []
    run_start, run_location = 0, scanner.location()

    def chardata(run, location):
        if keep_blank or run.strip():
            events.append(chardata_event(run, location))
    while not scanner.eof():
        nxt = scanner.peek(1)
        plausible = _is_name_start(nxt) or (
            nxt == "/" and _is_name_start(scanner.peek(2)))
        if scanner.peek() == "<" and plausible:
            if scanner.pos > run_start:
                chardata(text[run_start:scanner.pos], run_location)
            start = scanner.location()
            if nxt == "/":
                events.append(_scanner_close_tag(scanner, start))
            else:
                events.append(_scanner_open_tag(scanner, start))
            run_start, run_location = scanner.pos, scanner.location()
        else:
            scanner.advance()
    if scanner.pos > run_start:
        chardata(text[run_start:scanner.pos], run_location)
    return events


def payload_fields(value):
    """A payload as nested lists and tuples of its slotted fields."""
    slots = getattr(type(value), "__slots__", None)
    if slots:
        return (type(value).__name__,
                *(payload_fields(getattr(value, s)) for s in slots))
    if isinstance(value, (list, tuple)):
        return [payload_fields(v) for v in value]
    if isinstance(value, dict):
        return {k: payload_fields(v) for k, v in value.items()}
    return value
