"""Event constructors and a serializer for markup tests: the serializer
carries the tokenizer's round-trip property (re-tokenizing what it writes
gives the events back)."""

from scram.errors import MarkupError
from scram.markup import CHARDATA, CLOSE, OPEN, TagEvent


def open_event(name, attrs=(), location=None) -> TagEvent:
    return TagEvent(OPEN, name=name, attrs=tuple(attrs), location=location)


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
            inner = " ".join([ev.name] + [_serialize_attr(k, v) for k, v in ev.attrs])
            parts.append(f"<{inner}>")
        else:
            parts.append(f"</{ev.name}>")
    return "".join(parts)
