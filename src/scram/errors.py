"""Exception hierarchy shared by all scram modules.

Every error carries a context, which only document activation sets (the
CLI renders ``scram: <context>: <message>``, the verb standing in for a
missing context), and, for document problems, a source location.
"""

from __future__ import annotations


class ScramError(Exception):
    """Base class for all operational errors raised by scram."""

    def __init__(self, message: str, *, location=None):
        super().__init__(message)
        self.message = message
        self.context: str | None = None
        self.location = location

    def __str__(self) -> str:
        parts = []
        if self.location is not None:
            parts.append(str(self.location))
        parts.append(self.message)
        return ": ".join(parts)


class MarkupError(ScramError):
    """Malformed document text, bad header, handler conflicts, failed splices."""


class UrlError(ScramError):
    """Unparseable URL or unknown scheme."""


class FetchError(UrlError):
    """A scheme adapter or the content cache failed to produce bytes."""


class DocTypeError(ScramError):
    """Document type activation failed: a type the reader does not accept,
    a stale version, a cycle."""


class ConfigError(ScramError):
    """Configuration or selection problem: bad architecture, unknown or
    ambiguous selection, malformed configuration entries."""


class ToolError(ScramError):
    """Tool document or resolution problem: unknown version, unresolvable
    client variable, dangling reference, missing external."""


class AreaError(ScramError):
    """Project area or registry problem: missing area, conflicting install,
    path escapes, lock contention."""
