"""Site description file: local key/value data for resource mapping.

Line-oriented ``key = value`` records; blank lines and ``#`` comments are
skipped. Well-known keys:

    tool.<name>.<VAR>   value for a tool's client variable
    search.libroots     path-list of directories probed for libraries
    scheme.cvs.command  checkout command template for the cvs/vcs scheme
    build.command       command run by ``scram build``

The file is ``$SCRAM_SITE``, else ``<dest>/site.cfg`` if it exists: one
file for every verb, as ``<dest>`` is the ``--dest`` of ``bootstrap`` and
``ProjectArea.install_root``, the parent of the central root, for the rest.
"""

from __future__ import annotations

import os

from .errors import AreaError
from .fsutil import read_text

SITE_ENV = "SCRAM_SITE"
SITE_BASENAME = "site.cfg"


class SiteInfo:
    def __init__(self, values: dict[str, str] | None = None):
        self.values = dict(values or {})

    @classmethod
    def load(cls, path: str, optional: bool = False) -> "SiteInfo":
        """The site file at ``path``; with ``optional``, a missing one is empty."""
        text = (read_text(path, "site file", missing="") if optional
                else read_text(path, "site file"))
        values: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq or not key.strip():
                raise AreaError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            values[key.strip()] = value.strip()
        return cls(values)

    @classmethod
    def locate(cls, env, install_root: str) -> "SiteInfo":
        """``$SCRAM_SITE``, else ``<install_root>/site.cfg`` if it exists."""
        if env.get(SITE_ENV):
            return cls.load(env[SITE_ENV])
        return cls.load(os.path.join(install_root, SITE_BASENAME), optional=True)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def tool_value(self, tool: str, var: str) -> str | None:
        return self.values.get(f"tool.{tool.casefold()}.{var}")

    def library_roots(self) -> list[str]:
        raw = self.values.get("search.libroots", "")
        return [p for p in raw.split(os.pathsep) if p]
