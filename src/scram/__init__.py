"""scram: configuration management, installation, and developer workspaces.

Typed markup documents describe products and configurations; scram resolves
architecture-scoped selections into consistent tool sets, installs central
project areas, links lightweight developer areas to them, and emits
rollback-correct runtime environments for sh and csh.

``scram runtime`` is evaluated on every change of area, so a command must
pay only for its own work. Four rules keep it so:

- No data classes (PEP 557) in the package: importing their module pulls
  in ``inspect``, and each decorated class costs a code generation pass at
  import. Classes are plain ``__slots__`` classes with an explicit
  ``__init__`` and only the dunders something uses.
- Stdlib modules used only to fetch, hash or build (``subprocess``,
  ``shlex``, ``tempfile``, ``hashlib``, ``platform``, ``urllib.request``)
  are imported inside the function that uses them.
- ``argparse`` (and the ``gettext`` it imports) is imported only for help,
  version output and usage errors: ``cli.parse_canonical`` reads the
  canonical argv of every verb, and ``cli.argparse_parser`` is the
  reference grammar for everything else.
- A command run from the console ends with ``os._exit`` once standard
  output and standard error are flushed, skipping the interpreter's
  teardown. Every state file is published by a rename and every lock is
  an ``flock``, so nothing is left to clean up; no module registers an
  ``atexit`` handler.

``tests/test_cli.py`` holds the import rules for ``import scram.cli`` and
for the read-only verbs.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AreaError,
    ConfigError,
    DocTypeError,
    FetchError,
    MarkupError,
    ScramError,
    ToolError,
    UrlError,
)
