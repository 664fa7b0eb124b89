"""Reading document cache packs in tests, independently of the reader in
``scram.urlaccess``: a pack is the contents, then a JSON index, then a
footer of ``scram-pack-1 `` and the index's offset as 16 hex digits."""

import json
from pathlib import Path

MAGIC = b"scram-pack-1 "
FOOTER_LEN = len(MAGIC) + 16


def read_pack(path) -> tuple[dict, bytes]:
    """The index of the pack at ``path`` and the bytes before it."""
    data = Path(path).read_bytes()
    footer = data[-FOOTER_LEN:]
    assert footer.startswith(MAGIC), footer
    start = int(footer[len(MAGIC):], 16)
    return json.loads(data[start:-FOOTER_LEN]), data[:start]


def packs(cache_root) -> list[Path]:
    """The published packs below ``cache_root``, oldest name first."""
    return sorted((Path(cache_root) / "packs").glob("[!.]*.pack"))


def footer(start: int) -> bytes:
    return MAGIC + b"%016x" % start


def make_pack(contents: bytes, index: dict) -> bytes:
    """A pack of ``contents`` followed by ``index``, as given."""
    return contents + json.dumps(index).encode() + footer(len(contents))
