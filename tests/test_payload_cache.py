"""Payloads in the document cache: a command that parses a tool document or
a configuration keeps the payload in its pack, keyed by the document's URL
and the SHA-256 of its bytes, with the URL, version and SHA-256 of every
document spliced into it. A later command serves it instead of parsing
when each of those documents still has its hash, and parses on any doubt.

The documents are those of the benchmark's seed-1 corpus
(``perfbench/corpus.py``, loaded by path) with 4 and 40 tools, and of the
toy project. A spy on ``tokenize_markup`` where ``activedoc`` bound it
tells a served payload from a parsed one."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from cachepacks import make_pack, packs, read_pack
from conftest import FIXTURES, make_toy_project
from eventhelpers import payload_fields
from scram import activedoc, urlaccess
from scram.activedoc import DocumentEngine
from scram.cli import main
from scram.configuration import CONFIGURATION
from scram.errors import AreaError
from scram.markup import PayloadCodec
from scram.sitefile import SiteInfo
from scram.tooldoc import TOOLDOC
from scram.urlaccess import COMPACT_ABOVE, SchemeRegistry, UrlCache, default_registry, parse_url
from test_payload_equivalence import load_corpus

corpus = load_corpus()


@pytest.fixture
def tokenized(monkeypatch) -> Counter:
    """The URLs of the documents that ``activedoc`` tokenizes, counted."""
    seen = Counter()
    real = activedoc.tokenize_markup

    def spy(text, source_id="<string>"):
        seen[source_id] += 1
        return real(text, source_id=source_id)

    monkeypatch.setattr(activedoc, "tokenize_markup", spy)
    return seen


def corpus_documents(root: Path, n: int) -> list[tuple[str, object]]:
    """The tool documents and the configuration of the seed-1 corpus of
    ``n`` tools, written under ``root``, each with its type."""
    generated = corpus.generate(1, n)
    generated.write(str(root))
    return ([(generated.tool_url(str(root), tool), TOOLDOC) for tool in generated.tools]
            + [(f"file:{root}/conf/site.conf", CONFIGURATION)])


def toy_documents(root: Path) -> list[tuple[str, object]]:
    root.mkdir()
    toy = make_toy_project(root)
    (toy.specs / "toolbox.conf").write_text((FIXTURES / "toolbox.conf").read_text())
    return ([(f"file:{toy.specs}/{name}.tooldoc", TOOLDOC)
             for name in ("sockets", "gcc", "htl", "boost")]
            + [(f"file:{toy.specs}/{name}", CONFIGURATION)
               for name in ("toy.conf", "toolbox.conf")])


def activate_all(cache_root: Path, documents) -> list:
    """The payload of each document, activated by one command."""
    engine = DocumentEngine(UrlCache(str(cache_root), default_registry(SiteInfo())))
    try:
        return [payload_fields(engine.activate(parse_url(url), (doc_type,)))
                for url, doc_type in documents]
    finally:
        engine.cache.publish()


@pytest.mark.parametrize("source", ["corpus, 4 tools", "corpus, 40 tools", "toy"])
def test_a_served_payload_equals_the_parsed_one(tmp_path, tokenized, source):
    if source == "toy":
        documents = toy_documents(tmp_path / "toy")
    else:
        documents = corpus_documents(tmp_path / "corpus", int(source.split()[1]))
    parsed = activate_all(tmp_path / "cache", documents)
    assert set(tokenized) >= {url for url, _ in documents}
    tokenized.clear()
    assert activate_all(tmp_path / "cache", documents) == parsed
    assert tokenized == {}
    # the codecs give every payload back through JSON, without the engine
    engine = DocumentEngine(UrlCache(str(tmp_path / "other"), default_registry(SiteInfo())))
    for url, doc_type in documents:
        payload = engine.activate(parse_url(url), (doc_type,))
        value = json.loads(json.dumps(doc_type.codec.encode(payload)))
        assert payload_fields(doc_type.codec.decode(value)) == payload_fields(payload), url


class Site:
    """A seed-1 corpus of 4 tools written under ``root``, and bootstraps of
    it, each into a new destination."""

    def __init__(self, root: Path, n: int = 4):
        self.root = root
        self.generated = corpus.generate(1, n)
        self.croot = root / "corpus"
        self.generated.write(str(self.croot))
        self.env = {"PATH": "/usr/bin:/bin", "HOME": str(root), "SCRAM_ARCH": corpus.ARCH,
                    "SCRAM_SITE": str(self.croot / "site.cfg"),
                    "SCRAM_CACHE": str(root / "cache"),
                    "SCRAM_LOOKUPDB": str(root / "scramdb")}

    def bootstrap(self, dest: str, *flags, cache: str = "cache") -> dict[str, bytes]:
        """Bootstrap into ``dest`` with the cache ``cache`` and the global
        ``flags``, which must succeed; every file of the new area, by
        relative path."""
        (self.root / dest).mkdir()
        env = dict(self.env, SCRAM_CACHE=str(self.root / cache))
        assert main([*flags, "bootstrap", self.generated.bootstrap_url(str(self.croot)),
                     "--dest", str(self.root / dest)],
                    env=env, cwd=str(self.root)) == 0
        area = self.root / dest / corpus.AREA_NAME
        return {str(path.relative_to(area)): path.read_bytes()
                for path in sorted(area.rglob("*")) if path.is_file()}

    @property
    def inlining(self) -> list:
        """The tools that inline the fragment; one at 4 tools."""
        return [tool for tool in self.generated.tools if tool.inline]


def test_a_warm_bootstrap_writes_the_cold_one_s_area(tmp_path, tokenized, capsys):
    site = Site(tmp_path, 40)
    cold = site.bootstrap("cold")
    tokenized.clear()
    warm = site.bootstrap("warm")
    assert warm == cold
    assert any(path.startswith(".SCRAM/") for path in warm)
    # the bootstrap document and the requirements, and nothing else
    assert sorted(tokenized) == [f"file:{site.croot}/proj.boot", f"file:{site.croot}/proj.reqs"]
    assert "Traceback" not in capsys.readouterr().err


def rewrite_payloads(cache_root: Path, change, rehash: bool) -> int:
    """Rewrite the bytes of every payload in the packs under ``cache_root``
    with ``change``; with ``rehash`` their index hashes follow. Returns the
    number of payloads rewritten."""
    rewritten = 0
    for path in packs(cache_root):
        index, data = read_pack(path)
        contents, new_index = b"", {}
        for key, (offset, length, content_hash, fetched_at) in index.items():
            entry = data[offset:offset + length]
            if json.loads(key)[0] == "payload":
                entry = change(entry)
                rewritten += 1
                if rehash:
                    content_hash = hashlib.sha256(entry).hexdigest()
            new_index[key] = [len(contents), len(entry), content_hash, fetched_at]
            contents += entry
        path.write_bytes(make_pack(contents, new_index))
    return rewritten


def flip_a_byte(entry: bytes) -> bytes:
    middle = len(entry) // 2
    return entry[:middle] + bytes([entry[middle] ^ 0x20]) + entry[middle + 1:]


def another_shape(entry: bytes) -> bytes:
    doc_type, version, recorded, _ = json.loads(entry)
    return json.dumps([doc_type, version, recorded, {"not": "a payload"}]).encode()


class TestEveryDoubtIsAMiss:
    """A payload that cannot be trusted is parsed again, and the bootstrap
    writes what a bootstrap with an empty cache writes, with no traceback."""

    def test_a_fragment_changed_under_refresh(self, tmp_path, tokenized, capsys):
        site = Site(tmp_path)
        site.bootstrap("cold")
        frag = site.croot / "tools" / "common.frag"
        frag.write_text(frag.read_text().replace("policy-1", "policy-changed"))
        tokenized.clear()
        refreshed = site.bootstrap("refreshed", "--refresh")
        # only the tools that inline the fragment are parsed again
        tools = {f"file:{site.croot}/tools/{tool.doc}" for tool in site.inlining}
        assert tools and set(tokenized) == tools | {
            f"file:{site.croot}/proj.boot", f"file:{site.croot}/proj.reqs",
            f"file:{site.croot}/tools/common.frag"}
        assert refreshed == site.bootstrap("fresh", cache="fresh-cache")
        assert b"policy-changed" in b"".join(refreshed.values())
        # and from then on their new payloads are served
        tokenized.clear()
        assert site.bootstrap("after") == refreshed
        assert len(tokenized) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("change, rehash", [(flip_a_byte, False),
                                                (another_shape, True)])
    def test_a_payload_rewritten_in_its_pack(self, tmp_path, tokenized, capsys,
                                             change, rehash):
        site = Site(tmp_path)
        cold = site.bootstrap("cold")
        # the configuration and the four tool documents
        assert rewrite_payloads(tmp_path / "cache", change, rehash) == 5
        tokenized.clear()
        assert site.bootstrap("warm") == cold
        # the bootstrap, the requirements, the configuration, the four
        # tool documents and the fragment
        assert len(tokenized) == 8
        assert "Traceback" not in capsys.readouterr().err

    def test_another_format_tag(self, tmp_path, tokenized, capsys, monkeypatch):
        site = Site(tmp_path)
        cold = site.bootstrap("cold")
        codec = TOOLDOC.codec
        monkeypatch.setattr(TOOLDOC, "codec",
                            PayloadCodec("tooldoc-other", codec.encode, codec.decode))
        tokenized.clear()
        assert site.bootstrap("warm") == cold
        # the bootstrap, the requirements, the four tool documents and the
        # fragment
        assert len(tokenized) == 7
        assert "Traceback" not in capsys.readouterr().err


def test_payloads_survive_a_compaction_of_17_packs(tmp_path, tokenized):
    site = Site(tmp_path)
    cold = site.bootstrap("cold")
    registry = SchemeRegistry({"stub": lambda url, version: url.authority.encode()})
    for n in range(COMPACT_ABOVE):
        cache = UrlCache(str(tmp_path / "cache"), registry)
        cache.fetch(parse_url(f"stub:item{n}"))
        cache.publish()
    (merged,) = packs(tmp_path / "cache")
    index, _ = read_pack(merged)
    assert sum(json.loads(key)[0] == "payload" for key in index) == 5
    tokenized.clear()
    assert site.bootstrap("warm") == cold
    assert len(tokenized) == 2


def test_no_payload_is_served_for_the_same_bytes_at_another_url(tmp_path, tokenized):
    """The same tool document in two directories inlines each directory's
    own fragment, so each URL has its own payload."""
    text = ("<doc type=BuildSystem::ToolDoc version=1.0>\n"
            "<Tool name=t version=1>\n<inline url=frag>\n</Tool>\n")
    urls = []
    for place in ("one", "two"):
        (tmp_path / place).mkdir()
        (tmp_path / place / "t.tooldoc").write_text(text)
        (tmp_path / place / "frag").write_text(f"<Environment name=WHERE value={place}>\n")
        urls.append(f"file:{tmp_path}/{place}/t.tooldoc")
    values = []
    for url in urls:
        tokenized.clear()
        engine = DocumentEngine(UrlCache(str(tmp_path / "cache"),
                                         default_registry(SiteInfo())))
        spec = engine.activate(parse_url(url), (TOOLDOC,))
        engine.cache.publish()
        assert tokenized[url] == 1
        values.append([(decl.name, decl.value) for decl in spec.blocks[0].variables])
    assert values == [[("WHERE", "one")], [("WHERE", "two")]]


def test_a_caller_accepting_several_types_is_never_served(tmp_path, tokenized):
    """Only a caller that accepts one type is served a payload: another
    caller parses to learn which type the document is."""
    (url, _), = [doc for doc in toy_documents(tmp_path / "toy")
                 if doc[0].endswith("toy.conf")]
    for _ in range(2):
        engine = DocumentEngine(UrlCache(str(tmp_path / "cache"),
                                         default_registry(SiteInfo())))
        engine.activate(parse_url(url), (CONFIGURATION, TOOLDOC))
        engine.cache.publish()
    assert tokenized[url] == 2


def test_a_cache_this_command_cannot_write_keeps_no_payload(tmp_path, tokenized,
                                                             monkeypatch):
    """A cache filled by an older scram holds documents and no payloads. A
    command that may read it but not write to it parses and goes on."""
    (url, doc_type), = [doc for doc in toy_documents(tmp_path / "toy")
                        if doc[0].endswith("htl.tooldoc")]
    data = Path(parse_url(url).authority).read_bytes()
    (tmp_path / "cache" / "packs").mkdir(parents=True)
    (tmp_path / "cache" / "packs" / "1.1.00000000.pack").write_bytes(make_pack(
        data, {parse_url(url).cache_key(): [0, len(data), hashlib.sha256(data).hexdigest(), 1]}))

    def unwritable(target):
        raise AreaError(f"cannot write {target}: Read-only file system")

    parsed = activate_all(tmp_path / "other", [(url, doc_type)])
    tokenized.clear()
    monkeypatch.setattr(urlaccess, "PrivateFile", unwritable)
    assert activate_all(tmp_path / "cache", [(url, doc_type)]) == parsed
    assert tokenized[url] == 1
