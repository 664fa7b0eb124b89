import hashlib
import json
import sys
import threading
import time
from http.server import HTTPServer, SimpleHTTPRequestHandler
from pathlib import Path

import pytest

from scram import urlaccess
from scram.cli import main
from scram.errors import FetchError, UrlError
from scram.fsutil import locked
from scram.urlaccess import (
    HEAD,
    SchemeRegistry,
    UrlCache,
    default_registry,
    external_command_adapter,
    parse_url,
)


class TestParseUrl:
    def test_cvs_module_query(self):
        url = parse_url("cvs:?module=SCRAMToolBox/CXX/gcc3")
        assert url.scheme == "cvs"
        assert url.authority == ""
        assert url.query == (("module", "SCRAMToolBox/CXX/gcc3"),)

    def test_plain_file_url(self):
        url = parse_url("file:/tmp/x.doc")
        assert url.scheme == "file"
        assert url.authority == "/tmp/x.doc"
        assert url.query == ()

    def test_authority_form_with_identity_and_version(self):
        url = parse_url("cvs://cmscvs.cern.ch/.../SCRAMToolBox?auth=pw&user=me&version=CMS_68_2")
        assert url.scheme == "cvs"
        assert url.authority == "cmscvs.cern.ch/.../SCRAMToolBox"
        assert dict(url.query) == {"auth": "pw", "user": "me", "version": "CMS_68_2"}

    def test_wrapped_url_whitespace_is_discarded(self):
        raw = 'cvs://cmscvs.cern.ch/.../SCRAMToolBox\n       ?auth=...&user=...&version=CMS_68_2'
        url = parse_url(raw)
        assert url.authority == "cmscvs.cern.ch/.../SCRAMToolBox"
        assert url.get("version") == "CMS_68_2"

    def test_no_scheme_and_no_base_errors(self):
        with pytest.raises(UrlError, match="no scheme"):
            parse_url("just/a/path")

    def test_scheme_relative_inherits_from_base(self):
        base = parse_url("cvs://host/root?auth=a&user=u&version=V1")
        url = parse_url("cvs:?module=M", base=base)
        assert url.authority == "host/root"
        assert dict(url.query) == {"auth": "a", "user": "u", "version": "V1", "module": "M"}

    def test_own_query_keys_win_over_base_defaults(self):
        base = parse_url("cvs://host/root?version=V1")
        url = parse_url("cvs:?module=M&version=V2", base=base)
        assert url.get("version") == "V2"

    def test_relative_path_joins_directory_base(self):
        base = parse_url("file:/tmp/specs/")
        url = parse_url("boost.tooldoc", base=base)
        assert url.scheme == "file"
        assert url.authority == "/tmp/specs/boost.tooldoc"

    def test_relative_path_replaces_document_base_segment(self):
        # a base naming a document resolves siblings next to it
        base = parse_url("file:/tmp/specs/outer.doc")
        assert parse_url("inner.doc", base=base).authority == "/tmp/specs/inner.doc"

    def test_relative_reference_prints_resolved_form(self):
        base = parse_url("file:/tmp/specs/outer.doc")
        assert str(parse_url("sub/inner.doc", base=base)) == "file:/tmp/specs/sub/inner.doc"
        assert str(parse_url("cvs:?module=M", base=parse_url("cvs://host/root"))) == (
            "cvs:host/root?module=M")

    def test_absolute_reference_prints_as_written(self):
        base = parse_url("file:/tmp/specs/outer.doc")
        assert str(parse_url("file:///opt/x.doc", base=base)) == "file:///opt/x.doc"
        assert str(parse_url("http://h/x.doc", base=base)) == "http://h/x.doc"

    def test_different_scheme_ignores_base(self):
        base = parse_url("file:/tmp/specs")
        url = parse_url("cvs:?module=M", base=base)
        assert url.authority == ""

    def test_round_trip_components(self):
        raw = "cvs://host/a/b?module=m&version=v"
        url = parse_url(raw)
        again = parse_url(url.unparse())
        assert (again.scheme, again.authority, again.query) == (
            url.scheme, url.authority, url.query)

    def test_version_tag_precedence(self):
        url = parse_url("cvs:?module=M&version=Q")
        assert url.version_tag("EXPLICIT") == "EXPLICIT"
        assert url.version_tag() == "Q"
        assert parse_url("cvs:?module=M").version_tag() == HEAD


class TestSchemeRegistry:
    def test_file_passthrough(self, tmp_path):
        doc = tmp_path / "f.txt"
        doc.write_text("abc")
        registry = SchemeRegistry({"file": lambda u, v: open(u.authority, "rb").read()})
        assert registry.retrieve(parse_url(f"file:{doc}"), None) == b"abc"

    @pytest.mark.parametrize("name, reason", [("missing", "No such file or directory"),
                                              ("", "Is a directory")])
    def test_unreadable_file_is_named_once(self, tmp_path, name, reason):
        path = tmp_path / name
        with pytest.raises(FetchError) as exc:
            default_registry().retrieve(parse_url(f"file:{path}"), None)
        assert str(exc.value) == f"cannot read {path}: {reason}"

    def test_unknown_scheme(self):
        registry = default_registry()
        with pytest.raises(UrlError) as exc:
            registry.retrieve(parse_url("GOPHER:hole"), None)
        assert str(exc.value) == (
            "unknown URL scheme 'gopher' (registered: cvs, file, http, https, vcs)")

    def test_vcs_is_alias_for_cvs(self, tmp_path):
        site = {"scheme.cvs.command": "true"}
        registry = default_registry(site)
        assert registry.adapter_for("vcs") is registry.adapter_for("cvs")

    def test_external_command_stub_sees_module_and_version(self):
        # stub echoes its arguments; compare against its known output
        adapter = external_command_adapter(
            "python3 -c \"import sys;print('|'.join(sys.argv[1:]))\" {module} {version}"
        )
        out = adapter(parse_url("cvs:?module=SCRAMToolBox/CXX/gcc3"), "3.2")
        assert out.strip() == b"SCRAMToolBox/CXX/gcc3|3.2"

    def test_external_command_out_file_contract(self):
        adapter = external_command_adapter(
            "python3 -c \"import sys,pathlib;pathlib.Path(sys.argv[2]).write_text(sys.argv[1])\""
            " {module} {out}"
        )
        out = adapter(parse_url("cvs:?module=M"), "1.0")
        assert out == b"M"

    def test_external_command_failure_has_url(self):
        adapter = external_command_adapter("python3 -c \"import sys;sys.exit(3)\"")
        with pytest.raises(FetchError, match="exited 3"):
            adapter(parse_url("cvs:?module=M"), None)

    def test_unconfigured_cvs_explains_site_key(self):
        registry = default_registry()
        with pytest.raises(FetchError, match="scheme.cvs.command"):
            registry.retrieve(parse_url("cvs:?module=M"), "1.0")


def read_entry(path):
    """The header and content of the cache entry file at ``path``."""
    header, _, content = Path(path).read_bytes().partition(b"\n")
    return json.loads(header), content


def counting_registry(payload=b"data-%s"):
    calls = []

    def adapter(url, version):
        calls.append((url.unparse(), version))
        return payload % url.get("n", "?").encode()

    registry = SchemeRegistry({"stub": adapter})
    return registry, calls


class TestUrlCache:
    def test_versioned_fetch_hits_adapter_once(self, tmp_path):
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path / "cache"), registry)
        url = parse_url("stub:thing?n=1")
        first, _ = cache.fetch(url, "1.0")
        second, _ = cache.fetch(url, "1.0")
        assert first == second
        assert len(calls) == 1
        assert cache.stats.adapter_calls == 1
        assert cache.stats.hits == 1

    def test_refresh_forces_head_refetch(self, tmp_path):
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        url = parse_url("stub:thing?n=2")
        cache.fetch(url)
        cache.fetch(url)
        assert len(calls) == 1
        cache.fetch(url, refresh=True)
        assert len(calls) == 2

    def test_refresh_does_not_touch_versioned_entries(self, tmp_path):
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        url = parse_url("stub:thing?n=3")
        cache.fetch(url, "2.0")
        cache.fetch(url, "2.0", refresh=True)
        assert len(calls) == 1

    def test_hundred_distinct_keys_hash_stable(self, tmp_path):
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        entries = {}
        for i in range(50):
            for version in ("1.0", "2.0"):
                url = parse_url(f"stub:item?n={i}")
                content, entry = cache.fetch(url, version)
                entries[entry.key] = (content, entry)
        assert len(entries) == 100
        assert len(calls) == 100
        assert len(list((tmp_path / "stub").iterdir())) == 100
        for content, entry in entries.values():
            header, on_disk = read_entry(entry.path)
            assert header["key"] == entry.key
            assert header["content_hash"] == entry.content_hash
            assert hashlib.sha256(on_disk).hexdigest() == entry.content_hash
            assert on_disk == content

    def test_query_order_does_not_fragment_cache(self, tmp_path):
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        cache.fetch(parse_url("stub:x?n=1&b=2"), "1.0")
        cache.fetch(parse_url("stub:x?b=2&n=1"), "1.0")
        assert len(calls) == 1

    def test_identity_params_excluded_from_key(self, tmp_path):
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        cache.fetch(parse_url("stub:x?n=1&auth=alice&user=alice"), "1.0")
        cache.fetch(parse_url("stub:x?n=1&auth=bob&user=bob"), "1.0")
        assert len(calls) == 1

    def test_cache_layout(self, tmp_path):
        registry, _ = counting_registry()
        root = tmp_path / "c"
        cache = UrlCache(str(root), registry)
        url = parse_url("stub:x?n=1")
        before = time.time()
        _, entry = cache.fetch(url, "1.0")
        digest = hashlib.sha256(url.cache_key("1.0").encode()).hexdigest()
        expected = root / "stub" / digest
        assert str(expected) == entry.path
        assert sorted(str(p.relative_to(root)) for p in root.rglob("*")) == [
            "stub", f"stub/{digest}"]
        header, content = read_entry(expected)
        assert header == {"url": "stub:x?n=1", "key": url.cache_key("1.0"),
                          "fetched_at": entry.fetched_at,
                          "content_hash": hashlib.sha256(b"data-1").hexdigest()}
        assert before <= entry.fetched_at <= time.time()
        assert content == b"data-1"

    @pytest.mark.parametrize("header", [
        None,  # lost: the content alone
        "[1, 2]",
        "null",
        "{}",
        '{"fetched_at": 1.5',
        '{"fetched_at": "now", "content_hash": "abc"}',
        '{"fetched_at": 1.5, "content_hash": 7}',
        "",
        "empty file",
        "another key",
    ], ids=["lost", "list", "null", "empty object", "truncated", "wrong types",
            "hash not a string", "empty line", "empty file", "another key"])
    def test_bad_header_is_refetched_once_under_the_lock(self, tmp_path,
                                                         monkeypatch, header):
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        url = parse_url("stub:x?n=5")
        content, entry = cache.fetch(url, "1.0")
        path = Path(entry.path)
        if header is None:
            path.write_bytes(content)
        elif header == "empty file":
            path.write_bytes(b"")
        elif header == "another key":
            meta = dict(read_entry(path)[0], key=url.cache_key("2.0"))
            path.write_bytes(json.dumps(meta).encode() + b"\n" + content)
        else:
            path.write_bytes(header.encode() + b"\n" + content)
        held = []

        def spy(path, *args, real=urlaccess.locked, **kwargs):
            held.append(path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(urlaccess, "locked", spy)
        again, refetched = cache.fetch(url, "1.0")
        assert held == [entry.path]
        assert again == content
        assert refetched.content_hash == hashlib.sha256(content).hexdigest()
        assert (len(calls), cache.stats.misses, cache.stats.hits) == (2, 2, 0)
        assert read_entry(path)[1] == content
        assert cache.fetch(url, "1.0")[0] == content
        assert (len(calls), cache.stats.hits) == (2, 1)

    @pytest.mark.parametrize("version", ["1.0", None])
    def test_damaged_entry_is_refetched_once(self, tmp_path, version):
        registry, calls = counting_registry(b"full content of %s")
        cache = UrlCache(str(tmp_path), registry)
        url = parse_url("stub:x?n=6")
        content, entry = cache.fetch(url, version)
        path = Path(entry.path)
        path.write_bytes(path.read_bytes()[:-4])  # truncated
        again, repaired = cache.fetch(url, version)
        assert again == content == b"full content of 6"
        assert (cache.stats.misses, cache.stats.hits, len(calls)) == (2, 0, 2)
        assert read_entry(path)[1] == content
        assert repaired.content_hash == hashlib.sha256(content).hexdigest()
        assert cache.fetch(url, version)[0] == content
        assert (cache.stats.misses, cache.stats.hits, len(calls)) == (2, 1, 2)

    def test_hit_takes_no_lock(self, tmp_path):
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        url = parse_url("stub:x?n=7")
        content, entry = cache.fetch(url, "1.0")
        served = []
        worker = threading.Thread(target=lambda: served.append(cache.fetch(url, "1.0")[0]))
        with locked(entry.path, wait=True):
            worker.start()
            worker.join(timeout=5)
            assert served == [content]
        assert len(calls) == 1

    def test_lock_free_readers_never_serve_a_torn_refresh(self, tmp_path):
        versions = iter(range(10**6))

        def adapter(url, version):
            return b"%06d" % next(versions) * 2000

        cache = UrlCache(str(tmp_path), SchemeRegistry({"stub": adapter}))
        url = parse_url("stub:head")
        cache.fetch(url)
        served, writer_done = [], threading.Event()

        def write():
            for _ in range(40):
                cache.fetch(url, refresh=True)
            writer_done.set()

        def read():
            while not writer_done.is_set():
                served.append(cache.fetch(url))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert served
        for content, entry in served:
            assert content == content[:6] * 2000
            assert entry.content_hash == hashlib.sha256(content).hexdigest()
        assert cache.stats.adapter_calls == 41

    def test_same_key_concurrent_fetches_serialize(self, tmp_path):
        slow_started = threading.Event()
        calls = []

        def slow_adapter(url, version):
            calls.append(version)
            slow_started.set()
            return b"slow"

        registry = SchemeRegistry({"stub": slow_adapter})
        cache = UrlCache(str(tmp_path), registry)
        url = parse_url("stub:one")
        results = []

        def worker():
            content, _ = cache.fetch(url, "1.0")
            results.append(content)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [b"slow"] * 8
        assert len(calls) == 1

    def test_entry_lock_of_killed_fetcher_is_free(self, tmp_path, kill_when_held):
        kill_when_held(
            "import time\n"
            "from scram.urlaccess import SchemeRegistry, UrlCache, parse_url\n"
            "def hang(url, version):\n"
            "    print('held', flush=True)\n"
            "    time.sleep(60)\n"
            "registry = SchemeRegistry({'stub': hang})\n"
            f"UrlCache({str(tmp_path)!r}, registry).fetch(parse_url('stub:one'), '1.0')\n")
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        start = time.monotonic()
        content, _ = cache.fetch(parse_url("stub:one"), "1.0")
        assert time.monotonic() - start < 2
        assert content == b"data-?"
        assert len(calls) == 1

    def test_adapter_opacity(self, tmp_path):
        # hit and miss return identical shapes; only the counters differ
        registry, _ = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        url = parse_url("stub:x?n=9")
        miss = cache.fetch(url, "1.0")
        hit = cache.fetch(url, "1.0")
        assert miss[0] == hit[0]
        assert miss[1].key == hit[1].key
        assert miss[1].content_hash == hit[1].content_hash


@pytest.fixture
def http_root(tmp_path, monkeypatch):
    """A loopback HTTP server, in a thread, over a fresh directory: yields
    the directory, the server's base URL and the paths requested so far."""
    for name in ("http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("no_proxy", "*")
    root = tmp_path / "served"
    root.mkdir()
    requested = []

    class Handler(SimpleHTTPRequestHandler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, directory=str(root), **kwargs)

        def do_GET(self):
            requested.append(self.path)
            super().do_GET()

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,))
    thread.start()
    try:
        yield root, f"http://127.0.0.1:{server.server_port}", requested
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


class TestFetchHttp:
    def test_a_200_is_served_once_then_from_the_cache(self, tmp_path, http_root):
        root, base, requested = http_root
        (root / "doc").write_bytes(b"served")
        cache = UrlCache(str(tmp_path / "cache"), default_registry())
        url = parse_url(f"{base}/doc?version=1")
        assert cache.fetch(url)[0] == b"served"
        assert cache.fetch(url)[0] == b"served"
        assert requested == ["/doc?version=1"]
        assert cache.stats.adapter_calls == 1

    def test_a_404_names_the_url(self, tmp_path, http_root):
        _, base, requested = http_root
        cache = UrlCache(str(tmp_path / "cache"), default_registry())
        with pytest.raises(FetchError, match="404") as exc:
            cache.fetch(parse_url(f"{base}/missing.doc"))
        assert f"{base}/missing.doc" in str(exc.value)
        assert requested == ["/missing.doc"]

    def test_bootstrap_downloads_relative_to_an_http_document(self, toy, http_root,
                                                                capsys):
        root, base, requested = http_root
        (root / "README.src").write_text("served sources\n")
        (root / "toy.boot").write_text(
            "<doc type=BuildSystem::BootStrapDoc version=1.0>\n"
            "<project name=ORCA version=7_1_3>\n"
            '<download url="README.src" to="src/README">\n'
            f'<config url="file:{toy.specs}/toy.reqs">\n')
        argv = ["bootstrap", f"{base}/toy.boot", "--dest", str(toy.install_root)]
        assert main(argv, env=toy.env, cwd=str(toy.root)) == 0, capsys.readouterr().err
        assert (toy.central_root / "src" / "README").read_text() == "served sources\n"
        assert requested == ["/toy.boot", "/README.src"]
