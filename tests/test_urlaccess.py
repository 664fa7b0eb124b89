import hashlib
import threading
import time
from pathlib import Path

import pytest

from scram.errors import FetchError, UrlError
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
        registry = SchemeRegistry().register("file", lambda u, v: open(u.authority, "rb").read())
        assert registry.retrieve(parse_url(f"file:{doc}"), None) == b"abc"

    def test_unknown_scheme(self):
        registry = default_registry()
        with pytest.raises(UrlError, match="gopher"):
            registry.retrieve(parse_url("gopher:hole"), None)

    def test_duplicate_registration(self):
        registry = SchemeRegistry().register("x", lambda u, v: b"")
        with pytest.raises(UrlError, match="already registered"):
            registry.register("X", lambda u, v: b"")

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


def counting_registry(payload=b"data-%s"):
    calls = []

    def adapter(url, version):
        calls.append((url.unparse(), version))
        return payload % url.get("n", "?").encode()

    registry = SchemeRegistry().register("stub", adapter)
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
        for content, entry in entries.values():
            with open(entry.content_path, "rb") as fh:
                on_disk = fh.read()
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
        _, entry = cache.fetch(url, "1.0")
        digest = hashlib.sha256(url.cache_key("1.0").encode()).hexdigest()
        expected = root / "stub" / digest[:2] / digest
        assert str(expected) == entry.content_path
        assert expected.exists()
        assert expected.with_name(expected.name + ".meta").exists()

    @pytest.mark.parametrize("sidecar", [
        None,  # lost
        "[1, 2]",
        "null",
        "{}",
        '{"fetched_at": 1.5',  # truncated
        '{"fetched_at": "now", "content_hash": "abc"}',
        '{"fetched_at": 1.5, "content_hash": 7}',
    ])
    def test_bad_sidecar_is_rebuilt_from_content(self, tmp_path, sidecar):
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        url = parse_url("stub:x?n=5")
        content, entry = cache.fetch(url, "1.0")
        meta = Path(entry.content_path + ".meta")
        if sidecar is None:
            meta.unlink()
        else:
            meta.write_text(sidecar)
        hit, rebuilt = cache.fetch(url, "1.0")
        assert hit == content
        assert rebuilt.content_hash == hashlib.sha256(content).hexdigest()
        assert len(calls) == 1

    def test_same_key_concurrent_fetches_serialize(self, tmp_path):
        slow_started = threading.Event()
        calls = []

        def slow_adapter(url, version):
            calls.append(version)
            slow_started.set()
            return b"slow"

        registry = SchemeRegistry().register("stub", slow_adapter)
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
            "registry = SchemeRegistry().register('stub', hang)\n"
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
