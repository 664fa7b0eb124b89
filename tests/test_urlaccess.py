import hashlib
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from http.server import HTTPServer, SimpleHTTPRequestHandler

import pytest
from hypothesis import example, given, strategies as st

import scram.urlaccess
from scram.cli import main
from scram.errors import AreaError, FetchError, UrlError
from scram.fsutil import locked
from scram.sitefile import SiteInfo
from scram.urlaccess import (
    COMPACT_ABOVE,
    HEAD,
    SchemeRegistry,
    UrlCache,
    default_registry,
    external_command_adapter,
    parse_url,
)

from cachepacks import footer, make_pack, packs, read_pack


# text made of the pieces of a URL
URL_TEXT = st.lists(st.sampled_from(
    ["file:", "cvs:", "http:", "/", "//", "h", "a.doc", ".", ":", "?", "&", "=",
     "#", "module=m", "version=v", " "]), max_size=12).map("".join)


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

    def test_authority_with_leading_slashes_prints_its_own(self):
        url = parse_url("a.tooldoc", base=parse_url("file:////srv/tools/"))
        assert url.authority == "//srv/tools/a.tooldoc"
        assert str(url) == "file:////srv/tools/a.tooldoc"

    def test_named_host_is_not_joined_to_the_base_path(self):
        url = parse_url("http://h2/tools/a.tooldoc", base=parse_url("http://h/conf/c.conf"))
        assert (url.authority, str(url)) == ("h2/tools/a.tooldoc", "http://h2/tools/a.tooldoc")
        url = parse_url("cvs://h2/x?module=m", base=parse_url("cvs://h/root/?version=v"))
        assert url.authority == "h2/x"
        assert url.query == (("version", "v"), ("module", "m"))

    def test_inherited_query_keys_print(self):
        # an absolute same-scheme URL still takes the base's query defaults
        url = parse_url("cvs:/x?module=m", base=parse_url("cvs:/d/?version=v"))
        assert str(url) == "cvs:/x?version=v&module=m"

    @given(ref=URL_TEXT, base=st.none() | URL_TEXT)
    @example(ref="a.tooldoc", base="file:////srv/tools/")
    @example(ref="cvs:/x?module=m", base="cvs:/d/?version=v")
    @example(ref="cvs://h2/x", base="cvs://h/?version=v")
    def test_printed_url_parses_back_to_itself(self, ref, base):
        # a pin stores str() of its resolved URL and is parsed from it later
        try:
            url = parse_url(ref, base=None if base is None else parse_url(base))
        except UrlError:
            return
        again = parse_url(str(url))
        assert (again.scheme, again.authority, again.query, again.fragment) == (
            url.scheme, url.authority, url.query, url.fragment)

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
            default_registry(SiteInfo()).retrieve(parse_url(f"file:{path}"), None)
        assert str(exc.value) == f"cannot read {path}: {reason}"

    def test_unknown_scheme(self):
        registry = default_registry(SiteInfo())
        with pytest.raises(UrlError) as exc:
            registry.retrieve(parse_url("GOPHER:hole"), None)
        assert str(exc.value) == (
            "unknown URL scheme 'gopher' in GOPHER:hole "
            "(registered: cvs, file, http, https, vcs)")

    def test_vcs_is_alias_for_cvs(self, tmp_path):
        site = {"scheme.cvs.command": "true"}
        registry = default_registry(site)
        assert registry.adapter_for(parse_url("vcs:m")) is \
            registry.adapter_for(parse_url("cvs:m"))

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
        registry = default_registry(SiteInfo())
        with pytest.raises(FetchError, match="scheme.cvs.command"):
            registry.retrieve(parse_url("cvs:?module=M"), "1.0")


def counting_registry(payload=b"data-%s"):
    calls = []

    def adapter(url, version):
        calls.append((url.unparse(), version))
        return payload % url.get("n", "?").encode()

    registry = SchemeRegistry({"stub": adapter})
    return registry, calls


def no_fetch_registry():
    def adapter(url, version):
        raise AssertionError(f"unexpected fetch of {url} {version}")

    return SchemeRegistry({"stub": adapter})


def one_command(root, url, version=None, refresh=False, registry=None) -> bytes:
    """What one command does with the cache: fetch, then publish."""
    cache = UrlCache(str(root), registry or counting_registry()[0], refresh)
    try:
        return cache.fetch(url, version)[0]
    finally:
        cache.publish()


# the private name of a pack while its command writes it
TEMP_PACK = r"\.[0-9]+\.[0-9]+\.[0-9a-f]{8}\.pack\.[0-9a-f]{8}\.tmp"


def item(n):
    return parse_url(f"stub:item?n={n}")


class TestUrlCache:
    @pytest.mark.parametrize("given, reason", [
        ("new/cache", None),
        ("plain", "Not a directory"),
        ("plain/cache", "Not a directory"),
        ("link", "{link} is a dangling symlink"),
        ("link/cache", "{link} is a dangling symlink"),
    ])
    def test_opening_makes_the_packs_directory_or_fails_once(self, tmp_path, given,
                                                             reason):
        (tmp_path / "plain").write_text("")
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "nowhere")
        root = tmp_path / given
        if reason is None:
            UrlCache(str(root), no_fetch_registry())
            assert os.listdir(root) == ["packs"]
        else:
            with pytest.raises(AreaError, match="^" + re.escape(
                    f"cannot use cache {root}: {reason.format(link=link)}") + "$"):
                UrlCache(str(root), no_fetch_registry())
        assert not (tmp_path / "nowhere").exists()

    def test_versioned_fetch_hits_adapter_once(self, tmp_path):
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path / "cache"), registry)
        url = parse_url("stub:thing?n=1")
        first = cache.fetch(url, "1.0")[0]
        second = cache.fetch(url, "1.0")[0]
        cache.publish()
        third = cache.fetch(url, "1.0")[0]
        assert first == second == third == b"data-1"
        assert len(calls) == 1
        assert (cache.stats.misses, cache.stats.hits) == (1, 2)

    def test_refresh_forces_head_refetch(self, tmp_path):
        registry, calls = counting_registry()
        url = parse_url("stub:thing?n=2")
        one_command(tmp_path, url, registry=registry)
        one_command(tmp_path, url, registry=registry)
        assert len(calls) == 1
        cache = UrlCache(str(tmp_path), registry, refresh=True)
        assert cache.fetch(url)[0] == cache.fetch(url)[0] == b"data-2"
        cache.publish()
        assert len(calls) == 2
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_refresh_does_not_touch_versioned_entries(self, tmp_path):
        registry, calls = counting_registry()
        url = parse_url("stub:thing?n=3")
        one_command(tmp_path, url, "2.0", registry=registry)
        one_command(tmp_path, url, "2.0", refresh=True, registry=registry)
        assert len(calls) == 1

    def test_hundred_distinct_keys_hash_stable(self, tmp_path):
        registry, calls = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        fetched = {}
        for i in range(50):
            for version in ("1.0", "2.0"):
                fetched[item(i).cache_key(version)] = cache.fetch(item(i), version)
        cache.publish()
        assert len(fetched) == 100
        assert len(calls) == 100
        (pack,) = packs(tmp_path)
        index, contents = read_pack(pack)
        assert index.keys() == fetched.keys()
        for key, (offset, length, content_hash, _) in index.items():
            on_disk = contents[offset:offset + length]
            assert hashlib.sha256(on_disk).hexdigest() == content_hash
            assert (on_disk, content_hash) == fetched[key]
        again = UrlCache(str(tmp_path), no_fetch_registry())
        for i in range(50):
            for version in ("1.0", "2.0"):
                assert again.fetch(item(i), version) == fetched[item(i).cache_key(version)]
        assert again.stats.hits == 100

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
        cache.fetch(url, "1.0")
        (private,) = os.listdir(root / "packs")
        name = re.fullmatch(
            rf"\.([0-9]+\.{os.getpid()}\.[0-9a-f]{{8}}\.pack)\.[0-9a-f]{{8}}\.tmp",
            private)[1]
        before = time.time()
        cache.publish()
        assert sorted(str(p.relative_to(root)) for p in root.rglob("*")) == [
            "packs", f"packs/{name}"]
        data = (root / "packs" / name).read_bytes()
        index, contents = read_pack(root / "packs" / name)
        (fetched_at,) = [entry.pop() for entry in index.values()]
        assert before <= fetched_at <= time.time()
        assert index == {url.cache_key("1.0"):
                         [0, 6, hashlib.sha256(b"data-1").hexdigest()]}
        assert contents == b"data-1"
        assert data.endswith(b"scram-pack-1 %016x" % 6)

    @pytest.mark.parametrize("damage", [
        "lost",  # the footer is cut off
        "list",
        "null",
        "empty object",
        "truncated",
        "wrong types",
        "hash not a string",
        "empty line",
        "empty file",
        "another key",
    ])
    def test_bad_header_is_refetched_once_under_the_lock(self, tmp_path, damage):
        """A pack whose footer or index is damaged holds nothing: its keys
        are missed and fetched once more, also while another command holds
        the packs' lock, and the next command serves the new copy."""
        registry, calls = counting_registry()
        url = parse_url("stub:x?n=5")
        content = one_command(tmp_path, url, "1.0", registry=registry)
        (pack,) = packs(tmp_path)
        index, contents = read_pack(pack)
        entry = index[url.cache_key("1.0")]
        bad_index = {
            "list": "[1, 2]",
            "null": "null",
            "empty object": "{}",
            "truncated": json.dumps(index)[:-3],
            "wrong types": json.dumps({url.cache_key("1.0"): [0, "6", entry[2], "now"]}),
            "hash not a string": json.dumps({url.cache_key("1.0"): [0, 6, 7, entry[3]]}),
            "empty line": "",
            "another key": json.dumps({url.cache_key("2.0"): entry}),
        }
        if damage == "lost":
            pack.write_bytes(contents + json.dumps(index).encode())
        elif damage == "empty file":
            pack.write_bytes(b"")
        else:
            pack.write_bytes(contents + bad_index[damage].encode() + footer(len(contents)))
        with locked(str(tmp_path / "packs" / "lock"), wait=True):
            cache = UrlCache(str(tmp_path), registry)
            assert cache.fetch(url, "1.0")[0] == content
            cache.publish()
        assert (len(calls), cache.stats.misses, cache.stats.hits) == (2, 1, 0)
        assert len(packs(tmp_path)) == 2
        assert one_command(tmp_path, url, "1.0", registry=no_fetch_registry()) == content

    @pytest.mark.parametrize("version", ["1.0", None])
    def test_damaged_entry_is_refetched_once(self, tmp_path, version):
        registry, calls = counting_registry(b"full content of %s")
        url = parse_url("stub:x?n=6")
        content = one_command(tmp_path, url, version, registry=registry)
        (pack,) = packs(tmp_path)
        data = bytearray(pack.read_bytes())
        data[3] ^= 1  # one flipped bit in the content
        pack.write_bytes(bytes(data))
        cache = UrlCache(str(tmp_path), registry)
        assert cache.fetch(url, version)[0] == content == b"full content of 6"
        cache.publish()
        assert (cache.stats.misses, cache.stats.hits, len(calls)) == (1, 0, 2)
        # the damaged copy ranks first for a versioned key and fails its check
        again = UrlCache(str(tmp_path), no_fetch_registry())
        assert again.fetch(url, version)[0] == content
        assert again.stats.hits == 1

    def test_hit_takes_no_lock(self, tmp_path):
        url = parse_url("stub:x?n=7")
        content = one_command(tmp_path, url, "1.0")
        served = []
        cache = UrlCache(str(tmp_path), no_fetch_registry())
        worker = threading.Thread(target=lambda: served.append(cache.fetch(url, "1.0")[0]))
        with locked(str(tmp_path / "packs" / "lock"), wait=True):
            worker.start()
            worker.join(timeout=5)
            assert served == [content]
        cache.publish()

    def test_lock_free_readers_never_serve_a_torn_refresh(self, tmp_path):
        """Readers racing 40 refreshes, and the compactions they bring, only
        ever serve whole copies, each no older than the last they served.
        The readers and the writer start together at a barrier, and each
        reader serves at least one copy however late its thread runs."""
        versions = iter(range(10**6))

        def adapter(url, version):
            return b"%06d" % next(versions) * 2000

        registry = SchemeRegistry({"stub": adapter})
        url = parse_url("stub:head")
        one_command(tmp_path, url, registry=registry)
        served, errors, writer_done = [], [], threading.Event()
        start = threading.Barrier(5, timeout=60)

        def write():
            try:
                start.wait()
                for _ in range(40):
                    one_command(tmp_path, url, refresh=True, registry=registry)
            finally:
                writer_done.set()

        def read():
            mine = []
            try:
                start.wait()
                while True:  # at least once, however late this thread runs
                    mine.append(one_command(tmp_path, url, registry=no_fetch_registry()))
                    if writer_done.is_set():
                        break
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            served.append(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)] + [
                threading.Thread(target=write)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(served) == 4 and all(served)
        for mine in served:
            for content in mine:
                assert content == content[:6] * 2000
            assert mine == sorted(mine)
        assert next(versions) == 41
        assert len(packs(tmp_path)) <= COMPACT_ABOVE + 1
        assert one_command(tmp_path, url, registry=no_fetch_registry()) == b"000040" * 2000

    @pytest.mark.parametrize("second", [b"first", b"second"], ids=["same", "differs"])
    def test_concurrent_misses_of_one_key_both_publish(self, tmp_path, second):
        url = parse_url("stub:one")
        a = UrlCache(str(tmp_path), SchemeRegistry({"stub": lambda u, v: b"first"}))
        b = UrlCache(str(tmp_path), SchemeRegistry({"stub": lambda u, v: second}))
        assert a.fetch(url, "1.0")[0] == b"first"
        assert b.fetch(url, "1.0")[0] == second
        a.publish()
        b.publish()
        assert (a.stats.misses, b.stats.misses) == (1, 1)
        assert [list(read_pack(pack)[0]) for pack in packs(tmp_path)] == [
            [url.cache_key("1.0")]] * 2

    @pytest.mark.parametrize("later", [b"earlier", b"later"], ids=["same", "differs"])
    def test_later_copy_is_never_served(self, tmp_path, later):
        """Of two copies of a versioned key, the one published first is
        served from then on: by the next commands, and after a compaction
        that merges both."""
        url = parse_url("stub:one")
        early = UrlCache(str(tmp_path), SchemeRegistry({"stub": lambda u, v: b"earlier"}))
        late = UrlCache(str(tmp_path), SchemeRegistry({"stub": lambda u, v: later}))
        late.fetch(url, "1.0")  # fetched first, published last
        early.fetch(url, "1.0")
        early.publish()
        (first_pack,) = packs(tmp_path)
        stamp = read_pack(first_pack)[0][url.cache_key("1.0")][3]
        assert one_command(tmp_path, url, "1.0", registry=no_fetch_registry()) == b"earlier"
        late.publish()
        assert len(packs(tmp_path)) == 2
        assert one_command(tmp_path, url, "1.0", registry=no_fetch_registry()) == b"earlier"
        for n in range(COMPACT_ABOVE - 1):
            one_command(tmp_path, item(n), "1.0")
        (merged,) = packs(tmp_path)
        index, contents = read_pack(merged)
        offset, length, _, fetched_at = index[url.cache_key("1.0")]
        assert (contents[offset:offset + length], fetched_at) == (b"earlier", stamp)
        assert one_command(tmp_path, url, "1.0", registry=no_fetch_registry()) == b"earlier"

    def test_head_refresh_newer_copy_wins(self, tmp_path):
        versions = iter(range(10**6))
        registry = SchemeRegistry({"stub": lambda u, v: b"v%d" % next(versions)})
        url = parse_url("stub:head")
        assert one_command(tmp_path, url, registry=registry) == b"v0"
        assert one_command(tmp_path, url, registry=registry) == b"v0"
        assert one_command(tmp_path, url, refresh=True, registry=registry) == b"v1"
        assert one_command(tmp_path, url, registry=no_fetch_registry()) == b"v1"
        for n in range(COMPACT_ABOVE - 1):  # the 17th pack brings a compaction
            one_command(tmp_path, item(n), "1.0")
        assert len(packs(tmp_path)) == 1
        assert one_command(tmp_path, url, registry=no_fetch_registry()) == b"v1"

    @pytest.mark.parametrize("key, kept", [
        (parse_url("stub:k").cache_key("1.0"), b"early"),
        (parse_url("stub:k").cache_key(), b"late"),
        ("not JSON", b"early"),
    ], ids=["versioned", "HEAD", "not JSON"])
    def test_a_compaction_keeps_the_copy_that_is_served(self, tmp_path, key, kept):
        """A merge keeps one copy of a key: the earliest, the latest for a
        HEAD key; a key that is not JSON is kept and ranks as versioned."""
        (tmp_path / "packs").mkdir()
        for name, content, fetched_at in (("1.pack", b"late", 2.0),
                                          ("2.pack", b"early", 1.0)):
            (tmp_path / "packs" / name).write_bytes(make_pack(content, {
                key: [0, len(content), hashlib.sha256(content).hexdigest(), fetched_at]}))
        for n in range(COMPACT_ABOVE - 1):  # the 17th pack brings a compaction
            one_command(tmp_path, item(n), "1.0")
        (merged,) = packs(tmp_path)
        index, contents = read_pack(merged)
        offset, length, _, _ = index[key]
        assert contents[offset:offset + length] == kept

    def test_packs_stay_few_and_every_key_is_served(self, tmp_path):
        for n in range(20):
            one_command(tmp_path, item(n), "1.0")
            assert len(packs(tmp_path)) <= COMPACT_ABOVE + 1
        assert len(packs(tmp_path)) == 20 - COMPACT_ABOVE - 1 + 1
        cache = UrlCache(str(tmp_path), no_fetch_registry())
        assert [cache.fetch(item(n), "1.0")[0] for n in range(20)] == [
            b"data-%d" % n for n in range(20)]
        cache.publish()
        assert sorted(os.listdir(tmp_path)) == ["packs"]

    def test_compaction_is_skipped_while_the_lock_is_held(self, tmp_path):
        def commands():
            for n in range(COMPACT_ABOVE + 3):
                one_command(tmp_path, item(n), "1.0")

        worker = threading.Thread(target=commands, daemon=True)
        with locked(str(tmp_path / "packs" / "lock"), wait=True):
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert len(packs(tmp_path)) == COMPACT_ABOVE + 3
        one_command(tmp_path, item(99), "1.0")
        assert len(packs(tmp_path)) == 1

    def test_an_error_inside_a_compaction_propagates(self, tmp_path, monkeypatch):
        """Only a lock held elsewhere skips a compaction: an error raised
        while merging, a ``BlockingIOError`` too, ends the command, and the
        packs are left as they were."""
        for n in range(COMPACT_ABOVE):
            one_command(tmp_path, item(n), "1.0")

        def fail(key):
            raise BlockingIOError("raised while merging")

        monkeypatch.setattr(scram.urlaccess, "_is_head", fail)
        with pytest.raises(BlockingIOError, match="raised while merging"):
            one_command(tmp_path, item(COMPACT_ABOVE), "1.0")
        assert len(packs(tmp_path)) == COMPACT_ABOVE + 1
        assert not [name for name in os.listdir(tmp_path / "packs")
                    if name.endswith(".tmp")]  # the merged pack was discarded
        monkeypatch.undo()
        one_command(tmp_path, item(99), "1.0")  # the lock was let go
        assert len(packs(tmp_path)) == 1

    def test_a_fault_listing_the_packs_is_one_area_error(self, tmp_path, monkeypatch):
        real_listdir = os.listdir

        def listdir(path):
            if os.fspath(path).endswith("packs"):
                raise PermissionError(13, "Permission denied", path)
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", listdir)
        cache = UrlCache(str(tmp_path), no_fetch_registry())
        with pytest.raises(AreaError, match="^" + re.escape(
                f"unreadable document cache {tmp_path / 'packs'}: Permission denied") + "$"):
            cache.fetch(item(1), "1.0")

    def test_killed_fetcher_leaves_an_unread_temp_pack(self, tmp_path, kill_when_held,
                                                       monkeypatch):
        kill_when_held(
            "import time\n"
            "from scram.urlaccess import SchemeRegistry, UrlCache, parse_url\n"
            "def adapter(url, version):\n"
            "    if url.authority == 'one':\n"
            "        return b'from the killed command'\n"
            "    print('held', flush=True)\n"
            "    time.sleep(60)\n"
            "cache = UrlCache(%r, SchemeRegistry({'stub': adapter}))\n"
            "cache.fetch(parse_url('stub:one'), '1.0')\n"
            "cache.fetch(parse_url('stub:two'), '1.0')\n" % str(tmp_path))
        (temp,) = os.listdir(tmp_path / "packs")
        assert re.fullmatch(TEMP_PACK, temp)
        assert (tmp_path / "packs" / temp).read_bytes() == b"from the killed command"
        opened, real_open = [], os.open
        monkeypatch.setattr(os, "open", lambda path, *args: (
            opened.append(os.path.basename(path)), real_open(path, *args))[1])
        registry, calls = counting_registry()
        start = time.monotonic()
        assert one_command(tmp_path, parse_url("stub:one"), "1.0", registry=registry) == b"data-?"
        assert time.monotonic() - start < 2
        assert len(calls) == 1
        assert one_command(tmp_path, parse_url("stub:one"), "1.0",
                           registry=no_fetch_registry()) == b"data-?"
        assert temp in os.listdir(tmp_path / "packs")
        assert opened and temp not in opened

    def test_killed_compaction_leaves_every_key_served(self, tmp_path, kill_when_held):
        for n in range(COMPACT_ABOVE):
            one_command(tmp_path, item(n), "1.0")
        kill_when_held(
            "import time\n"
            "from scram import urlaccess\n"
            "from scram.urlaccess import SchemeRegistry, UrlCache, parse_url\n"
            "class Stalling(urlaccess.PrivateFile):\n"
            "    def append(self, data):\n"
            "        offset = super().append(data)\n"
            "        print('held', flush=True)\n"
            "        time.sleep(60)\n"
            "registry = SchemeRegistry({'stub': lambda url, version: b'data-16'})\n"
            "cache = UrlCache(%r, registry)\n"
            "cache.fetch(parse_url('stub:item?n=16'), '1.0')\n"
            "urlaccess.PrivateFile = Stalling  # only the merged pack stalls\n"
            "cache.publish()\n" % str(tmp_path))
        names = os.listdir(tmp_path / "packs")
        assert len(packs(tmp_path)) == COMPACT_ABOVE + 1
        assert "lock" in names and sum(bool(re.fullmatch(TEMP_PACK, n)) for n in names) == 1
        cache = UrlCache(str(tmp_path), no_fetch_registry())
        assert [cache.fetch(item(n), "1.0")[0] for n in range(COMPACT_ABOVE + 1)] == [
            b"data-%d" % n for n in range(COMPACT_ABOVE + 1)]
        cache.publish()
        # the lock died with its holder: the next publishing command merges
        one_command(tmp_path, item(99), "1.0")
        assert len(packs(tmp_path)) == 1

    def test_readers_racing_a_compaction_never_fail(self, tmp_path):
        for n in range(COMPACT_ABOVE):
            one_command(tmp_path, item(n), "1.0")
        errors, rounds, writer_done = [], [], threading.Event()

        def write():
            try:
                for n in range(COMPACT_ABOVE, 3 * COMPACT_ABOVE):
                    one_command(tmp_path, item(n), "1.0")
            finally:
                writer_done.set()

        def read():
            try:
                while not writer_done.is_set():
                    cache = UrlCache(str(tmp_path), no_fetch_registry())
                    try:
                        for n in range(COMPACT_ABOVE):
                            assert cache.fetch(item(n), "1.0")[0] == b"data-%d" % n
                    finally:
                        cache.publish()
                    rounds.append(1)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert rounds
        assert len(packs(tmp_path)) <= COMPACT_ABOVE + 1  # 48 packs were published

    def test_every_step_of_a_compaction_leaves_every_key_served(self, tmp_path,
                                                                monkeypatch):
        """A reader that lists the packs just before a compaction unlinks
        them lists again; one that starts at any unlink finds every key."""
        for n in range(COMPACT_ABOVE):
            one_command(tmp_path, item(n), "1.0")
        served, real_listdir, real_unlink = [], os.listdir, os.unlink

        def read_all():
            cache = UrlCache(str(tmp_path), no_fetch_registry())
            try:
                served.append([cache.fetch(item(n), "1.0")[0] for n in range(COMPACT_ABOVE)])
            finally:
                cache.publish()

        def unlink(path):
            read_all()
            real_unlink(path)

        def listdir(path):
            names = real_listdir(path)
            if len(served) == 0:
                monkeypatch.setattr(os, "listdir", real_listdir)
                # a compaction merges every listed pack away before they are opened
                one_command(tmp_path, item(COMPACT_ABOVE), "1.0")
            return names

        monkeypatch.setattr(os, "unlink", unlink)
        monkeypatch.setattr(os, "listdir", listdir)
        read_all()
        assert len(packs(tmp_path)) == 1
        # one read per unlinked pack, then the read that was interrupted
        assert served == [[b"data-%d" % n for n in range(COMPACT_ABOVE)]] * (
            COMPACT_ABOVE + 2)

    def test_adapter_opacity(self, tmp_path):
        # hit and miss return identical content and its SHA-256; only the
        # counters differ
        registry, _ = counting_registry()
        cache = UrlCache(str(tmp_path), registry)
        url = parse_url("stub:x?n=9")
        miss = cache.fetch(url, "1.0")
        hit = cache.fetch(url, "1.0")
        assert miss == hit == (b"data-9", hashlib.sha256(b"data-9").hexdigest())
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)


@pytest.fixture
def no_proxy(monkeypatch):
    """Requests go straight to a loopback server, whatever proxies the
    environment names."""
    for name in ("http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("no_proxy", "*")


@pytest.fixture
def http_root(tmp_path, no_proxy):
    """A loopback HTTP server, in a thread, over a fresh directory: yields
    the directory, the server's base URL and the paths requested so far."""
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


class TestFilesThatHoldNothing:
    """A pack or a record store entry that is a dangling symlink or a FIFO
    holds nothing: a command neither fails nor waits on one. A command
    runs in a child, which must end within 10 s."""

    @staticmethod
    def run(child_env, script: str) -> str:
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=10, env=child_env(os.environ))
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_a_dangling_pack(self, tmp_path):
        root = tmp_path / "cache"
        one_command(root, item(1))
        (root / "packs" / "zzz.pack").symlink_to(tmp_path / "nowhere")
        assert one_command(root, item(1), registry=no_fetch_registry()) == b"data-1"

    def test_a_fifo_pack(self, tmp_path, child_env):
        root = tmp_path / "cache"
        one_command(root, item(1))
        os.mkfifo(root / "packs" / "zzz.pack")
        assert self.run(child_env, (
            "from scram.urlaccess import SchemeRegistry, UrlCache, parse_url\n"
            f"cache = UrlCache({str(root)!r}, SchemeRegistry({{}}))\n"
            "print(cache.fetch(parse_url('stub:item?n=1'))[0].decode())\n"
            "cache.publish()\n")) == "data-1\n"

    def test_a_fifo_store_entry_is_healed(self, tmp_path, child_env):
        root, data = tmp_path / "cache", b'{"name": "t"}\n'
        entry = root / "records" / hashlib.sha256(data).hexdigest()
        entry.parent.mkdir(parents=True)
        os.mkfifo(entry)
        record = tmp_path / "area" / "t"
        self.run(child_env, (
            "from scram.urlaccess import SchemeRegistry, UrlCache\n"
            f"UrlCache({str(root)!r}, SchemeRegistry({{}}))"
            f".write_record({str(record)!r}, {data!r})\n"))
        assert record.read_bytes() == data
        assert os.path.samefile(entry, record)

    def test_a_symlinked_store_entry_is_healed(self, tmp_path):
        root, data = tmp_path / "cache", b'{"name": "t"}\n'
        entry = root / "records" / hashlib.sha256(data).hexdigest()
        entry.parent.mkdir(parents=True)
        entry.symlink_to(tmp_path / "nowhere")
        cache = UrlCache(str(root), SchemeRegistry({}))
        first, second = tmp_path / "a" / "t", tmp_path / "b" / "t"
        cache.write_record(str(first), data)
        assert not entry.is_symlink() and os.path.samefile(entry, first)
        # the second record links from the healed entry
        cache.write_record(str(second), data)
        assert os.stat(second).st_nlink == 3


class TestFetchHttp:
    def test_a_200_is_served_once_then_from_the_cache(self, tmp_path, http_root):
        root, base, requested = http_root
        (root / "doc").write_bytes(b"served")
        cache = UrlCache(str(tmp_path / "cache"), default_registry(SiteInfo()))
        url = parse_url(f"{base}/doc?version=1")
        assert cache.fetch(url)[0] == b"served"
        assert cache.fetch(url)[0] == b"served"
        assert requested == ["/doc?version=1"]
        assert cache.stats.misses == 1

    def test_a_404_names_the_url(self, tmp_path, http_root):
        _, base, requested = http_root
        cache = UrlCache(str(tmp_path / "cache"), default_registry(SiteInfo()))
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


class TestFetchTimeout:
    """A fetch that hangs fails after ``FETCH_TIMEOUT`` seconds as one line."""

    def bootstrap(self, toy, url, capsys) -> str:
        """The error line of a bootstrap from ``url``, which must fail
        within 5 s."""
        start = time.monotonic()
        status = main(["bootstrap", url, "--dest", str(toy.install_root)],
                      env=toy.env, cwd=str(toy.root))
        assert (status, time.monotonic() - start < 5) == (1, True)
        return capsys.readouterr().err

    def test_an_http_server_that_never_answers(self, toy, no_proxy, monkeypatch,
                                               capsys):
        monkeypatch.setattr(scram.urlaccess, "FETCH_TIMEOUT", 0.5)
        # the kernel accepts the connection and nothing ever answers it
        with socket.create_server(("127.0.0.1", 0)) as server:
            url = f"http://127.0.0.1:{server.getsockname()[1]}/toy.boot"
            err = self.bootstrap(toy, url, capsys)
        assert err == f"scram: bootstrap: GET {url} timed out after 0.5 s\n"

    def test_a_checkout_command_that_never_ends(self, toy, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.setattr(scram.urlaccess, "FETCH_TIMEOUT", 0.5)
        stub, pid_files = checkout_stub(tmp_path)
        toy.site_path.write_text(toy.site_path.read_text()
                                 + f"scheme.cvs.command = {stub} {{module}}\n")
        url = "cvs:?module=toy/boot"
        assert self.bootstrap(toy, url, capsys) == (
            f"scram: bootstrap: checkout command for {url} timed out after 0.5 s\n")
        assert_killed(pid_files)
        # the sleep that the stub became is reaped too
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_files[0].read_text()), 0)

    def test_an_interrupted_checkout_command_is_killed(self, tmp_path, monkeypatch):
        stub, pid_files = checkout_stub(tmp_path)

        def communicate(proc, timeout=None):
            # interrupted once the stub has started its background sleep
            deadline = time.monotonic() + 5
            while not pid_files[0].read_text() and time.monotonic() < deadline:
                time.sleep(0.05)
            raise KeyboardInterrupt

        monkeypatch.setattr(subprocess.Popen, "communicate", communicate)
        with pytest.raises(KeyboardInterrupt):
            external_command_adapter(str(stub))(parse_url("cvs:?module=m"), None)
        assert_killed(pid_files)


def checkout_stub(tmp_path):
    """A checkout command that starts a sleep in the background and then
    becomes a sleep itself, and the files that get its pid and the
    background sleep's; it writes its own last, into a file made empty up
    front."""
    pid_files = [tmp_path / "checkout.pid", tmp_path / "child.pid"]
    pid_files[0].write_text("")
    stub = tmp_path / "checkout"
    stub.write_text(f"#!/bin/sh\nsleep 60 &\necho $! > {pid_files[1]}\n"
                    f"echo $$ > {pid_files[0]}\nexec sleep 60\n")
    stub.chmod(0o755)
    return stub, pid_files


def assert_killed(pid_files):
    """Both sleeps of ``checkout_stub`` are killed within 5 s."""
    pids = [int(path.read_text()) for path in pid_files]
    deadline = time.monotonic() + 5
    while not all(map(dead, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in pids if not dead(pid)] == []


def dead(pid: int) -> bool:
    """Whether process ``pid`` is gone or a zombie: an orphan is reaped by
    whichever process adopted it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True
