import errno
import functools
import hashlib
import json
import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import scram.project
import scram.runtime
from scram.activedoc import DocumentEngine
from scram.configuration import (
    CONFIGURATION,
    REQUIREMENTS,
    PinnedTool,
    detect_architecture,
)
from scram.errors import AreaError, ScramError, ToolError, UrlError
from scram.fsutil import locked
from scram.project import (
    AREA_SUBDIRS,
    InstallationRecord,
    ProjectArea,
    Registry,
    _TOOL_RECORD_FIELDS,
    _area_level_prepends,
    _field,
    _load_record,
    _tools_in_runtime_order,
    _write_config_record,
    area_context,
    area_environment,
    bootstrap_install,
    build_engine,
    create_dev_area,
    list_installs,
    load_config_record,
    read_tool_records,
    register_install,
    resolve_project_configuration,
    resolve_selected_tools,
    run_build,
    setup_tool,
    tool_info,
    tool_list,
    write_tool_record,
)
from scram.runtime import EnvDelta, EnvEmitError, emit_shell, load_app_env_file
from scram.sitefile import SiteInfo
from scram.tooldoc import TOOLDOC, ResolvedTool
from scram.urlaccess import SchemeRegistry, UrlCache, parse_url

from cachepacks import footer, make_pack, read_pack
from conftest import audit_events
from envhelpers import build_contribution, runtime_contribution

ARCH = detect_architecture("Linux__2.4")


def tree_census(root: Path) -> dict[str, str]:
    """Relative path -> content hash for every file under root."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            rel = str(path.relative_to(root))
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def bootstrap(toy, **kwargs):
    kwargs.setdefault("site", SiteInfo.load(str(toy.site_path)))
    return bootstrap_install(toy.bootstrap_url, str(toy.install_root),
                             env=toy.env, arch=ARCH, **kwargs)


def installed(toy):
    """bootstrap + build + register, returning (area, registry)."""
    area, record = bootstrap(toy)
    assert run_build(area, [], site=SiteInfo.load(str(toy.site_path)),
                     env=toy.env, arch=ARCH) == 0
    registry = Registry.locate(toy.env)
    register_install(area, registry, arch=ARCH)
    return area, registry


def dev_area(toy):
    area, registry = installed(toy)
    dev = create_dev_area("ORCA", "7_1_3", registry, str(toy.workspace), arch=ARCH)
    return dev, area


class TestBootstrap:
    def test_materializes_area(self, toy):
        area, record = bootstrap(toy)
        for sub in AREA_SUBDIRS:
            assert (Path(area.root) / sub).is_dir()
        assert (Path(area.root) / "src" / "README").read_text() == "toy project sources\n"
        assert record == InstallationRecord("ORCA", "7_1_3", "Linux__2.4", area.root)
        tools_dir = Path(area.root) / ".SCRAM" / "Linux__2.4" / "tools"
        assert sorted(p.name for p in tools_dir.iterdir()) == [
            "boost", "gcc", "htl", "sockets"]
        assert area.state() == "incomplete"
        assert area.kind == "central"

    def test_boost_record_content(self, toy):
        area, _ = bootstrap(toy)
        report = tool_info(area, "boost", ARCH)
        assert "BOOST_BASE=/opt/boost" in report
        assert "The top of the Boost distribution." in report
        assert "sockets 1.0" in report

    def test_without_config_url(self, tmp_path):
        from conftest import make_toy_project
        toy = make_toy_project(tmp_path, with_config=False)
        area, _ = bootstrap(toy)
        assert not (Path(area.root) / ".SCRAM" / "Linux__2.4").exists()

    def test_path_escape_writes_nothing(self, toy):
        def install(n, to):
            # one document per destination: a fetched document is cached
            evil = toy.specs / f"evil{n}.boot"
            evil.write_text(
                "<doc type=BuildSystem::BootStrapDoc version=1.0>\n"
                "<project name=EVIL version=1>\n"
                f'<download url="file:{toy.specs}/README.src" to="{to}">\n'
            )
            return bootstrap_install(f"file:{evil}", str(toy.install_root),
                                     site=SiteInfo({}), env=toy.env, arch=ARCH)

        for n, to in enumerate(["../x", "..", "a/../..", "/abs"]):
            with pytest.raises(AreaError, match="escapes the area"):
                install(n, to)
            assert not (toy.install_root / "EVIL_1").exists()
        # nor may a download write scram's own state
        for n, to in enumerate([".SCRAM", ".SCRAM/Link", "./.SCRAM/x"], start=5):
            with pytest.raises(AreaError, match=r"is in \.SCRAM, scram's own state"):
                install(n, to)
            assert os.listdir(toy.install_root) == []
        # a name that only starts with two dots stays inside the area
        area, _ = install(4, "..data")
        assert (Path(area.root) / "..data").read_text() == "toy project sources\n"

    def test_refresh_reaches_the_downloads(self, toy):
        # a download is an unversioned (HEAD) document: the cache serves
        # the bytes it first fetched until a refresh fetches them anew
        bootstrap(toy)
        (toy.specs / "README.src").write_text("new sources\n")
        for refresh, text in ((False, "toy project sources\n"), (True, "new sources\n")):
            shutil.rmtree(toy.central_root)
            bootstrap(toy, refresh=refresh)
            assert (toy.central_root / "src" / "README").read_text() == text

    def test_unresolvable_tool_leaves_incomplete_area(self, toy):
        # empty the site file: boost's client variables cannot bind
        toy.site_path.write_text("build.command = true\n")
        with pytest.raises(ToolError, match="BOOST_BASE"):
            bootstrap(toy, site=SiteInfo.load(str(toy.site_path)))
        area = ProjectArea(str(toy.central_root))
        assert area.state() == "incomplete"

    def test_existing_target_rejected(self, toy):
        bootstrap(toy)
        with pytest.raises(AreaError, match="already exists"):
            bootstrap(toy)

    def test_failure_on_the_last_tool_leaves_nothing(self, toy, monkeypatch):
        written = []

        def fail_on_last(area, arch, rt):
            write_tool_record(area, arch, rt)
            written.append(area.root)
            if len(written) == 4:
                raise ToolError("cannot resolve the last tool")

        monkeypatch.setattr(scram.project, "write_tool_record", fail_on_last)
        with pytest.raises(ToolError, match="the last tool"):
            bootstrap(toy)
        assert all(".partial" in path for path in written)
        assert os.listdir(toy.install_root) == []
        monkeypatch.undo()
        area, _ = bootstrap(toy)
        assert os.listdir(toy.install_root) == ["ORCA_7_1_3"]
        assert len(tool_list(area, ARCH).splitlines()) == 6

    def test_killed_mid_resolve_leaves_only_the_private_tree(
            self, toy, kill_when_held, monkeypatch):
        for key, value in toy.env.items():
            monkeypatch.setenv(key, value)
        kill_when_held(
            "import os, time\n"
            "import scram.project as project\n"
            "from scram.configuration import detect_architecture\n"
            "from scram.sitefile import SiteInfo\n"
            "def hang(*args, **kwargs):\n"
            "    print('held', flush=True)\n"
            "    time.sleep(60)\n"
            "project.resolve_tool = hang\n"
            f"project.bootstrap_install({toy.bootstrap_url!r}, "
            f"{str(toy.install_root)!r}, site=SiteInfo.load({str(toy.site_path)!r}), "
            "env=os.environ, arch=detect_architecture(env=os.environ))\n")
        [left] = os.listdir(toy.install_root)
        assert re.fullmatch(r"\.ORCA_7_1_3\.[0-9a-f]{8}\.partial", left)
        area, _ = bootstrap(toy)
        assert sorted(os.listdir(toy.install_root)) == [left, "ORCA_7_1_3"]
        assert tool_info(area, "boost", ARCH).startswith("Tool: boost\n")

    def test_no_file_names_the_private_tree(self, toy, monkeypatch):
        written = []

        def spy(path, data, real=scram.project.write_new):
            written.append(Path(path).relative_to(toy.install_root))
            real(path, data)

        monkeypatch.setattr(scram.project, "write_new", spy)
        area, record = bootstrap(toy)
        private = written[0].parts[0]
        assert {path.parts[0] for path in written} == {private}
        assert private.endswith(".partial")
        assert area.root == record.location == str(toy.central_root)
        census = [p for p in Path(area.root).rglob("*") if p.is_file()]
        assert len(census) == 9
        for path in census:
            assert private.encode() not in path.read_bytes(), path

    def test_cache_holds_one_pack_of_the_fetched_keys(self, toy, monkeypatch):
        fetched = {}

        def spy(cache, url, version=None, real=UrlCache.fetch):
            served = fetched[url.cache_key(version)] = real(cache, url, version)
            return served

        monkeypatch.setattr(UrlCache, "fetch", spy)
        area, _ = bootstrap(toy)
        cache = Path(toy.env["SCRAM_CACHE"])
        assert sorted(os.listdir(cache)) == ["packs", "records"]
        # the record store holds each tool record under its SHA-256, as one
        # file with the area's record
        tools = Path(area.root) / ".SCRAM" / ARCH / "tools"
        for record in tools.iterdir():
            entry = cache / "records" / hashlib.sha256(record.read_bytes()).hexdigest()
            assert os.path.samefile(entry, record)
        assert len(os.listdir(cache / "records")) == 4
        (pack,) = os.listdir(cache / "packs")
        assert re.fullmatch(r"[0-9]+\.[0-9]+\.[0-9a-f]{8}\.pack", pack)
        index, contents = read_pack(cache / "packs" / pack)
        payloads = {key for key in index if json.loads(key)[0] == "payload"}
        assert index.keys() - payloads == fetched.keys()
        # the bootstrap, requirements and configuration documents, the
        # download and four tool documents
        assert len(fetched) == 8
        # the payloads of the configuration and the four tool documents
        assert len(payloads) == 5
        for key, (offset, length, content_hash, _) in index.items():
            assert hashlib.sha256(contents[offset:offset + length]).hexdigest() == content_hash
            if key in fetched:
                assert (contents[offset:offset + length], content_hash) == fetched[key]

    def test_a_failed_bootstrap_keeps_what_it_fetched(self, toy, monkeypatch):
        htl = toy.specs / "htl.tooldoc"
        text = htl.read_text()
        htl.unlink()
        with pytest.raises(ScramError, match="htl.tooldoc"):
            bootstrap(toy)
        htl.write_text(text)
        retrieved, real = [], SchemeRegistry.retrieve

        def spy(registry, url, version):
            retrieved.append(str(url))
            return real(registry, url, version)

        monkeypatch.setattr(SchemeRegistry, "retrieve", spy)
        bootstrap(toy)
        assert f"file:{htl}" in retrieved
        assert not {toy.bootstrap_url, toy.requirements_url} & set(retrieved)
        assert len(os.listdir(Path(toy.env["SCRAM_CACHE"]) / "packs")) == 2

    def test_config_url_may_name_a_configuration_directly(self, toy):
        boot = toy.specs / "direct.boot"
        boot.write_text(
            "<doc type=BuildSystem::BootStrapDoc version=1.0>\n"
            "<project name=DIRECT version=1_0>\n"
            f'<config url="file:{toy.specs}/toy.conf">\n'
        )
        area, _ = bootstrap_install(f"file:{boot}", str(toy.install_root),
                                    site=SiteInfo.load(str(toy.site_path)),
                                    env=toy.env, arch=ARCH)
        # every architecture-matching entry is selected, in document order
        listing = tool_list(area, ARCH)
        assert listing.index(" gcc ") < listing.index(" boost")
        assert " htl                  1.4        (default=1.4)" in listing


class TestRecordStore:
    """A bootstrap links each tool record that the cache's record store
    holds with the same bytes, and never fails because of the store."""

    @staticmethod
    def tools(area) -> Path:
        return Path(area.root) / ".SCRAM" / ARCH / "tools"

    def records(self, area) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(self.tools(area).iterdir())}

    @staticmethod
    def second(toy):
        """A bootstrap into a second dest that shares the first's cache."""
        dest = toy.root / "second"
        dest.mkdir()
        return bootstrap_install(toy.bootstrap_url, str(dest),
                                 site=SiteInfo.load(str(toy.site_path)),
                                 env=toy.env, arch=ARCH)[0]

    @staticmethod
    def entry(toy, data: bytes) -> Path:
        return (Path(toy.env["SCRAM_CACHE"]) / "records"
                / hashlib.sha256(data).hexdigest())

    def test_a_warm_bootstrap_links_every_record(self, toy):
        first, _ = bootstrap(toy)
        second = self.second(toy)
        assert self.records(second) == self.records(first)
        tools = self.tools(second)
        for name, data in self.records(second).items():
            assert os.path.samefile(tools / name, self.entry(toy, data))
            assert os.stat(tools / name).st_nlink == 3

    def test_a_corrupt_entry_is_not_linked_and_is_healed(self, toy):
        first, _ = bootstrap(toy)
        want = self.records(first)
        entry = self.entry(toy, want["boost"])
        shutil.rmtree(toy.central_root)  # the corruption reaches no area
        entry.write_bytes(want["boost"][:-2] + b"}\n")
        second = self.second(toy)
        assert self.records(second) == want
        tools = self.tools(second)
        assert entry.read_bytes() == want["boost"]
        assert os.path.samefile(entry, tools / "boost")
        # the entry was replaced by a rename: no temp link is left
        assert not [name for name in os.listdir(entry.parent) if name[0] == "."]

    @pytest.mark.parametrize("errno_name", ["EXDEV", "EPERM"])
    def test_a_store_that_cannot_link_costs_only_the_link(self, toy, monkeypatch,
                                                          errno_name):
        first, _ = bootstrap(toy)
        want = self.records(first)

        def cannot_link(*args, **kwargs):
            code = getattr(errno, errno_name)
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "link", cannot_link)
        second = self.second(toy)
        assert self.records(second) == want
        tools = self.tools(second)
        for name, data in want.items():
            assert os.stat(tools / name).st_nlink == 1
            assert self.entry(toy, data).read_bytes() == data

    def test_an_entry_at_the_link_limit_is_replaced_by_the_new_record(
            self, toy, monkeypatch):
        first, _ = bootstrap(toy)
        want = self.records(first)
        store, real_link = str(Path(toy.env["SCRAM_CACHE"]) / "records"), os.link

        def full(source, target, **kwargs):
            if source.startswith(store):
                raise OSError(errno.EMLINK, os.strerror(errno.EMLINK))
            real_link(source, target, **kwargs)

        monkeypatch.setattr(os, "link", full)
        second = self.second(toy)
        assert self.records(second) == want
        tools = self.tools(second)
        for name, data in want.items():
            assert os.path.samefile(self.entry(toy, data), tools / name)
            assert os.stat(self.tools(first) / name).st_nlink == 1

    def test_an_unmakeable_store_costs_only_the_links(self, toy):
        cache = Path(toy.env["SCRAM_CACHE"])
        cache.mkdir()
        (cache / "records").write_text("not a directory\n")
        area, _ = bootstrap(toy)
        assert len(self.records(area)) == 4
        assert (cache / "records").read_text() == "not a directory\n"

    def test_setup_replaces_a_linked_record_and_leaves_its_entry(self, toy):
        first, _ = bootstrap(toy)
        second = self.second(toy)
        want = self.records(second)
        setup_tool(first, "htl", "1.5", f"file:{toy.specs}/htl.tooldoc",
                   site=SiteInfo.load(str(toy.site_path)), env=toy.env, arch=ARCH)
        assert '"version": "1.5"' in self.records(first)["htl"].decode()
        assert self.records(second) == want
        assert self.entry(toy, want["htl"]).read_bytes() == want["htl"]


PIN_DOC = ("<doc type=BuildSystem::ToolDoc version=1.0>\n"
           "<Tool name=a version=1>\n"
           "<Environment name=A_FROM value={where}></Environment>\n"
           "</Tool>\n")


class TestPinUrls:
    """Every ``<require url>`` is made absolute when the configuration is
    resolved: against the configuration's ``<base>``, else the
    requirements' ``<base>``, else the configuration's own URL."""

    @staticmethod
    def bootstrap_url(toy, conf_base, req_base, direct):
        # the one relative reference names another document under each base
        for where in ("cbase", "rbase", "conf"):
            (toy.specs / where).mkdir()
            (toy.specs / where / "a.tooldoc").write_text(PIN_DOC.format(where=where))
        conf = toy.specs / "conf" / "rel.conf"
        conf.write_text(
            "<doc type=BuildSystem::Configuration version=1.0>\n"
            + (f'<base url="file:{toy.specs}/cbase/">\n' if conf_base else "")
            + '<require name=a version=1 url="a.tooldoc">\n')
        reqs = toy.specs / "rel.reqs"
        reqs.write_text(
            "<doc type=BuildSystem::Requirements version=2.0>\n"
            + (f'<base url="file:{toy.specs}/rbase/">\n' if req_base else "")
            + f'<include url="file:{conf}">\n<select name=a>\n')
        boot = toy.specs / "rel.boot"
        boot.write_text(
            "<doc type=BuildSystem::BootStrapDoc version=1.0>\n"
            "<project name=REL version=1>\n"
            f'<config url="file:{conf if direct else reqs}">\n')
        return f"file:{boot}"

    @pytest.mark.parametrize("conf_base, req_base, direct, where", [
        (True, True, False, "cbase"),
        (False, True, False, "rbase"),
        (False, False, False, "conf"),
        (True, False, True, "cbase"),
        (False, False, True, "conf"),
    ], ids=["included, configuration base", "included, requirements base",
            "included, no base", "direct, configuration base", "direct, no base"])
    def test_relative_require_is_pinned_absolute(self, toy, monkeypatch, conf_base,
                                                 req_base, direct, where):
        activated = []
        activate = DocumentEngine.activate

        def spy(engine, url, accepted):
            if accepted == (TOOLDOC,):
                activated.append(str(url))
            return activate(engine, url, accepted)

        monkeypatch.setattr(DocumentEngine, "activate", spy)
        area, _ = bootstrap_install(
            self.bootstrap_url(toy, conf_base, req_base, direct),
            str(toy.install_root), site=SiteInfo({}), env=toy.env, arch=ARCH)
        pinned = f"file:{toy.specs}/{where}/a.tooldoc"
        assert activated == [pinned]
        assert f"A_FROM={where}  [substitution]" in tool_info(area, "a", ARCH)
        record = json.loads(Path(area.config_record_path(ARCH)).read_text())
        assert record == {"tools": [{"name": "a", "version": "1", "spec_url": pinned}]}
        # setup NAME re-resolves from the record alone
        assert setup_tool(area, "a", site=SiteInfo({}), env=toy.env, arch=ARCH) == ["a"]
        assert activated == [pinned, pinned]

    @pytest.mark.parametrize("direct", [False, True], ids=["included", "direct"])
    @pytest.mark.parametrize("conf_url", ["http://h/conf/c.conf",
                                          "cvs:?module=C&version=V"])
    def test_pin_naming_a_scheme_stays_as_written_without_a_base(
            self, tmp_path, conf_url, direct):
        # the configuration's own URL is no base for a URL with a scheme:
        # the other host keeps its authority and the other module its HEAD
        docs = {
            conf_url: "<doc type=BuildSystem::Configuration version=1.0>\n"
                      '<require name=a version=1 url="http://h2/tools/a.tooldoc">\n'
                      '<require name=b version=1 url="cvs:?module=T">\n',
            "http://h/reqs": "<doc type=BuildSystem::Requirements version=2.0>\n"
                             f'<include url="{conf_url}">\n<select name=a>\n'
                             "<select name=b>\n",
        }
        registry = SchemeRegistry(dict.fromkeys(
            ("http", "cvs"), lambda url, version: docs[str(url)].encode()))
        engine = DocumentEngine(UrlCache(str(tmp_path / "cache"), registry))
        resolved, _ = resolve_project_configuration(
            engine, parse_url(conf_url if direct else "http://h/reqs"), ARCH)
        assert [p.spec_url for p in resolved.values()] == [
            "http://h2/tools/a.tooldoc", "cvs:?module=T"]

    def test_empty_require_url_fails_even_when_not_selected(self, toy):
        url = self.bootstrap_url(toy, conf_base=True, req_base=False, direct=False)
        conf = toy.specs / "conf" / "rel.conf"
        conf.write_text(conf.read_text() + '<require name=b version=1 url="">\n')
        with pytest.raises(UrlError) as exc:
            bootstrap_install(url, str(toy.install_root), site=SiteInfo({}),
                              env=toy.env, arch=ARCH)
        assert str(exc.value) == f"file:{conf}: <require name=b version=1>: empty URL"
        assert os.listdir(toy.install_root) == []

    def test_record_with_spec_base_and_identity_reads_unchanged(self, toy):
        area, _ = bootstrap(toy)

        def reads():
            return (tool_list(area, ARCH), tool_info(area, "boost", ARCH),
                    emit_shell(area_environment(area, ARCH), {}, "sh"))

        before = reads()
        path = Path(area.config_record_path(ARCH))
        record = json.loads(path.read_text())
        # as a record was written before pins were absolute
        record["identity"] = [toy.requirements_url, "2.0"]
        for tool in record["tools"]:
            tool["spec_url"] = f"{tool['name']}.tooldoc"
            tool["spec_base"] = f"file:{toy.specs}/"
        path.write_text(json.dumps(record))
        assert reads() == before
        # re-resolving a relative pin needs a new bootstrap
        with pytest.raises(UrlError, match="'gcc.tooldoc' has no scheme"):
            setup_tool(area, "gcc", site=SiteInfo({}), env=toy.env, arch=ARCH)


class TestEngineDocTypes:
    def test_configuration_include_merges_entries(self, toy):
        # a configuration including a same-type fragment equals the
        # hand-concatenated document
        frag = toy.specs / "frag.conf"
        frag.write_text(
            "<doc type=BuildSystem::Configuration version=1.0>\n"
            '<require name=zlib version=1.1.3 url="cvs:?module=Z">\n')
        outer = toy.specs / "outer.conf"
        outer.write_text(
            "<doc type=BuildSystem::Configuration version=1.0>\n"
            '<require name=gcc version=2.95.2 url="cvs:?module=G">\n'
            f'<include url="file:{frag}">\n')
        combined = toy.specs / "combined.conf"
        combined.write_text(
            "<doc type=BuildSystem::Configuration version=1.0>\n"
            '<require name=gcc version=2.95.2 url="cvs:?module=G">\n'
            '<require name=zlib version=1.1.3 url="cvs:?module=Z">\n')
        engine = build_engine(SiteInfo({}), toy.env, str(toy.install_root))
        spliced = engine.activate(parse_url(f"file:{outer}"), (CONFIGURATION,))
        expected = engine.activate(parse_url(f"file:{combined}"), (CONFIGURATION,))
        assert spliced.entries == expected.entries

    def test_requirements_include_stays_a_reference(self, toy):
        engine = build_engine(SiteInfo({}), toy.env, str(toy.install_root))
        payload = engine.activate(parse_url(toy.requirements_url), (REQUIREMENTS,))
        assert payload.includes == [f"file:{toy.specs}/toy.conf"]
        assert [s.name for s in payload.selects] == ["gcc", "sockets", "boost", "htl"]


class TestRegisterAndList:
    def test_register_requires_complete_state(self, toy):
        area, _ = bootstrap(toy)
        registry = Registry.locate(toy.env)
        with pytest.raises(AreaError, match="not marked complete"):
            register_install(area, registry, arch=ARCH)
        register_install(area, registry, arch=ARCH, force=True)
        assert area.state() == "complete"

    def test_successful_build_completes(self, toy):
        area, registry = installed(toy)
        assert area.state() == "complete"
        listing = list_installs(registry, None, ARCH)
        assert f"ORCA 7_1_3 --> {area.root}" in listing

    def test_register_idempotent(self, toy):
        area, registry = installed(toy)
        register_install(area, registry, arch=ARCH)
        rows = [r for r in registry.records() if r.project == "ORCA"]
        assert len(rows) == 1

    def test_add_reads_the_registry_once(self, tmp_path, monkeypatch):
        reads = []
        real_read_text = scram.project.read_text

        def counted(path, *args, **kwargs):
            reads.append(path)
            return real_read_text(path, *args, **kwargs)

        monkeypatch.setattr(scram.project, "read_text", counted)
        registry = Registry(str(tmp_path / "scramdb"))
        registry.add(InstallationRecord("P", "1", "Linux__2.4", "/p1"))
        registry.add(InstallationRecord("P", "2", "Linux__2.4", "/p2"))
        assert reads == [registry.path] * 2
        assert [r.version for r in registry.records()] == ["1", "2"]

    @pytest.mark.parametrize("record", [
        InstallationRecord("my proj", "1.0", "Linux__2.4", "/p"),
        InstallationRecord("P", "1\t0", "Linux__2.4", "/p"),
        InstallationRecord("P", "1", "Linux 2.4", "/p"),
        InstallationRecord("#P", "1", "Linux__2.4", "/p"),
        InstallationRecord("", "1", "Linux__2.4", "/p"),
        InstallationRecord("P", "1", "Linux__2.4", "/p\nQ 2 Linux__2.4 /q"),
        InstallationRecord("P", "1", "Linux__2.4", "/p\r"),
        InstallationRecord("P", "1", "Linux__2.4", "/p "),
    ], ids=["project", "version", "arch", "comment", "empty", "newline",
            "return", "trailing"])
    def test_a_record_whose_line_reads_back_otherwise_is_refused(self, tmp_path,
                                                                  record):
        registry = Registry(str(tmp_path / "scramdb"))
        registry.add(InstallationRecord("P", "0", "Linux__2.4", "/p0"))
        before = Path(registry.path).read_bytes()
        with pytest.raises(AreaError, match="^cannot register project "):
            registry.add(record)
        assert Path(registry.path).read_bytes() == before

    def test_a_location_may_hold_spaces(self, tmp_path):
        registry = Registry(str(tmp_path / "scramdb"))
        record = InstallationRecord("P", "1", "Linux__2.4", "/my areas/P_1")
        registry.add(record)
        registry.add(record)
        assert registry.records() == [record]
        assert registry.find("P", "1", "Linux__2.4") == record

    def test_default_registry_is_under_the_home_of_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", "/elsewhere")
        assert Registry.locate({"HOME": str(tmp_path)}).path == str(tmp_path / ".scramdb")
        explicit = {"HOME": str(tmp_path), "SCRAM_LOOKUPDB": "/db"}
        assert Registry.locate(explicit).path == "/db"
        with pytest.raises(AreaError, match="set SCRAM_LOOKUPDB or HOME"):
            Registry.locate({"HOME": ""})

    def test_conflicting_location(self, toy):
        area, registry = installed(toy)
        clone = InstallationRecord("ORCA", "7_1_3", "Linux__2.4", "/elsewhere")
        with pytest.raises(AreaError, match="already registered"):
            registry.add(clone)

    def test_listing_format(self, toy):
        _, registry = installed(toy)
        listing = list_installs(registry, "ORCA", ARCH)
        lines = listing.splitlines()
        assert lines[0] == "Listing installed projects...."
        assert lines[1] == ""
        assert lines[2] == "-" * 36
        assert lines[3] == "| Project  | Version  |  Location  |"
        assert lines[4] == "-" * 36
        assert lines[-1] == "Projects available for platform >> Linux__2.4 <<"

    def test_filter_is_exact(self, toy):
        _, registry = installed(toy)
        registry.add(InstallationRecord("COBRA", "1_0_0", "Linux__2.4", "/cobra"))
        listing = list_installs(registry, "ORCA", ARCH)
        assert "COBRA" not in listing
        assert "ORCA" in listing

    def test_empty_registry_lists_header_and_trailer(self, toy):
        registry = Registry.locate(toy.env)
        listing = list_installs(registry, None, ARCH)
        assert "-->" not in listing
        assert listing.endswith(">> Linux__2.4 <<\n")

    def test_arch_filter(self, toy):
        _, registry = installed(toy)
        other = detect_architecture("SunOS__5.8")
        assert "ORCA" not in list_installs(registry, None, other)

    def test_registry_round_trip(self, toy):
        registry = Registry(str(toy.registry_path))
        record = InstallationRecord("P", "1_0", "Linux__2.4", "/with space/path")
        registry.add(record)
        assert registry.records() == [record]

    def test_install_waits_for_registry_lock(self, toy, child_env):
        area, _ = bootstrap(toy)
        assert run_build(area, [], site=SiteInfo.load(str(toy.site_path)),
                         env=toy.env, arch=ARCH) == 0
        with locked(os.path.realpath(toy.registry_path) + ".lock", wait=True):
            child = subprocess.Popen(
                [sys.executable, "-m", "scram.cli", "install"], cwd=area.root,
                env=child_env(toy.env), stdout=subprocess.DEVNULL)
            with pytest.raises(subprocess.TimeoutExpired):
                child.wait(timeout=1.5)
            assert not toy.registry_path.exists()
        assert child.wait(timeout=60) == 0
        assert Registry.locate(toy.env).records() == [
            InstallationRecord("ORCA", "7_1_3", "Linux__2.4", area.root)]

    def test_shared_files_follow_umask_and_symlinks(self, toy):
        shared = toy.root / "shared"
        shared.mkdir()
        toy.registry_path.symlink_to(shared / "scramdb")
        previous = os.umask(0o027)
        try:
            area, _ = installed(toy)
        finally:
            os.umask(previous)
        record = Path(area.root, ".SCRAM", "Linux__2.4", "tools", "boost")
        for path in (record, shared / "scramdb"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027
        assert toy.registry_path.is_symlink()
        assert [r.project for r in Registry.locate(toy.env).records()] == ["ORCA"]

    def test_developer_area_cannot_register(self, toy):
        dev, _ = dev_area(toy)
        with pytest.raises(AreaError, match="developer area"):
            register_install(dev, Registry.locate(toy.env), arch=ARCH)


class TestDevArea:
    def test_linked_layout_and_frugality(self, toy):
        dev, central = dev_area(toy)
        for sub in AREA_SUBDIRS:
            assert (Path(dev.root) / sub).is_dir()
        assert dev.kind == "developer"
        assert dev.central_root() == central.root
        census = tree_census(Path(dev.root))
        # only configuration identity and administrative metadata are local
        assert set(census) == {
            ".SCRAM/Link", ".SCRAM/area", ".SCRAM/state",
            "config/requirements.url",
        }

    def test_unknown_version_lists_available(self, toy):
        _, registry = installed(toy)
        with pytest.raises(AreaError, match="7_1_3"):
            create_dev_area("ORCA", "9_9_9", registry, str(toy.workspace), arch=ARCH)

    def test_unregistered_project(self, toy):
        registry = Registry.locate(toy.env)
        with pytest.raises(AreaError, match="no versions registered"):
            create_dev_area("NOPE", "1", registry, str(toy.workspace), arch=ARCH)

    def test_existing_directory_rejected(self, toy):
        _, registry = installed(toy)
        target = toy.workspace / "ORCA_7_1_3"

        def rejected():
            with pytest.raises(AreaError,
                               match=f"^target directory already exists: {target}$"):
                create_dev_area("ORCA", "7_1_3", registry, str(toy.workspace),
                                arch=ARCH)
            assert os.listdir(toy.workspace) == ["ORCA_7_1_3"]

        target.mkdir()
        rejected()
        target.rmdir()
        target.symlink_to(toy.workspace / "nowhere")
        rejected()

    @pytest.mark.parametrize("failing, error", [
        ("Link", KeyboardInterrupt()),
        ("requirements.url", AreaError("cannot write requirements.url: No space left")),
    ], ids=["interrupted at the Link", "failed at requirements.url"])
    def test_failed_project_leaves_nothing_and_a_rerun_succeeds(
            self, toy, monkeypatch, failing, error):
        _, registry = installed(toy)
        real_write_new = scram.project.write_new

        def write_new(path, data):
            if os.path.basename(path) == failing:
                raise error
            real_write_new(path, data)

        monkeypatch.setattr(scram.project, "write_new", write_new)
        with pytest.raises(type(error)):
            create_dev_area("ORCA", "7_1_3", registry, str(toy.workspace), arch=ARCH)
        assert os.listdir(toy.workspace) == []
        monkeypatch.undo()
        dev = create_dev_area("ORCA", "7_1_3", registry, str(toy.workspace), arch=ARCH)
        assert dev.root == str(toy.workspace / "ORCA_7_1_3")
        assert os.listdir(toy.workspace) == ["ORCA_7_1_3"]
        assert dev.kind == "developer"

    def test_vanished_central_location_rejected(self, toy):
        central, registry = installed(toy)
        shutil.rmtree(central.root)
        with pytest.raises(AreaError, match="gone or is not"):
            create_dev_area("ORCA", "7_1_3", registry, str(toy.workspace), arch=ARCH)


class TestAreaContext:
    def test_walks_up_from_deep_cwd(self, toy):
        dev, _ = dev_area(toy)
        deep = Path(dev.root) / "src" / "pkg" / "deep"
        deep.mkdir(parents=True)
        assert area_context(str(deep)).root == dev.root

    def test_outside_any_area(self, tmp_path):
        with pytest.raises(AreaError, match="not inside a scram area"):
            area_context(str(tmp_path))

    def test_nested_area_inner_wins(self, toy):
        dev, central = dev_area(toy)
        inner_root = Path(central.root) / "src" / "inner"
        inner = ProjectArea.create(str(inner_root), "INNER", "0", central.root)
        assert area_context(str(inner_root)).root == inner.root


class TestToolList:
    def test_inherited_rows(self, toy):
        dev, central = dev_area(toy)
        listing = tool_list(dev, ARCH)
        lines = listing.splitlines()
        assert lines[0] == f"Tool list for location {central.root}"
        assert lines[1] == "+" * 50
        assert lines[2] == " gcc                  2.95.2     (default=2.95.2)"
        assert " boost                1.28.0     (default=1.28.0)" in lines
        assert " htl                  1.4        (default=1.4)" in lines

    def test_local_override_shows_divergence(self, toy):
        dev, _ = dev_area(toy)
        setup_tool(dev, "htl", "1.5", f"file:{toy.specs}/htl.tooldoc",
                   site=SiteInfo({}), env=toy.env, arch=ARCH)
        listing = tool_list(dev, ARCH)
        assert " htl                  1.5        (default=1.4)" in listing

    def test_local_addition_appended(self, toy):
        dev, _ = dev_area(toy)
        extra = toy.specs / "extra.tooldoc"
        extra.write_text("<doc type=BuildSystem::ToolDoc version=1.0>"
                         "<Tool name=extra version=0.1></Tool>")
        setup_tool(dev, "extra", "0.1", f"file:{extra}",
                   site=SiteInfo({}), env=toy.env, arch=ARCH)
        assert " extra                0.1        (default=none)" in tool_list(dev, ARCH)


class TestSetup:
    def test_noop_when_central_complete(self, toy):
        dev, _ = dev_area(toy)
        before = tree_census(Path(dev.root))
        written = setup_tool(dev, site=SiteInfo.load(str(toy.site_path)),
                             env=toy.env, arch=ARCH)
        assert written == []
        assert tree_census(Path(dev.root)) == before

    def test_named_setup_reresolves_locally(self, toy):
        dev, central = dev_area(toy)
        central_census = tree_census(Path(central.root))
        # the site now maps LIBDIR elsewhere; a named setup picks it up locally
        toy.site_path.write_text(
            "tool.boost.BOOST_BASE = /opt/boost2\n"
            "tool.boost.LIBDIR = /opt/boost2/lib\n"
            "tool.boost.INCLUDE = /opt/boost2/include\n"
            "build.command = true\n"
        )
        setup_tool(dev, "boost", site=SiteInfo.load(str(toy.site_path)),
                   env=toy.env, arch=ARCH)
        local_report = tool_info(dev, "boost", ARCH)
        assert "BOOST_BASE=/opt/boost2" in local_report
        assert "Record: local" in local_report
        assert tree_census(Path(central.root)) == central_census
        central_report = tool_info(ProjectArea(central.root), "boost", ARCH)
        assert "BOOST_BASE=/opt/boost" in central_report

    def test_unknown_name_without_url(self, toy):
        dev, _ = dev_area(toy)
        with pytest.raises(ToolError, match="not in the configuration"):
            setup_tool(dev, "nosuch", site=SiteInfo({}), env=toy.env, arch=ARCH)

    def test_url_needs_name_and_version(self, toy):
        dev, _ = dev_area(toy)
        with pytest.raises(AreaError, match="both a name and a version"):
            setup_tool(dev, "htl", url="file:/x", site=SiteInfo({}),
                       env=toy.env, arch=ARCH)

    def test_setup_fills_missing_records(self, toy):
        area, _ = bootstrap(toy)
        victim = Path(area.root) / ".SCRAM" / "Linux__2.4" / "tools" / "gcc"
        victim.unlink()
        written = setup_tool(area, site=SiteInfo.load(str(toy.site_path)),
                             env=toy.env, arch=ARCH)
        assert written == ["gcc"]
        assert victim.exists()

    def test_setup_fills_missing_records_in_dependency_order(self, toy):
        # b needs a, and the configuration selects b first
        (toy.specs / "a.tooldoc").write_text(
            "<doc type=BuildSystem::ToolDoc version=1.0>\n"
            "<Tool name=a version=1>\n"
            "<Environment name=A_BASE value=/opt/a></Environment>\n"
            "</Tool>\n")
        (toy.specs / "b.tooldoc").write_text(
            "<doc type=BuildSystem::ToolDoc version=1.0>\n"
            "<Tool name=b version=1>\n"
            "<External ref=a version=1></External>\n"
            "<Environment name=B_BASE value=$A_BASE/b></Environment>\n"
            "</Tool>\n")
        (toy.specs / "ba.conf").write_text(
            "<doc type=BuildSystem::Configuration version=1.0>\n"
            f'<require name=b version=1 url="file:{toy.specs}/b.tooldoc">\n'
            f'<require name=a version=1 url="file:{toy.specs}/a.tooldoc">\n')
        boot = toy.specs / "ba.boot"
        boot.write_text(
            "<doc type=BuildSystem::BootStrapDoc version=1.0>\n"
            "<project name=BA version=1>\n"
            f'<config url="file:{toy.specs}/ba.conf">\n')
        area, _ = bootstrap_install(f"file:{boot}", str(toy.install_root),
                                    site=SiteInfo({}), env=toy.env, arch=ARCH)
        tools = Path(area.root) / ".SCRAM" / "Linux__2.4" / "tools"
        for name in ("a", "b"):
            (tools / name).unlink()
        written = setup_tool(area, site=SiteInfo({}), env=toy.env, arch=ARCH)
        assert written == ["a", "b"]
        assert "B_BASE=/opt/a/b  [substitution]" in tool_info(area, "b", ARCH)


class TestResolution:
    def test_resolving_writes_nothing_in_the_area(self, toy):
        """Resolution reads the records that externals name and writes no
        file or directory of the area; only the cache may be written."""
        area, _ = bootstrap(toy)
        site = SiteInfo.load(str(toy.site_path))
        engine = build_engine(site, toy.env, str(toy.install_root))
        prefix = area.root + os.sep
        opened, changed = set(), []

        def record(event, args):
            if not (isinstance(args[0], str) and args[0].startswith(prefix)):
                return
            path = args[0][len(prefix):]
            if event in ("os.mkdir", "os.rename"):
                changed.append((event, path))
            elif event == "open":
                mode, flags = args[1], args[2]
                if flags & os.O_CREAT or set(mode or "") & set("wax"):
                    changed.append((event, path))
                else:
                    opened.add(path)

        pins = [load_config_record(area, ARCH).get("boost")]
        records = read_tool_records(area, ARCH)
        with audit_events(record):
            resolved = resolve_selected_tools(engine, pins, records, site)
        assert [rt.name for rt in resolved] == ["boost"]
        assert changed == []
        assert opened == {".SCRAM/Linux__2.4/tools/sockets"}


class TestToolInfo:
    def test_unknown_tool_lists_known(self, toy):
        dev, _ = dev_area(toy)
        with pytest.raises(ToolError) as exc:
            tool_info(dev, "nosuch", ARCH)
        assert "boost" in str(exc.value)

    def test_report_fields(self, toy):
        dev, _ = dev_area(toy)
        report = tool_info(dev, "boost", ARCH)
        assert report.startswith("Tool: boost\nVersion: 1.28.0\n")
        assert "Libraries: boost_thread" in report
        assert "LD_LIBRARY_PATH=/opt/boost/lib  [substitution]" in report
        assert "BOOST_BASE=/opt/boost  [site-file]" in report


class TestRuntimeEnv:
    def test_boost_prepend_present(self, toy):
        dev, _ = dev_area(toy)
        delta = area_environment(dev, ARCH)
        assert ("LD_LIBRARY_PATH", "/opt/boost/lib") in delta.prepends
        assert delta.area_id == "ORCA:7_1_3"

    def test_area_dirs_land_ahead_once_populated(self, toy):
        dev, central = dev_area(toy)
        (Path(central.root) / "lib" / "libproj.so").write_bytes(b"")
        (Path(dev.root) / "lib" / "libmine.so").write_bytes(b"")
        delta = area_environment(dev, ARCH)
        from scram.runtime import apply_delta
        path = apply_delta({}, delta)["LD_LIBRARY_PATH"].split(":")
        assert path[0] == str(Path(dev.root) / "lib")
        assert path[1] == str(Path(central.root) / "lib")
        assert path[-1] == "/opt/boost/lib"

    def test_missing_record_names_tool(self, toy):
        dev, central = dev_area(toy)
        (Path(central.root) / ".SCRAM" / "Linux__2.4" / "tools" / "htl").unlink()
        with pytest.raises(AreaError, match="htl.*scram setup"):
            area_environment(dev, ARCH)

    def test_relocated_area_identical_outputs(self, toy):
        dev, _ = dev_area(toy)
        setup_tool(dev, "htl", "1.5", f"file:{toy.specs}/htl.tooldoc",
                   site=SiteInfo({}), env=toy.env, arch=ARCH)
        from scram.runtime import emit_shell
        before_list = tool_list(dev, ARCH)
        before_rt = emit_shell(area_environment(dev, ARCH), {}, "sh")
        moved = toy.workspace / "ORCA_renamed"
        os.rename(dev.root, moved)
        relocated = area_context(str(moved))
        assert tool_list(relocated, ARCH) == before_list
        assert emit_shell(area_environment(relocated, ARCH), {}, "sh") == before_rt


def synthetic_tool(name, bindings=None, runtime=None):
    base = f"/opt/{name}"
    if bindings is None:
        bindings = {f"{name.upper()}_BASE": base, "SHARED_FLAGS": f"-I{base}",
                    "LD_LIBRARY_PATH": f"{base}/lib"}
    if runtime is None:
        runtime = [("PATH", f"{base}/bin"), ("LD_LIBRARY_PATH", f"{base}/lib")]
    return ResolvedTool(name=name, version="1.0", bindings=bindings,
                        runtime_entries=runtime, lib_names=[name], provenance={})


def synthetic_areas(root: Path, tools: list[ResolvedTool]):
    """A central area whose configuration pins ``tools``, each with a
    resolved record, and a developer area linked to it that overrides the
    first tool and adds one unconfigured tool of its own."""
    central = ProjectArea.create(str(root / "central"), "SYN", "1_0")
    for rt in tools:
        write_tool_record(central, ARCH, rt)
    pins = {rt.name: PinnedTool(rt.name, rt.version, f"file:/specs/{rt.name}")
            for rt in tools}
    _write_config_record(central, ARCH, pins)
    (Path(central.root) / "bin" / "tool").write_bytes(b"")
    dev = ProjectArea.create(str(root / "dev"), "SYN", "1_0",
                             link_target=central.root)
    write_tool_record(dev, ARCH, synthetic_tool(tools[0].name, bindings={},
                                                runtime=[("PATH", "/dev/bin")]))
    write_tool_record(dev, ARCH, synthetic_tool("zzextra"))
    (Path(dev.root) / "lib" / "libmine.so").write_bytes(b"")
    return central, dev


def one_delta_per_tool(area, contribution):
    """The environment as a fold that builds a new delta for every tool."""
    delta = functools.reduce(EnvDelta.merge,
                             map(contribution, _tools_in_runtime_order(area, ARCH)),
                             EnvDelta(area_id=area.area_id))
    _area_level_prepends(area, delta)
    return delta


def compute_runtime_env(area, arch):
    return area_environment(area, arch)


def build_environment(area, arch):
    return area_environment(area, arch, build=True)


ENVIRONMENTS = [(compute_runtime_env, runtime_contribution),
                (build_environment, build_contribution)]


class TestEnvironmentAccumulation:
    @pytest.mark.parametrize("build, contribution", ENVIRONMENTS)
    def test_toy_project_matches_one_delta_per_tool(self, toy, build, contribution):
        dev, central = dev_area(toy)
        (Path(central.root) / "lib" / "libproj.so").write_bytes(b"")
        for area in (dev, central):
            got, want = build(area, ARCH), one_delta_per_tool(area, contribution)
            assert (got.sets, got.prepends, got.area_id) == (
                want.sets, want.prepends, want.area_id)
            assert got.prepends

    @pytest.mark.parametrize("build, contribution", ENVIRONMENTS)
    def test_synthetic_records_match_one_delta_per_tool(self, tmp_path, build,
                                                        contribution):
        tools = [synthetic_tool(f"t{i:02d}") for i in range(30)]
        for area in synthetic_areas(tmp_path, tools):
            got, want = build(area, ARCH), one_delta_per_tool(area, contribution)
            assert (got.sets, got.prepends, got.area_id) == (
                want.sets, want.prepends, want.area_id)
            assert emit_shell(got, {"PATH": "/bin"}, "sh") == emit_shell(
                want, {"PATH": "/bin"}, "sh")

    @pytest.mark.parametrize("first, second, held", [
        (synthetic_tool("a", bindings={"X": "1"}, runtime=[]),
         synthetic_tool("b", bindings={}, runtime=[("X", "/b")]), "setting"),
        (synthetic_tool("a", bindings={}, runtime=[("X", "/a")]),
         synthetic_tool("b", bindings={"X": "1"}, runtime=[]), "prepend"),
    ])
    def test_plain_setting_and_runtime_path_of_one_name_conflict(
            self, tmp_path, first, second, held):
        central, _ = synthetic_areas(tmp_path, [first, second])
        with pytest.raises(EnvEmitError, match=f"'X' is already a {held}"):
            build_environment(central, ARCH)
        with pytest.raises(EnvEmitError):
            one_delta_per_tool(central, build_contribution)

    @pytest.mark.parametrize("n", [10, 100])
    @pytest.mark.parametrize("build", [compute_runtime_env, build_environment])
    def test_each_emitted_entry_is_checked_once(self, tmp_path, monkeypatch, n,
                                                build):
        # a fold that re-merges per tool re-checks every earlier entry
        central, _ = synthetic_areas(tmp_path, [synthetic_tool(f"t{i:03d}")
                                                for i in range(n)])
        calls = []
        check = scram.runtime._check_name
        monkeypatch.setattr(scram.runtime, "_check_name",
                            lambda name: calls.append(name) or check(name))
        delta = build(central, ARCH)
        assert len(calls) == len(delta.sets) + len(delta.prepends) >= 2 * n

    def test_central_root_resolved_once_per_area(self, tmp_path, monkeypatch):
        _, dev = synthetic_areas(tmp_path, [synthetic_tool(f"t{i}") for i in range(5)])
        reads = []
        link_target = ProjectArea.link_target
        monkeypatch.setattr(ProjectArea, "link_target",
                            lambda self: reads.append(self) or link_target(self))
        tool_list(dev, ARCH)
        area_environment(dev, ARCH)
        build_environment(dev, ARCH)
        assert reads == [dev]


class TestRecordIndex:
    def test_local_record_wins_in_the_inherited_position(self, tmp_path):
        central, dev = synthetic_areas(tmp_path, [synthetic_tool(f"t{i}")
                                                  for i in range(3)])
        assert "Record: local" in tool_info(dev, "T0", ARCH)
        assert "Record: central" in tool_info(dev, "t1", ARCH)
        assert "Record: local" in tool_info(central, "t1", ARCH)
        with pytest.raises(ToolError, match=r"known tools: t0, t1, t2, zzextra\)"):
            tool_info(dev, "nosuch", ARCH)
        assert tool_list(dev, ARCH).splitlines()[2:] == [
            " t0                   1.0        (default=1.0)",
            " t1                   1.0        (default=1.0)",
            " t2                   1.0        (default=1.0)",
            " zzextra              1.0        (default=none)",
        ]

    def test_record_lookups_do_not_grow_with_tool_count(self, tmp_path,
                                                         monkeypatch):
        # one listing per tools directory, never a stat per record
        calls = []
        tools = os.path.join(".SCRAM", ARCH, "tools")

        def counted(real):
            def wrapper(path):
                if tools in str(path):
                    calls.append(path)
                return real(path)
            return wrapper

        for owner, name in ((os.path, "exists"), (os.path, "isdir"),
                            (os, "listdir")):
            monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
        counts = {}
        for n in (10, 100):
            _, dev = synthetic_areas(tmp_path / str(n),
                                     [synthetic_tool(f"t{i:03d}") for i in range(n)])
            calls.clear()
            area_environment(dev, ARCH)
            tool_list(dev, ARCH)
            counts[n] = len(calls)
        assert counts[10] == counts[100] > 0


class TestStateReaders:
    RECORD = {"name": "t", "version": "1.0", "bindings": {"T_BASE": "/t"},
              "runtime": [["PATH", "/t/bin"]], "libs": ["t"],
              "provenance": {"T_BASE": "site-file"}}

    @pytest.mark.parametrize("change, message", [
        ({"version": None}, "lacks 'version'"),
        ({"name": 7}, "has a malformed 'name'"),
        ({"bindings": {"T_BASE": 1}}, "has a malformed 'bindings'"),
        ({"runtime": "PATH"}, "has a malformed 'runtime'"),
        ({"runtime": [["PATH", "/a", "/b"]]}, "has a malformed 'runtime'"),
        ({"externals": [[1, "1.0"]]}, "has a malformed 'externals'"),
    ])
    def test_malformed_tool_record(self, tmp_path, change, message):
        central, _ = synthetic_areas(tmp_path, [synthetic_tool("t")])
        record = {k: v for k, v in {**self.RECORD, **change}.items()
                  if v is not None}
        path = Path(central.root) / ".SCRAM" / ARCH / "tools" / "t"
        path.write_text(json.dumps(record))
        with pytest.raises(AreaError) as exc:
            area_environment(central, ARCH)
        assert str(exc.value) == f"tool record {path} {message}"

    @pytest.mark.parametrize("payload, message", [
        ({"identity": ["", ""]}, "lacks 'tools'"),
        ({"tools": {}}, "has a malformed 'tools'"),
        ({"tools": [{"name": "t", "version": "1", "spec_url": 5}]},
         "has a malformed 'spec_url'"),
        ({"tools": [{"name": "t", "version": 1, "spec_url": "u"}]},
         "has a malformed 'version'"),
    ])
    def test_malformed_configuration_record(self, tmp_path, payload, message):
        central, _ = synthetic_areas(tmp_path, [synthetic_tool("t")])
        path = Path(central.config_record_path(ARCH))
        path.write_text(json.dumps(payload))
        with pytest.raises(AreaError) as exc:
            tool_list(central, ARCH)
        assert str(exc.value) == f"configuration record {path} {message}"

    def test_spec_base_and_identity_may_be_absent(self, tmp_path):
        central, _ = synthetic_areas(tmp_path, [synthetic_tool("t")])
        path = Path(central.config_record_path(ARCH))
        path.write_text(json.dumps(
            {"tools": [{"name": "t", "version": "1.0", "spec_url": "u"}]}))
        assert "t " in tool_list(central, ARCH)


# JSON of the shapes the state readers check, with their field names as keys
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(
                       ["name", "version", "bindings", "runtime", "libs", "provenance",
                        "descriptions", "externals", "tools", "identity", "spec_url",
                        "spec_base", "x"]) | st.text(max_size=4), inner, max_size=6)),
    max_leaves=20)
# text made of the pieces of the line formats and of an app-env document
_PIECES = st.lists(st.sampled_from(
    ["<doc type=BuildSystem::AppEnvDoc version=1.0>",
     "<doc type=BuildSystem::AppEnvDoc version=²>",
     "<Environment", " name=A", " name=SCRAMRT_SET", " value=", "/v", " type=",
     "Runtime_path", "Weird", '"', ">", "</Environment>", "project", "version",
     " = ", "=", "#", "/abs", "P 1 Linux__2.4 /p", " ", "\n", "\x00", "é"]),
    max_size=30).map("".join)
ANY_BYTES = st.one_of(
    st.binary(max_size=200),
    _JSON.map(lambda value: json.dumps(value).encode()),
    st.one_of(_PIECES, st.text(max_size=100)).map(
        lambda text: text.encode("utf-8", "surrogatepass")))


class TestAnyBytes:
    """Every reader of local state, given any bytes for its file, returns a
    result or raises a ScramError, never another exception."""

    # reader -> (its file below the area root, the read)
    READERS = {
        "tool record": (".SCRAM/Linux__2.4/tools/t",
                        lambda area, path: _load_record(path)),
        "configuration record": (".SCRAM/Linux__2.4/configuration",
                                 lambda area, path: load_config_record(area, ARCH)),
        "registry": ("scramdb", lambda area, path: Registry(path).records()),
        "site file": ("site.cfg", lambda area, path: SiteInfo.load(path)),
        "area": (".SCRAM/area", lambda area, path: area.identity()),
        "state": (".SCRAM/state", lambda area, path: area.state()),
        "link": (".SCRAM/Link", lambda area, path: area.link_target()),
        "app-env": ("config/app-env/app",
                    lambda area, path: load_app_env_file(area.root, "app")),
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=ANY_BYTES)
    @example(data=b"[" * 100000)
    @example(data=b'{"tools": [' + b"[" * 100000)
    @example(data="<doc type=BuildSystem::AppEnvDoc version=²>".encode())
    def test_a_result_or_one_scram_error(self, tmp_path, reader, data):
        rel, read = self.READERS[reader]
        path = tmp_path / "area" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        try:
            read(ProjectArea(str(tmp_path / "area")), str(path))
        except ScramError:
            pass

    PACK_URL = parse_url("stub:doc")
    PACK_KEY = PACK_URL.cache_key("1.0")
    _GOOD = b"served"
    _GOOD_HASH = hashlib.sha256(_GOOD).hexdigest()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(
        ANY_BYTES,
        # any bytes as the index of a pack, or as its contents
        st.tuples(st.binary(max_size=40), ANY_BYTES).map(
            lambda parts: parts[0] + parts[1] + footer(len(parts[0]))),
        # any JSON as this key's index entry
        st.tuples(st.binary(max_size=40), _JSON).map(
            lambda parts: make_pack(parts[0], {TestAnyBytes.PACK_KEY: parts[1]}))))
    @example(data=make_pack(_GOOD, {PACK_KEY: [0, 6, _GOOD_HASH, 1.0]}))
    @example(data=make_pack(_GOOD, {PACK_KEY: [0, 6, "0" * 64, 1.0]}))
    @example(data=make_pack(_GOOD, {PACK_KEY: [-1, 6, _GOOD_HASH, 1.0]}))
    @example(data=make_pack(_GOOD, {PACK_KEY: [0, 10**30, _GOOD_HASH, 1.0]}))
    @example(data=make_pack(_GOOD, {PACK_KEY: [0, 6, _GOOD_HASH, "NaN"]}))
    @example(data=_GOOD + b"[" * 100000 + footer(6))
    @example(data=_GOOD + footer(10**15))
    @example(data=footer(0)[:-1] + b"g")
    def test_a_cache_pack_gives_a_verified_hit_or_a_miss(self, tmp_path, data):
        root = tmp_path / "cache"
        shutil.rmtree(root, ignore_errors=True)
        (root / "packs").mkdir(parents=True)
        (root / "packs" / "1.1.00000000.pack").write_bytes(data)
        calls = []

        def adapter(url, version):
            calls.append(version)
            return b"fetched"

        cache = UrlCache(str(root), SchemeRegistry({"stub": adapter}))
        try:
            content, content_hash = cache.fetch(self.PACK_URL, "1.0")
        finally:
            cache.publish()
        assert hashlib.sha256(content).hexdigest() == content_hash
        if calls:
            assert content == b"fetched"
        else:
            assert content_hash.encode() in data


_TEXT = st.text(max_size=4)
# each tool record field well formed, malformed or missing
_RECORD_VALUES = {
    "name": _TEXT, "version": _TEXT,
    "bindings": st.dictionaries(_TEXT, _TEXT, max_size=3),
    "provenance": st.dictionaries(_TEXT, _TEXT, max_size=3),
    "descriptions": st.dictionaries(_TEXT, _TEXT, max_size=3),
    "libs": st.lists(_TEXT, max_size=3),
    "runtime": st.lists(st.lists(_TEXT, min_size=2, max_size=2), max_size=3),
    "externals": st.lists(st.lists(_TEXT, min_size=2, max_size=2), max_size=3),
}
_ABSENT = object()
# each field is well formed in 10 draws of 12, so many whole records are
_RECORDS = st.fixed_dictionaries({
    key: st.sampled_from([good] * 10 + [_JSON, st.just(_ABSENT)]).flatmap(
        lambda values: values)
    for key, good in _RECORD_VALUES.items()}).map(
        lambda record: {k: v for k, v in record.items() if v is not _ABSENT})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_RECORDS)
def test_tool_record_check_matches_the_field_by_field_check(tmp_path, payload):
    """``_load_record`` checks every field in one pass, and must accept what
    the field-by-field checks of ``_TOOL_RECORD_FIELDS`` accept and fail
    with the first of their errors otherwise."""
    path = str(tmp_path / "t")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    try:
        fields = [_field(payload, key, valid, "tool record", path, default)
                  for key, valid, default in _TOOL_RECORD_FIELDS]
    except AreaError as expected:
        with pytest.raises(AreaError) as exc:
            _load_record(path)
        assert str(exc.value) == str(expected)
        return
    name, version, bindings, runtime, libs, provenance, descriptions, externals = fields
    assert _load_record(path) == ResolvedTool(
        name, version, bindings, list(map(tuple, runtime)), libs, provenance,
        descriptions, list(map(tuple, externals)))


class TestProbing:
    def test_each_candidate_directory_is_listed_once(self, tmp_path, monkeypatch):
        # tool i's library sits in subdirectory i % 10 of the one search
        # root, so every probe after the first nine scans several
        # directories; the last tool's is the last one scanned
        listed = []
        real_listdir = os.listdir

        def counted(path):
            if "libroot" in str(path):
                listed.append(str(path))
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", counted)
        counts = {}
        for n in (10, 100):
            root = tmp_path / str(n)
            libroot = root / "libroot"
            pins = []
            for i in range(n):
                libdir = libroot / f"d{i % 10}"
                libdir.mkdir(parents=True, exist_ok=True)
                (libdir / f"libt{i}.so").write_bytes(b"")
                spec = root / "specs" / f"t{i}.tooldoc"
                spec.parent.mkdir(parents=True, exist_ok=True)
                spec.write_text(
                    "<doc type=BuildSystem::ToolDoc version=1.0>\n"
                    f"<Tool name=t{i} version=1.0><Lib name=t{i}>\n"
                    "<Client><Environment name=LIBDIR type=lib></Environment>"
                    "</Client></Tool>\n")
                pins.append(PinnedTool(f"t{i}", "1.0", f"file:{spec}"))
            site = SiteInfo({"search.libroots": str(libroot)})
            engine = build_engine(site, {"SCRAM_CACHE": str(root / "cache")}, str(root))
            listed.clear()
            resolved = resolve_selected_tools(engine, pins, {}, site)
            assert [rt.bindings["LIBDIR"] for rt in resolved] == [
                str(libroot / f"d{i % 10}") for i in range(n)]
            assert len(listed) == len(set(listed))
            counts[n] = len(listed)
        assert counts[10] == counts[100] == 11


class TestBuildAndLock:
    def test_build_failure_propagates_and_keeps_state(self, toy):
        area, _ = bootstrap(toy)
        toy.site_path.write_text(
            toy.site_path.read_text().replace("build.command = true",
                                              "build.command = false"))
        code = run_build(area, [], site=SiteInfo.load(str(toy.site_path)),
                         env=toy.env, arch=ARCH)
        assert code != 0
        assert area.state() == "incomplete"

    def test_missing_build_command(self, toy):
        area, _ = bootstrap(toy)
        with pytest.raises(AreaError, match="build.command"):
            run_build(area, [], site=SiteInfo({}), env=toy.env, arch=ARCH)

    def test_area_lock_excludes_second_holder(self, toy):
        area, _ = bootstrap(toy)
        with area.lock():
            with pytest.raises(AreaError, match="area lock"):
                with area.lock():
                    pass
        with area.lock():
            pass  # released cleanly

    def test_area_lock_of_killed_holder_is_free(self, toy, kill_when_held):
        area, _ = bootstrap(toy)
        kill_when_held(
            "import time\n"
            "from scram.project import ProjectArea\n"
            f"with ProjectArea({area.root!r}).lock():\n"
            "    print('held', flush=True)\n"
            "    time.sleep(60)\n")
        with area.lock():
            pass
