import fnmatch
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from scram.errors import ToolError
from scram.markup import strip_doc_header, tokenize_markup
from scram.runtime import apply_delta
from scram.sitefile import SiteInfo
from scram.tooldoc import (
    LibraryProber,
    ResolvedTool,
    VarType,
    order_by_externals,
    parse_tool_doc,
    resolve_tool,
    select_version,
)

from envhelpers import build_contribution, runtime_contribution


def spec_of(text):
    return parse_tool_doc(strip_doc_header(tokenize_markup(text)))


def client_vars(block):
    return [v for v in block.variables if v.client]


def derived_vars(block):
    return [v for v in block.variables if not v.client]


def is_empty(delta):
    return not delta.sets and not delta.prepends


@pytest.fixture(scope="module")
def boost_spec(boost_text):
    return spec_of(boost_text)


SOCKETS = ResolvedTool(
    name="sockets", version="1.0", bindings={}, runtime_entries=[],
    lib_names=[], provenance={},
)

BOOST_SITE = SiteInfo({
    "tool.boost.BOOST_BASE": "/opt/boost",
    "tool.boost.LIBDIR": "/opt/boost/lib",
    "tool.boost.INCLUDE": "/opt/boost/include",
})


class TestParseToolDoc:
    def test_boost_fixture_shape(self, boost_spec):
        assert boost_spec.name == "Boost"
        assert boost_spec.versions() == ["1.28.0", "1.29.0", "1.30.0"]
        for block in boost_spec.blocks:
            assert block.libs == ["boost_thread"]
            assert [(v.name, v.var_type) for v in client_vars(block)] == [
                ("BOOST_BASE", VarType.PLAIN),
                ("LIBDIR", VarType.LIB),
                ("INCLUDE", VarType.PLAIN),
            ]
            assert [(v.name, v.var_type, v.value) for v in derived_vars(block)] == [
                ("LD_LIBRARY_PATH", VarType.RUNTIME_PATH, "$LIBDIR"),
            ]
            assert [(e.ref, e.version) for e in block.externals] == [("sockets", "1.0")]
            assert block.description_of("BOOST_BASE") == "The top of the Boost distribution."
            assert block.description_of("external:sockets") == "We need the sockets libs"

    def test_minimal_tool(self):
        spec = spec_of("<Tool name=T version=1>")
        (block,) = spec.blocks
        assert block.libs == [] and block.variables == [] and block.externals == []

    def test_undefined_reference_parses_but_fails_resolution(self):
        text = ("<Tool name=T version=1>"
                "<Environment name=A value=$UNDEF></Environment>"
                "</Tool>")
        spec = spec_of(text)  # parse accepted
        with pytest.raises(ToolError, match="undefined '\\$UNDEF'"):
            resolve_tool(spec.blocks[0], tool_name="T", site=SiteInfo({}))

    def test_later_declared_reference_is_error_not_empty(self):
        text = ("<Tool name=T version=1>"
                "<Environment name=A value=$B></Environment>"
                "<Environment name=B value=/x></Environment>"
                "</Tool>")
        spec = spec_of(text)
        with pytest.raises(ToolError, match="undefined '\\$B'"):
            resolve_tool(spec.blocks[0], tool_name="T", site=SiteInfo({}))

    def test_permuting_independent_derived_vars_changes_nothing(self):
        forward = ("<Tool name=T version=1>"
                   "<Environment name=A value=/a></Environment>"
                   "<Environment name=B value=/b></Environment>"
                   "</Tool>")
        swapped = ("<Tool name=T version=1>"
                   "<Environment name=B value=/b></Environment>"
                   "<Environment name=A value=/a></Environment>"
                   "</Tool>")
        r1 = resolve_tool(spec_of(forward).blocks[0], tool_name="T", site=SiteInfo({}))
        r2 = resolve_tool(spec_of(swapped).blocks[0], tool_name="T", site=SiteInfo({}))
        assert r1.bindings == r2.bindings

    def test_reference_to_earlier_variable_accepted(self):
        text = ("<Tool name=T version=1>"
                "<Environment name=A value=/x></Environment>"
                "<Environment name=B value=$A/sub></Environment>"
                "</Tool>")
        spec = spec_of(text)
        assert derived_vars(spec.blocks[0])[1].value == "$A/sub"

    def test_environment_outside_tool_block(self):
        with pytest.raises(ToolError, match="outside any <Tool>"):
            spec_of("<Environment name=X></Environment>")

    def test_info_outside_tool_block(self):
        with pytest.raises(ToolError, match="<info> outside any <Tool>"):
            spec_of("<info url=http://www.boost.org></info>")

    def test_duplicate_variable_in_block(self):
        text = ("<Tool name=T version=1>"
                "<Environment name=A value=1></Environment>"
                "<Environment name=A value=2></Environment>"
                "</Tool>")
        with pytest.raises(ToolError, match="duplicate variable 'A'"):
            spec_of(text)

    def test_client_variable_with_value_rejected(self):
        text = ("<Tool name=T version=1><Client>"
                "<Environment name=A value=nope></Environment>"
                "</Client></Tool>")
        with pytest.raises(ToolError, match="must not carry a value"):
            spec_of(text)

    def test_client_flag_holds_only_between_client_tags(self):
        text = ("<Tool name=T version=1>"
                "<Environment name=BEFORE value=1></Environment>"
                "<Client><Environment name=INSIDE></Environment></Client>"
                "<Environment name=AFTER value=2></Environment>"
                "</Client><Environment name=STRAY value=3></Environment>"
                "</Tool>")
        (block,) = spec_of(text).blocks
        assert [(v.name, v.client) for v in block.variables] == [
            ("BEFORE", False), ("INSIDE", True), ("AFTER", False), ("STRAY", False)]

    def test_mixed_product_names_rejected(self):
        with pytest.raises(ToolError, match="one product"):
            spec_of("<Tool name=A version=1></Tool><Tool name=B version=1></Tool>")

    def test_self_external_rejected(self):
        text = "<Tool name=T version=1><External ref=T version=1></External></Tool>"
        with pytest.raises(ToolError, match="cannot depend on itself"):
            spec_of(text)


class TestSelectVersion:
    def test_exact_match(self, boost_spec):
        assert select_version(boost_spec, "1.29.0").version == "1.29.0"

    def test_absent_version_lists_available(self, boost_spec):
        with pytest.raises(ToolError) as exc:
            select_version(boost_spec, "1.31.0")
        message = str(exc.value)
        assert "1.28.0" in message and "1.29.0" in message and "1.30.0" in message

    def test_selection_independent_of_block_order(self, boost_text):
        # permute the three Tool blocks; same outcome
        import re
        blocks = re.findall(r"<Tool .*?</Tool>", boost_text, re.S)
        assert len(blocks) == 3
        permuted = "<doc type=BuildSystem::ToolDoc version=1.0>\n" + "\n".join(
            [blocks[2], blocks[0], blocks[1]])
        original = select_version(spec_of(boost_text), "1.29.0")
        shuffled = select_version(spec_of(permuted), "1.29.0")
        assert original == shuffled

    def test_no_fuzzy_matching(self, boost_spec):
        with pytest.raises(ToolError):
            select_version(boost_spec, "1.29")


class TestResolveTool:
    def resolve_boost(self, boost_spec, **kwargs):
        block = select_version(boost_spec, "1.28.0")
        defaults = dict(tool_name="Boost", site=BOOST_SITE,
                        already_resolved={"sockets": SOCKETS})
        defaults.update(kwargs)
        return resolve_tool(block, **defaults)

    def test_boost_with_complete_site_file(self, boost_spec):
        rt = self.resolve_boost(boost_spec)
        assert rt.bindings == {
            "BOOST_BASE": "/opt/boost",
            "LIBDIR": "/opt/boost/lib",
            "INCLUDE": "/opt/boost/include",
            "LD_LIBRARY_PATH": "/opt/boost/lib",
        }
        assert rt.runtime_entries == [("LD_LIBRARY_PATH", "/opt/boost/lib")]
        assert rt.provenance["BOOST_BASE"] == "site-file"
        assert rt.provenance["LD_LIBRARY_PATH"] == "substitution"
        assert rt.lib_names == ["boost_thread"]
        assert rt.externals == [("sockets", "1.0")]

    def test_no_unexpanded_dollar_anywhere(self, boost_spec):
        rt = self.resolve_boost(boost_spec)
        assert not [v for v in rt.bindings.values() if "$" in v]

    def test_block_with_nothing_to_map(self):
        spec = spec_of("<Tool name=T version=1>"
                       "<Environment name=A value=fixed></Environment></Tool>")
        rt = resolve_tool(spec.blocks[0], tool_name="T", site=SiteInfo({}))
        assert rt.bindings == {"A": "fixed"}

    def test_probe_binds_library_directory(self, boost_spec, tmp_path):
        libdir = tmp_path / "sub" / "boost-1.28"
        libdir.mkdir(parents=True)
        (libdir / "libboost_thread.so").write_bytes(b"")
        site = SiteInfo({
            "tool.boost.BOOST_BASE": "/opt/boost",
            "tool.boost.INCLUDE": "/opt/boost/include",
        })
        prober = LibraryProber([str(tmp_path / "sub")])
        rt = self.resolve_boost(boost_spec, site=site, prober=prober)
        assert rt.bindings["LIBDIR"] == str(libdir)
        assert rt.provenance["LIBDIR"] == "probe"

    def test_untyped_client_var_never_probed(self, boost_spec, tmp_path):
        # INCLUDE has no declared type: only site file or prompt may bind it
        site = SiteInfo({
            "tool.boost.BOOST_BASE": "/opt/boost",
            "tool.boost.LIBDIR": "/opt/boost/lib",
        })
        prober = LibraryProber([str(tmp_path)])
        with pytest.raises(ToolError, match="INCLUDE"):
            self.resolve_boost(boost_spec, site=site, prober=prober)

    def test_prompt_callback_used_as_last_resort(self, boost_spec):
        asked = []

        def prompt(tool, var, hint):
            asked.append((tool, var, hint))
            return f"/answered/{var}"

        rt = self.resolve_boost(boost_spec, site=SiteInfo({}), prompt=prompt)
        assert rt.bindings["BOOST_BASE"] == "/answered/BOOST_BASE"
        assert rt.provenance["BOOST_BASE"] == "prompt"
        assert asked[0] == ("Boost", "BOOST_BASE", "The top of the Boost distribution.")

    def test_unresolvable_error_carries_hint(self, boost_spec):
        with pytest.raises(ToolError) as exc:
            self.resolve_boost(boost_spec, site=SiteInfo({}))
        message = str(exc.value)
        assert "BOOST_BASE" in message
        assert "The top of the Boost distribution." in message

    def test_missing_external(self, boost_spec):
        with pytest.raises(ToolError, match="sockets.*not resolved"):
            self.resolve_boost(boost_spec, already_resolved={})

    def test_external_version_mismatch(self, boost_spec):
        wrong = ResolvedTool(name="sockets", version="2.0", bindings={},
                             runtime_entries=[], lib_names=[], provenance={})
        with pytest.raises(ToolError, match="'sockets' 1.0 exactly, found 2.0"):
            self.resolve_boost(boost_spec, already_resolved={"sockets": wrong})

    def test_external_bindings_importable(self):
        dep = ResolvedTool(name="base", version="1.0",
                           bindings={"BASE_DIR": "/dep"}, runtime_entries=[],
                           lib_names=[], provenance={})
        spec = spec_of("<Tool name=T version=1>"
                       "<External ref=base version=1.0></External>"
                       "<Environment name=SUB value=$BASE_DIR/sub></Environment>"
                       "</Tool>")
        rt = resolve_tool(spec.blocks[0], tool_name="T", site=SiteInfo({}),
                          already_resolved={"base": dep})
        assert rt.bindings["SUB"] == "/dep/sub"

    def test_determinism_with_fixed_inputs(self, boost_spec):
        assert self.resolve_boost(boost_spec) == self.resolve_boost(boost_spec)


class TestOrdering:
    def test_external_order_and_cycle(self):
        a = spec_of("<Tool name=A version=1><External ref=B version=1></External></Tool>")
        b = spec_of("<Tool name=B version=1></Tool>")
        order = order_by_externals({"a": a.blocks[0], "b": b.blocks[0]})
        assert order.index("b") < order.index("a")

        x = spec_of("<Tool name=X version=1><External ref=Y version=1></External></Tool>")
        y = spec_of("<Tool name=Y version=1><External ref=X version=1></External></Tool>")
        with pytest.raises(ToolError, match="cycle"):
            order_by_externals({"x": x.blocks[0], "y": y.blocks[0]})


class TestContributions:
    def test_boost_runtime_prepend(self, boost_spec):
        rt = resolve_tool(select_version(boost_spec, "1.28.0"), tool_name="Boost",
                          site=BOOST_SITE, already_resolved={"sockets": SOCKETS})
        delta = runtime_contribution(rt)
        assert delta.prepends == [("LD_LIBRARY_PATH", "/opt/boost/lib")]
        assert delta.sets == []

    def test_zero_runtime_vars_empty_fragment(self):
        spec = spec_of("<Tool name=T version=1>"
                       "<Environment name=A value=x></Environment></Tool>")
        rt = resolve_tool(spec.blocks[0], tool_name="T", site=SiteInfo({}))
        assert is_empty(runtime_contribution(rt))

    def test_two_tools_prepend_in_selection_order(self):
        # delta order fixed by construction; later entry ends up ahead
        def tool(name, libdir):
            spec = spec_of(
                f"<Tool name={name} version=1>"
                f"<Environment name=LIBDIR value={libdir}></Environment>"
                f"<Environment name=LD_LIBRARY_PATH value=$LIBDIR type=Runtime_path>"
                f"</Environment></Tool>")
            return resolve_tool(spec.blocks[0], tool_name=name, site=SiteInfo({}))

        first = runtime_contribution(tool("A", "/a/lib"))
        second = runtime_contribution(tool("B", "/b/lib"))
        merged = first.merge(second)
        out = apply_delta({}, merged)
        assert out["LD_LIBRARY_PATH"] == "/b/lib:/a/lib"

    def test_build_contribution_exports_plain_bindings(self, boost_spec):
        rt = resolve_tool(select_version(boost_spec, "1.28.0"), tool_name="Boost",
                          site=BOOST_SITE, already_resolved={"sockets": SOCKETS})
        delta = build_contribution(rt)
        out = apply_delta({}, delta)
        assert out["INCLUDE"] == "/opt/boost/include"
        assert out["LD_LIBRARY_PATH"] == "/opt/boost/lib"


class TestLibraryProber:
    def test_first_match_in_scan_order(self, tmp_path):
        first = tmp_path / "r1"
        second = tmp_path / "r2"
        for d in (first, second):
            d.mkdir()
        (second / "libz.so").write_bytes(b"")
        (first / "nested").mkdir()
        (first / "nested" / "libz.so.1.2").write_bytes(b"")
        prober = LibraryProber([str(first), str(second)],
                               patterns=["lib{name}.so", "lib{name}.so.*"])
        assert prober.find_library_dir(["z"]) == str(first / "nested")

    def test_root_beats_its_subdirectories(self, tmp_path):
        (tmp_path / "a").mkdir()
        for d in (tmp_path, tmp_path / "a"):
            (d / "libz.a").write_bytes(b"")
        assert LibraryProber([str(tmp_path)]).find_library_dir(["z"]) == str(tmp_path)

    def test_sorted_first_subdirectory_wins(self, tmp_path):
        for sub in ("m", "b", "x"):  # created out of order
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "libz.so").write_bytes(b"")
        (tmp_path / "a").mkdir()  # no library here
        prober = LibraryProber([str(tmp_path)])
        assert prober.find_library_dir(["z"]) == str(tmp_path / "b")

    def test_one_prober_serves_many_probes(self, tmp_path):
        for i in range(3):
            (tmp_path / f"d{i}").mkdir()
            (tmp_path / f"d{i}" / f"libt{i}.so.{i}").write_bytes(b"")
        prober = LibraryProber([str(tmp_path)])
        for _ in range(2):
            assert [prober.find_library_dir([f"t{i}"]) for i in range(3)] == [
                str(tmp_path / f"d{i}") for i in range(3)]
        assert prober.find_library_dir(["nosuch", "t2"]) == str(tmp_path / "d2")
        assert prober.find_library_dir(["t"]) is None  # a name, not a prefix

    def test_no_match(self, tmp_path):
        prober = LibraryProber([str(tmp_path)])
        assert prober.find_library_dir(["missing"]) is None

    def test_missing_roots_skipped(self):
        prober = LibraryProber(["/no/such/root"])
        assert prober.find_library_dir(["z"]) is None


def scan_for_library(roots, patterns, lib_names):
    """The directory-by-directory scan that the prober's name index
    replaced, kept as the reference for it."""
    globs = [pattern.format(name=name) for name in lib_names for pattern in patterns]
    if not globs:
        return None
    wanted = re.compile("|".join(map(fnmatch.translate, globs)))

    def listing(directory):
        try:
            return os.listdir(directory)
        except OSError:
            return []

    for root in roots:
        if not os.path.isdir(root):
            continue
        subdirs = [os.path.join(root, e) for e in sorted(listing(root))]
        for directory in [root] + [d for d in subdirs if os.path.isdir(d)]:
            if any(map(wanted.match, listing(directory))):
                return directory
    return None


_LIB_NAMES = st.sampled_from(["z", "zz", "a?", "b*", "x[1]", "y.so"])
_FILE_NAMES = st.sampled_from(
    ["libz.so", "libz.so.1", "libz.a", "libzz.so", "libzz.so.2.0", "liba?.so",
     "libab.so", "libb.so.9", "libbee.a", "libx1.so", "libx[1].so", "liby.so.so",
     "libz.sox", "z.dll", "README", "lib.so"])


class TestLibraryProberReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["r0", "r1", "r0/s", "r0/t", "r1/s", "r1/s/deep"]),
                              _FILE_NAMES), max_size=12),
           st.sampled_from([None, ["lib{name}.so", "lib{name}.so.*"], ["{name}.dll", "lib{name}*"]]),
           st.lists(st.lists(_LIB_NAMES, max_size=3), min_size=1, max_size=4))
    @example([("r0/s", "libz.sox"), ("r1", "libz.so.1")], None, [["z"]])
    def test_matches_the_directory_scan(self, files, patterns, probes):
        with tempfile.TemporaryDirectory() as top:
            os.mkdir(os.path.join(top, "r0"))
            for directory, name in files:
                os.makedirs(os.path.join(top, directory), exist_ok=True)
                open(os.path.join(top, directory, name), "w").close()
            roots = [os.path.join(top, r) for r in ("r0", "missing", "r1")]
            prober = LibraryProber(roots, patterns)
            for lib_names in probes:
                assert prober.find_library_dir(lib_names) == scan_for_library(
                    roots, prober.patterns, lib_names)
