import pytest

from scram.configuration import (
    detect_architecture,
    match_architecture,
    parse_configuration,
    parse_requirements,
    resolve_selection,
)
from scram.errors import ConfigError
from scram.markup import strip_doc_header, tokenize_markup

LINUX = "Linux__2.4"
SUNOS = "SunOS__5.8"


def events_of(text):
    return strip_doc_header(tokenize_markup(text))


@pytest.fixture(scope="module")
def config_doc(configuration_text):
    return parse_configuration(events_of(configuration_text))


@pytest.fixture(scope="module")
def req_doc(requirements_text):
    return parse_requirements(events_of(requirements_text))


class TestDetectArchitecture:
    def test_linux_override(self):
        assert detect_architecture("Linux__2.4") == "Linux__2.4"

    def test_sunos_override(self):
        assert detect_architecture("SunOS__5.8") == "SunOS__5.8"

    def test_missing_separator_rejected(self):
        with pytest.raises(ConfigError, match="Linux2.4"):
            detect_architecture("Linux2.4")

    def test_env_override(self):
        assert detect_architecture(env={"SCRAM_ARCH": "SunOS__5.8"}) == "SunOS__5.8"

    def test_host_detection_is_canonical(self):
        arch = detect_architecture()
        assert match_architecture(arch, arch)
        detect_architecture(arch)  # self-canonical parses back


class TestMatchArchitecture:
    # boundary cases enumerated against the prefix-with-boundary rule
    CASES = [
        ("SunOS__5", SUNOS, True),
        ("", LINUX, True),
        ("", SUNOS, True),
        ("Linux__2.4", LINUX, True),
        ("SunOS__5", "SunOS__51", False),
        ("SunOS__5.8", SUNOS, True),
        ("SunOS__5.8.1", SUNOS, False),
        ("Linux__2.4", SUNOS, False),
        ("SunOS", SUNOS, False),  # component boundary is '.', not '__'
        ("Linux__2", LINUX, True),
    ]

    # each case keeps the id it had when an architecture was an object
    @pytest.mark.parametrize("scope,arch,expected", CASES, ids=[
        f"{scope}-arch{i}-{expected}" for i, (scope, _, expected) in enumerate(CASES)])
    def test_boundary_rule(self, scope, arch, expected):
        assert match_architecture(scope, arch) is expected


class TestParseConfiguration:
    def test_fixture_entries(self, config_doc):
        by_name = {(e.name, e.arch_scope): e.version for e in config_doc.entries}
        assert by_name[("f77", "SunOS__5")] == "4.2"
        assert by_name[("CC", "SunOS__5")] == "5.4"
        assert by_name[("gcc3", "Linux__2.4")] == "3.2"
        assert by_name[("gcc", "Linux__2.4")] == "2.95.2"
        assert by_name[("g77", "Linux__2.4")] == "0.5.24"
        assert by_name[("icc", "Linux__2.4")] == "7.0"
        assert by_name[("LHCxx", "")] == "5.0.3"
        assert by_name[("Qt", "")] == "3.1.2"
        assert by_name[("CLHEP", "")] == "1.8.0.0"

    def test_fixture_urls_kept_raw(self, config_doc):
        gcc3 = next(e for e in config_doc.entries if e.name == "gcc3")
        assert gcc3.url == "cvs:?module=SCRAMToolBox/CXX/gcc3"

    def test_duplicate_require_same_scope_rejected(self):
        text = "<require name=a version=1 url=u><require name=A version=2 url=u>"
        with pytest.raises(ConfigError, match="duplicate require"):
            parse_configuration(events_of(text))

    def test_require_missing_name(self):
        with pytest.raises(Exception, match="name"):
            parse_configuration(events_of("<require version=1 url=u>"))

    def test_base_must_precede_requires(self):
        text = "<require name=a version=1 url=u><base url=cvs://h/r>"
        with pytest.raises(ConfigError, match="precede"):
            parse_configuration(events_of(text))


class TestParseRequirements:
    def test_fixture_base_carries_version_tag(self, req_doc):
        assert "version=CMS_68_2" in req_doc.base
        from scram.urlaccess import parse_url
        assert parse_url(req_doc.base).get("version") == "CMS_68_2"

    def test_fixture_selects_by_scope(self, req_doc):
        scoped = {}
        for s in req_doc.selects:
            scoped.setdefault(s.arch_scope, []).append(s.name)
        assert scoped["SunOS__5.8"] == ["CC", "f77"]
        assert scoped["Linux__2.4"] == ["gcc3", "g77gcc3"]
        assert scoped[""] == [
            "COBRA", "IGUANA", "CMSToolBox", "Geometry", "AIDA", "AIDA_Dev",
            "AIDA_XMLStore", "AIDA_AnalysisFactory_native", "AIDA_Tree_native",
        ]

    def test_fixture_includes(self, req_doc):
        assert req_doc.includes == ["cvs:?module=.../CMSconfiguration"]

    def test_empty_requirements(self):
        doc = parse_requirements(events_of(""))
        assert doc.selects == [] and doc.includes == [] and doc.base is None

    def test_duplicate_selects_collapse(self):
        doc = parse_requirements(events_of("<select name=x><select name=X>"))
        assert len(doc.selects) == 1

    def test_same_name_different_scopes_kept(self):
        text = ("<Architecture name=A__1><select name=x></Architecture>"
                "<select name=x>")
        doc = parse_requirements(events_of(text))
        assert len(doc.selects) == 2


class TestResolveSelection:
    def test_linux_gcc3_from_fixtures(self, config_doc, req_doc):
        resolved = resolve_selection(_only_resolvable(req_doc), [config_doc], LINUX)
        pin = resolved.get("gcc3")
        assert (pin.version, pin.spec_url) == ("3.2", "cvs:?module=SCRAMToolBox/CXX/gcc3")

    def test_sunos_prefix_scope_from_fixtures(self, config_doc, req_doc):
        resolved = resolve_selection(_only_resolvable(req_doc), [config_doc], SUNOS)
        assert resolved.get("cc").version == "5.4"
        assert resolved.get("f77").version == "4.2"
        assert resolved.get("gcc3") is None  # Linux-scoped select skipped

    def test_unscoped_require_serves_any_arch(self, config_doc):
        from scram.configuration import RequirementsDoc, SelectEntry
        req = RequirementsDoc(selects=[SelectEntry("CLHEP")])
        for arch in (LINUX, SUNOS):
            assert resolve_selection(req, [config_doc], arch).get("clhep").version == "1.8.0.0"

    def test_selection_order_preserved(self, config_doc):
        from scram.configuration import RequirementsDoc, SelectEntry
        # Qt is selected again under the running architecture: one pin, at
        # its first select
        req = RequirementsDoc(selects=[SelectEntry("Qt"), SelectEntry("CLHEP"),
                                       SelectEntry("qt", "Linux__2.4"),
                                       SelectEntry("LHCxx")])
        resolved = resolve_selection(req, [config_doc], LINUX)
        assert list(resolved) == ["qt", "clhep", "lhcxx"]

    def test_unknown_selection_names_tool_and_arch(self, config_doc):
        from scram.configuration import RequirementsDoc, SelectEntry
        req = RequirementsDoc(selects=[SelectEntry("COBRA")])
        with pytest.raises(ConfigError, match="COBRA.*Linux__2.4"):
            resolve_selection(req, [config_doc], LINUX)

    def test_most_specific_scope_wins(self):
        from scram.configuration import (ConfigurationDoc, RequireEntry,
                                         RequirementsDoc, SelectEntry)
        config = ConfigurationDoc(entries=[
            RequireEntry("t", "1.0", "u-any", ""),
            RequireEntry("t", "2.0", "u-linux", "Linux__2"),
            RequireEntry("t", "3.0", "u-linux24", "Linux__2.4"),
        ])
        req = RequirementsDoc(selects=[SelectEntry("t")])
        assert resolve_selection(req, [config], LINUX).get("t").version == "3.0"
        assert resolve_selection(req, [config], SUNOS).get("t").version == "1.0"

    def test_equal_specificity_is_ambiguity_error(self):
        from scram.configuration import (ConfigurationDoc, RequireEntry,
                                         RequirementsDoc, SelectEntry)
        c1 = ConfigurationDoc(entries=[RequireEntry("t", "1.0", "u1", "")])
        c2 = ConfigurationDoc(entries=[RequireEntry("t", "2.0", "u2", "")])
        req = RequirementsDoc(selects=[SelectEntry("t")])
        with pytest.raises(ConfigError, match="equally specific"):
            resolve_selection(req, [c1, c2], LINUX)

    def test_most_specific_entry_across_two_configurations(self):
        from scram.configuration import (ConfigurationDoc, RequireEntry,
                                         RequirementsDoc, SelectEntry)
        c1 = ConfigurationDoc(entries=[RequireEntry("T", "1.0", "file:/one/u1", ""),
                                       RequireEntry("o", "1.0", "file:/one/uo", "")])
        c2 = ConfigurationDoc(entries=[RequireEntry("t", "2.0", "file:/two/u2",
                                                    "Linux__2")])
        req = RequirementsDoc(selects=[SelectEntry("t"), SelectEntry("O")])
        linux = resolve_selection(req, [c1, c2], LINUX)
        assert [(p.name, p.version, p.spec_url) for p in linux.values()] == [
            ("t", "2.0", "file:/two/u2"), ("o", "1.0", "file:/one/uo")]
        assert resolve_selection(req, [c1, c2], SUNOS).get("t").version == "1.0"

    def test_selection_error_messages(self):
        from scram.configuration import (ConfigurationDoc, RequireEntry,
                                         RequirementsDoc, SelectEntry)
        c1 = ConfigurationDoc(entries=[RequireEntry("t", "1.0", "u1", "Linux__2"),
                                       RequireEntry("s", "1.0", "u", "SunOS__5")])
        c2 = ConfigurationDoc(entries=[RequireEntry("T", "2.0", "u2", "Linux__2")])
        with pytest.raises(ConfigError) as exc:
            resolve_selection(RequirementsDoc(selects=[SelectEntry("T")]),
                              [c1, c2], LINUX)
        assert str(exc.value) == (
            "'T' matches several equally specific configuration entries "
            "under Linux__2.4")
        with pytest.raises(ConfigError) as exc:
            resolve_selection(RequirementsDoc(selects=[SelectEntry("S")]),
                              [c1, c2], LINUX)
        assert str(exc.value) == (
            "'S' is selected but no configuration entry matches architecture "
            "Linux__2.4")

    def test_scope_monotonicity(self, config_doc):
        # adding a non-matching Architecture block never changes a resolution
        from scram.configuration import (ConfigurationDoc, RequireEntry,
                                         RequirementsDoc, SelectEntry)
        req = RequirementsDoc(selects=[SelectEntry("gcc3"), SelectEntry("Qt")])
        baseline = resolve_selection(req, [config_doc], LINUX)
        noise = ConfigurationDoc(entries=[
            RequireEntry("gcc3", "99", "u", "Windows__10"),
            RequireEntry("Qt", "99", "u", "Darwin__22.1"),
        ])
        withnoise = resolve_selection(req, [config_doc, noise], LINUX)
        assert baseline == withnoise

    def test_skipped_scope_rule(self, config_doc, req_doc):
        # scope-mismatch implies absence: diff against filtered selects
        req = _only_resolvable(req_doc)
        resolved = resolve_selection(req, [config_doc], SUNOS)
        expected = {
            s.folded_name for s in req.selects
            if match_architecture(s.arch_scope, SUNOS)
        }
        assert set(resolved) == expected

    def test_determinism(self, config_doc, req_doc):
        req = _only_resolvable(req_doc)
        a = resolve_selection(req, [config_doc], LINUX)
        b = resolve_selection(req, [config_doc], LINUX)
        assert a == b and list(a) == list(b)

    def test_centrality_version_bump_reaches_every_project(self):
        # versions live only in the configuration: bumping one pin changes
        # the resolution of every project that selects the tool
        from scram.configuration import (ConfigurationDoc, RequireEntry,
                                         RequirementsDoc, SelectEntry)

        def config(version):
            return ConfigurationDoc(entries=[RequireEntry("qt", version, "u")])

        projects = [
            RequirementsDoc(selects=[SelectEntry("qt")]),
            RequirementsDoc(selects=[SelectEntry("QT"), SelectEntry("other", "No__1")]),
        ]
        for req in projects:
            assert resolve_selection(req, [config("3.1.2")], LINUX).get("qt").version == "3.1.2"
            assert resolve_selection(req, [config("4.0.0")], LINUX).get("qt").version == "4.0.0"


def _only_resolvable(req_doc):
    """The verbatim project fixture selects tools whose requires live in the
    elided part of the configuration; keep the selects the configuration
    fixture can actually serve."""
    from scram.configuration import RequirementsDoc

    resolvable = {"cc", "f77", "gcc3", "g77gcc3"}
    return RequirementsDoc(
        base=req_doc.base,
        includes=list(req_doc.includes),
        selects=[s for s in req_doc.selects if s.folded_name in resolvable],
    )
