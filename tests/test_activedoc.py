import pytest

from scram import activedoc
from scram.activedoc import MAX_NESTING, SPLICE_FACTOR, SPLICE_FLOOR, DocumentEngine
from scram.errors import DocTypeError, MarkupError, ScramError, ToolError
from scram.markup import DocType, EventKind, PayloadCodec
from scram.tooldoc import TOOLDOC
from scram.sitefile import SiteInfo
from scram.urlaccess import SchemeRegistry, UrlCache, default_registry, parse_url


def write(tmp_path, name, text):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return parse_url(f"file:{path}")


def names_builder(events):
    # toy payload: the open-tag names in order
    return [e.name for e in events if e.kind is EventKind.OPEN]


NAMES = DocType("Test::Names", "1.0", names_builder)
# the same, with its payloads kept in the cache
KEPT = DocType("Test::Kept", "1.0", names_builder,
               codec=PayloadCodec("names-1", list, list))


def fetch_count(engine) -> int:
    """The fetches an engine has made, each one a hit or a miss of its cache."""
    return engine.cache.stats.hits + engine.cache.stats.misses


@pytest.fixture
def engine(tmp_path):
    return DocumentEngine(UrlCache(str(tmp_path / "_cache"),
                                   default_registry(SiteInfo())))


class TestRegistry:
    """The document types a caller accepts."""

    def test_colon_variants_are_one_type(self, engine, tmp_path):
        url = write(tmp_path, "ab.doc", "<doc type=A:B version=1.0><x>")
        accepted = DocType("A::B", "1.0", names_builder)
        assert engine.activate(url, (accepted,)) == ["x"]

    @pytest.mark.parametrize("doc_version, ok", [
        ("1.0", False), ("2.0", True), ("2.1", True), ("10.0", True),
    ])
    def test_min_version_gate(self, engine, tmp_path, doc_version, ok):
        accepted = DocType("T::V", "2.0", names_builder)
        url = write(tmp_path, f"v{doc_version}.doc",
                    f"<doc type=T::V version={doc_version}><x>")
        if ok:
            assert engine.activate(url, (accepted,)) == ["x"]
        else:
            with pytest.raises(DocTypeError, match="older than"):
                engine.activate(url, (accepted,))

    def test_unknown_type_names_the_type(self, engine, tmp_path):
        url = write(tmp_path, "u.doc", "<doc type=No::Such version=1.0>")
        with pytest.raises(DocTypeError) as exc:
            engine.activate(url, (NAMES,))
        assert exc.value.message == "expected a Test::Names document, found 'No::Such'"
        assert exc.value.context == f"while activating {url}"
        assert exc.value.location is None

    def test_memo_hit_under_another_type_gives_the_one_message(self, engine, tmp_path):
        url = write(tmp_path, "a.doc", "<doc type=Test::Names version=1.0><p>")
        engine.activate(url, (NAMES,))
        with pytest.raises(DocTypeError) as exc:
            engine.activate(url, (TOOLDOC,))
        assert str(exc.value) == (
            "expected a BuildSystem::ToolDoc document, found 'Test::Names'")
        assert exc.value.context == f"while activating {url}"
        assert engine.activate(url, (NAMES,)) == ["p"]


class TestActivate:
    def test_pipeline_produces_payload(self, engine, tmp_path):
        url = write(tmp_path, "a.doc", "<doc type=Test::Names version=1.0><p><q>")
        assert engine.activate(url, (NAMES,)) == ["p", "q"]

    def test_a_second_activation_is_recalled_from_the_commands_pack(
            self, engine, tmp_path, monkeypatch):
        tokenized = []

        def tokenize_markup(text, real=activedoc.tokenize_markup, **kwargs):
            tokenized.append(text)
            return real(text, **kwargs)

        monkeypatch.setattr(activedoc, "tokenize_markup", tokenize_markup)
        url = write(tmp_path, "a.doc", "<doc type=Test::Kept version=1.0><p>")
        first = engine.activate(url, (KEPT,))
        second = engine.activate(url, (KEPT,))
        assert first == second == ["p"]
        # the second fetch is a hit in the pack the first one wrote
        assert (engine.cache.stats.misses, engine.cache.stats.hits) == (1, 1)
        assert len(tokenized) == 1

    def test_include_equals_hand_concatenation(self, engine, tmp_path):
        frag_url = write(tmp_path, "b.doc", "<doc type=Test::Names version=1.0><m><n>")
        a_url = write(tmp_path, "a.doc",
                      f'<doc type=Test::Names version=1.0><p><include url="{frag_url}"><q>')
        combined = write(tmp_path, "ab.doc",
                         "<doc type=Test::Names version=1.0><p><m><n><q>")
        assert engine.activate(a_url, (NAMES,)) == engine.activate(combined, (NAMES,))

    def test_include_requires_typed_document(self, engine, tmp_path):
        frag_url = write(tmp_path, "naked.doc", "<m>")
        a_url = write(tmp_path, "a.doc",
                      f'<doc type=Test::Names version=1.0><include url="{frag_url}">')
        with pytest.raises((DocTypeError, MarkupError)):
            engine.activate(a_url, (NAMES,))

    def test_include_type_must_match(self, engine, tmp_path):
        one = DocType("T::One", "1.0", names_builder)
        two = DocType("T::Two", "1.0", names_builder)
        other = write(tmp_path, "two.doc", "\n<doc type=T::Two version=1.0><x>")
        outer = write(tmp_path, "one.doc",
                      f'<doc type=T::One version=1.0><include url="{other}">')
        with pytest.raises(DocTypeError) as exc:
            engine.activate(outer, (one, two))
        # located at the included header, so the included URL is named
        assert str(exc.value) == (
            f"{other}:2:1: expected a T::One document, found 'T::Two'")
        assert exc.value.context == f"while activating {outer}"

    def test_inline_resolves_relative_to_including_document(self, engine, tmp_path):
        write(tmp_path, "sub/inner.doc", "<leaf>")
        # relative url: resolved against the including document's directory
        outer = write(tmp_path, "sub/outer.doc",
                      '<doc type=Test::Names version=1.0><inline url="inner.doc">')
        assert engine.activate(outer, (NAMES,)) == ["leaf"]

    def test_cycle_reported_with_urls(self, engine, tmp_path):
        a_path = tmp_path / "a.doc"
        b_path = tmp_path / "b.doc"
        a_path.write_text(
            f'<doc type=Test::Names version=1.0><inline url="file:{b_path}">')
        b_path.write_text(
            f'<doc type=Test::Names version=1.0><inline url="file:{a_path}">')
        with pytest.raises(DocTypeError, match="cycle"):
            engine.activate(parse_url(f"file:{a_path}"), (NAMES,))

    def test_three_document_cycle_names_full_chain(self, engine, tmp_path):
        a, b, c = (f"file:{tmp_path / n}" for n in ("a.doc", "b.doc", "c.doc"))
        write(tmp_path, "a.doc", f'<doc type=Test::Names version=1.0><inline url="{b}">')
        write(tmp_path, "b.doc", f'<doc type=Test::Names version=1.0><include url="{c}">')
        write(tmp_path, "c.doc", f'<doc type=Test::Names version=1.0><inline url="{a}">')
        with pytest.raises(DocTypeError) as exc:
            engine.activate(parse_url(a), (NAMES,))
        assert exc.value.message == (
            f"document inclusion cycle: {a} -> {b} -> {c} -> {a}")
        assert exc.value.location.source == c

    def test_self_inclusion_cycle(self, engine, tmp_path):
        write(tmp_path, "me.doc", '<doc type=Test::Names version=1.0><p><inline url="me.doc">')
        me = f"file:{tmp_path / 'me.doc'}"
        with pytest.raises(DocTypeError) as exc:
            engine.activate(parse_url(me), (NAMES,))
        assert exc.value.message == f"document inclusion cycle: {me} -> {me}"

    def chain(self, tmp_path, depth):
        """outer.doc, then ``depth`` fragments, each inlining the next."""
        for i in range(depth):
            write(tmp_path, f"f{i}.doc", f'<f{i}><inline url="f{i + 1}.doc">'
                  if i + 1 < depth else f"<f{i}>")
        return write(tmp_path, "outer.doc",
                     '<doc type=Test::Names version=1.0><inline url="f0.doc">')

    def test_chain_at_the_nesting_limit_activates(self, engine, tmp_path):
        outer = self.chain(tmp_path, MAX_NESTING)
        assert engine.activate(outer, (NAMES,)) == [f"f{i}" for i in range(MAX_NESTING)]

    def test_chain_past_the_nesting_limit_names_the_chain(self, engine, tmp_path):
        outer = self.chain(tmp_path, 40)
        with pytest.raises(DocTypeError) as exc:
            engine.activate(outer, (NAMES,))
        urls = [str(outer)] + [f"file:{tmp_path / f'f{i}.doc'}"
                               for i in range(MAX_NESTING + 1)]
        assert exc.value.message == (
            f"documents nested more than {MAX_NESTING} deep: {' -> '.join(urls)}")
        assert fetch_count(engine) == MAX_NESTING + 1

    def repeated(self, tmp_path, events, times):
        """outer.doc, inlining ``times`` times a fragment of ``events`` tags."""
        write(tmp_path, "frag.doc", "<m>" * events)
        return write(tmp_path, "outer.doc", "<doc type=Test::Names version=1.0>"
                     + '<inline url="frag.doc">' * times)

    def test_splicing_up_to_the_floor_activates(self, engine, tmp_path):
        outer = self.repeated(tmp_path, 100, SPLICE_FLOOR // 100)
        assert len(engine.activate(outer, (NAMES,))) == SPLICE_FLOOR

    def test_splicing_past_the_floor_fails_at_the_crossing_reference(self, engine,
                                                                     tmp_path):
        times = SPLICE_FLOOR // 100 + 1
        outer = self.repeated(tmp_path, 100, times)
        with pytest.raises(DocTypeError) as exc:
            engine.activate(outer, (NAMES,))
        read = 1 + times + 100  # the outer document's events and the fragment's
        assert exc.value.message == (
            f"references splice more than {SPLICE_FLOOR} events, the larger of "
            f"{SPLICE_FLOOR} and {SPLICE_FACTOR} times the {read} events of the "
            f"2 documents read")
        assert exc.value.location.column == 1 + len(
            "<doc type=Test::Names version=1.0>" + '<inline url="frag.doc">' * (times - 1))

    def test_above_the_floor_the_bound_follows_the_documents_read(self, engine, tmp_path):
        # 16 copies of a fragment of 1000 tags read 1017 events, so 16,000
        # spliced events are within the bound; 20 copies are not
        fits = self.repeated(tmp_path / "fits", 1000, SPLICE_FACTOR)
        assert len(engine.activate(fits, (NAMES,))) == SPLICE_FACTOR * 1000 > SPLICE_FLOOR
        too_many = self.repeated(tmp_path / "too-many", 1000, SPLICE_FACTOR + 4)
        with pytest.raises(DocTypeError, match=f"more than {SPLICE_FACTOR * 1021} events"):
            engine.activate(too_many, (NAMES,))

    def test_error_in_nested_document_names_its_directory(self, engine, tmp_path):
        # top/a.doc inlines sub/b.doc, which includes frag.doc: both
        # references are relative, and frag.doc has no header
        a = write(tmp_path, "top/a.doc",
                  '<doc type=Test::Names version=1.0><inline url="sub/b.doc">')
        write(tmp_path, "top/sub/b.doc", '<include url="frag.doc">')
        write(tmp_path, "top/sub/frag.doc", '<inline url="x.doc">')
        frag = f"file:{tmp_path / 'top' / 'sub' / 'frag.doc'}"
        with pytest.raises(ScramError) as exc:
            engine.activate(a, (NAMES,))
        assert exc.value.location.source == frag
        assert str(exc.value).startswith(f"{frag}:1:1: expected <doc> header")

    def test_repeated_fragment_is_not_a_cycle(self, engine, tmp_path):
        write(tmp_path, "frag.doc", "<m>")
        outer = write(tmp_path, "outer.doc",
                      '<doc type=Test::Names version=1.0>'
                      '<inline url="frag.doc"><p><inline url="frag.doc">')
        assert engine.activate(outer, (NAMES,)) == ["m", "p", "m"]

    def test_repeated_fragment_is_fetched_and_tokenized_once(self, engine, tmp_path):
        write(tmp_path, "frag.doc", "<m>")
        outer = write(tmp_path, "outer.doc",
                      "<doc type=Test::Names version=1.0>"
                      + '<inline url="frag.doc"><p>' * 4)
        assert engine.activate(outer, (NAMES,)) == ["m", "p"] * 4
        assert fetch_count(engine) == 2

    def test_refreshed_fragment_reaches_its_adapter_once(self, tmp_path):
        calls = []

        def adapter(url, version):
            calls.append(url.authority)
            if url.authority == "outer":
                return (b"<doc type=Test::Names version=1.0>"
                        + b"<inline url=stub:frag><include url=stub:frag>" * 5)
            return b"<doc type=Test::Names version=1.0><m>"

        cache = UrlCache(str(tmp_path / "c"), SchemeRegistry({"stub": adapter}),
                         refresh=True)
        engine = DocumentEngine(cache)
        assert engine.activate(parse_url("stub:outer"), (NAMES,)) == ["m"] * 10
        assert calls == ["outer", "frag"]
        assert fetch_count(engine) == 2

    def test_two_level_nesting_matches_hand_concatenation(self, tmp_path):
        # each level resolves its relative URL against its own directory
        events = DocType("Test::Events", "1.0", list)
        engine = DocumentEngine(UrlCache(str(tmp_path / "c"),
                                         default_registry(SiteInfo())))
        write(tmp_path, "top/mid/leaf/c.doc", "<s t=1>")
        write(tmp_path, "top/mid/b.doc", '<r><inline url="leaf/c.doc"></inline>')
        a = write(tmp_path, "top/a.doc",
                  '<doc type=Test::Events version=1.0><p><inline url="mid/b.doc"><q>')
        hand = write(tmp_path, "hand.doc",
                     "<doc type=Test::Events version=1.0><p><r><s t=1><q>")
        assert (engine.activate(a, (events,))
                == engine.activate(hand, (events,)))

    def test_include_error_before_inline_error_surfaces_first(self, engine, tmp_path):
        a = write(tmp_path, "a.doc",
                  '<doc type=Test::Names version=1.0>'
                  '<include url="no-include.doc"><inline url="no-inline.doc">')
        with pytest.raises(ScramError, match="no-include.doc"):
            engine.activate(a, (NAMES,))

    def test_failure_names_outermost_url_in_context(self, engine, tmp_path):
        inner = write(tmp_path, "inner.doc", "<doc type=Test::Names version=1.0><oops")
        outer_url = write(tmp_path, "outer.doc",
                          f'<doc type=Test::Names version=1.0><inline url="{inner}">')
        with pytest.raises(ScramError) as exc:
            engine.activate(outer_url, (NAMES,))
        assert "outer.doc" in exc.value.context
        assert "inner.doc" in str(exc.value) or "inner.doc" in exc.value.context

    def test_version_is_part_of_store_key(self, tmp_path):
        calls = []

        def adapter(url, version):
            calls.append(url.version_tag(version))
            return b"<doc type=Test::Names version=1.0><x>"

        cache = UrlCache(str(tmp_path / "c"), SchemeRegistry({"stub": adapter}))
        engine = DocumentEngine(cache)
        engine.activate(parse_url("stub:one?version=1.0"), (NAMES,))
        engine.activate(parse_url("stub:one?version=2.0"), (NAMES,))
        engine.activate(parse_url("stub:one?version=1.0"), (NAMES,))
        assert calls == ["1.0", "2.0"]


def test_handler_error_in_an_inlined_fragment_names_the_fragment(tmp_path):
    engine = DocumentEngine(UrlCache(str(tmp_path / "c"), default_registry(SiteInfo())))
    fragment = write(tmp_path, "frag.doc", "<Environment name=A value=1>\n"
                                           "  <Environment name=B type=Weird>\n")
    url = write(tmp_path, "tool.doc", "<doc type=BuildSystem::ToolDoc version=1.0>\n"
                                      "<Tool name=t version=1>\n"
                                      "<inline url=frag.doc>\n</Tool>\n")
    with pytest.raises(ToolError) as exc:
        engine.activate(url, (TOOLDOC,))
    assert str(exc.value) == f"{fragment}:2:3: unknown Environment type 'Weird'"
    assert exc.value.context == f"while activating {url}"
