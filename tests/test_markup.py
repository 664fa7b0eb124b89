import re

import pytest
from hypothesis import example, given, strategies as st

from scram.errors import MarkupError, ScramError
from scram.markup import (
    EventKind,
    Location,
    TagEvent,
    parse_version,
    parse_with_handlers,
    read_doc_header,
    splice_inline,
    strip_doc_header,
    tokenize_markup,
)
from scram.configuration import parse_configuration, parse_requirements
from scram.project import parse_bootstrap
from scram.runtime import parse_app_env
from scram.tooldoc import parse_tool_doc

from eventhelpers import (
    chardata_event,
    close_event,
    open_event,
    payload_fields,
    scanner_tokenize,
    serialize_events,
)


def opens(events, name=None):
    return [
        e for e in events
        if e.kind is EventKind.OPEN and (name is None or e.folded_name == name)
    ]


class TestTokenize:
    def test_single_open_tag(self):
        events = tokenize_markup("<select name=CC>")
        assert events == [open_event("select", [("name", "CC")])]

    def test_empty_input(self):
        assert tokenize_markup("") == []

    def test_hand_traced_table(self):
        # frozen against a hand-traced tokenizer table
        events = tokenize_markup('<a x="p q">t</a>')
        assert events == [
            open_event("a", [("x", "p q")]),
            chardata_event("t"),
            close_event("a"),
        ]

    def test_boost_fixture_has_three_tool_opens(self, boost_text):
        events = tokenize_markup(boost_text, "boost.tooldoc")
        tools = opens(events, "tool")
        assert [e.get("version") for e in tools] == ["1.28.0", "1.29.0", "1.30.0"]
        assert all(e.get("name") == "Boost" for e in tools)

    def test_unquoted_value_ends_at_whitespace_or_gt(self):
        events = tokenize_markup("<e name=LD_LIBRARY_PATH value=$LIBDIR \n  type=Runtime_path>")
        (ev,) = events
        assert ev.attrs == {
            "name": "LD_LIBRARY_PATH",
            "value": "$LIBDIR",
            "type": "Runtime_path",
        }

    def test_quoted_value_may_contain_newline_equals_amp(self):
        text = '<base url="cvs://host/root\n  ?auth=x&user=y">'
        (ev,) = tokenize_markup(text)
        assert ev.get("url") == "cvs://host/root\n  ?auth=x&user=y"

    def test_unclosed_tags_are_legal(self):
        events = tokenize_markup("<Lib name=a><Lib name=b>")
        assert len(opens(events, "lib")) == 2

    def test_stray_lt_is_chardata(self):
        events = tokenize_markup("a < b <! c <3")
        assert events == [chardata_event("a < b <! c <3")]

    def test_chardata_runs_are_maximal(self):
        events = tokenize_markup("x<t>  mid  </t>y")
        kinds = [e.kind for e in events]
        assert kinds == [
            EventKind.CHARDATA, EventKind.OPEN, EventKind.CHARDATA,
            EventKind.CLOSE, EventKind.CHARDATA,
        ]
        assert events[2].text == "  mid  "

    def test_unterminated_tag_errors_with_location(self):
        with pytest.raises(MarkupError) as exc:
            tokenize_markup("ok\n<Tool name=x", "f.doc")
        assert exc.value.location.line == 2
        assert exc.value.location.source == "f.doc"

    def test_unterminated_quote_errors(self):
        with pytest.raises(MarkupError, match="unterminated quoted"):
            tokenize_markup('<a x="never closed')

    def test_duplicate_attribute_rejected_case_insensitively(self):
        with pytest.raises(MarkupError, match="duplicate attribute"):
            tokenize_markup("<a name=x NAME=y>")

    def test_xml_style_self_close_tolerated(self):
        assert tokenize_markup('<a x="1"/>') == [open_event("a", [("x", "1")])]

    def test_slash_in_unquoted_value_is_value_text(self):
        # unquoted values end at whitespace or '>', nothing else
        assert tokenize_markup("<a x=1/>") == [open_event("a", [("x", "1/")])]

    def test_value_free_attribute(self):
        (ev,) = tokenize_markup("<a checked>")
        assert ev.attrs == {"checked": ""}

    def test_locations_track_lines_and_columns(self):
        events = tokenize_markup("ab\n<t>", "s")
        assert events[0].location.line == 1 and events[0].location.column == 1
        assert events[1].location.line == 2 and events[1].location.column == 1

    @given(st.text(alphabet=st.characters(blacklist_characters="<")))
    @example(" \t\n")
    @example("\x1c")  # whitespace to str.strip, though no space character
    @example("\u2003")  # an em space
    @example("\ufeff")  # a byte-order mark, which str.strip keeps
    def test_total_on_tag_free_text(self, text):
        events = tokenize_markup(text)
        if text.strip():
            assert events == [chardata_event(text)]
        else:
            assert events == []

    @pytest.mark.parametrize("text", ["", " ", "\n\t ", "\x1c\u2003"])
    def test_blank_runs_make_no_event(self, text):
        events = tokenize_markup(f"{text}<a>{text}</a>{text}<b x=1>{text}")
        assert events == [open_event("a"), close_event("a"),
                          open_event("b", [("x", "1")])]

    def test_byte_order_mark_is_text_before_the_header(self):
        with pytest.raises(MarkupError, match="text before the <doc> header"):
            read_doc_header(tokenize_markup("\ufeff<doc type=t version=1>"))

    def test_attribute_free_events_share_one_read_only_map(self):
        a, b, c = tokenize_markup("<a><b/></a>")
        assert a.attrs is b.attrs is c.attrs
        with pytest.raises(TypeError):
            a.attrs["x"] = "1"

    def test_attribute_keys_fold_and_the_tag_name_keeps_its_spelling(self):
        (ev,) = tokenize_markup("<Tool NAME=Boost Version=1>")
        assert ev.name == "Tool"
        assert ev.attrs == {"name": "Boost", "version": "1"}
        assert ev.get("Name") == "Boost"

    @given(st.text())
    def test_chardata_concatenation_never_loses_tag_free_input(self, text):
        # arbitrary text either tokenizes or raises a located MarkupError
        try:
            events = tokenize_markup(text)
        except MarkupError as exc:
            assert exc.location is not None
            return
        rebuilt = serialize_events(events)
        assert tokenize_markup(rebuilt) == events


def _outcome(tokenize, text):
    """Events with their locations, or the error message and location. The
    locations are read last event first, so a location that depends on
    which ones were read before it shows as a difference."""
    try:
        events = tokenize(text, "src")
    except MarkupError as exc:
        return ("error", exc.message, str(exc.location))
    located = [str(ev.location) for ev in reversed(events)]
    return ("events", events, located[::-1])


# Biased toward the characters the grammar turns on, plus letters and
# numerics outside ASCII: 'é' starts a name, '½' is a numeric that does not.
_MARKUP_CHARS = st.sampled_from(list('<<</=">>  \t\n_-.09aZé½'))
_MARKUP_PIECES = st.sampled_from(
    ["<a", "</a", "<doc", " x=", ' y="', '"', "/>", "> ", "<_", "<é", "<½", "</½",
     "=\n", "\t>", "x=1"])


class TestScannerReference:
    @given(st.lists(st.one_of(_MARKUP_CHARS, _MARKUP_PIECES, st.characters()),
                    max_size=60).map("".join))
    @example('<a y="v"=>')  # '=' right after a closed quote: not unterminated
    @example('<a y="v y=>')
    @example("x\n<½ <é\n\t</é z>")
    def test_matches_the_character_scanner(self, text):
        assert _outcome(tokenize_markup, text) == _outcome(scanner_tokenize, text)

    def test_matches_the_character_scanner_on_the_fixtures(self, boost_text,
                                                           configuration_text,
                                                           requirements_text):
        for text in (boost_text, configuration_text, requirements_text):
            assert _outcome(tokenize_markup, text) == _outcome(scanner_tokenize, text)


def test_locations_are_built_only_when_read(boost_text, monkeypatch):
    built = []
    init = Location.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Location, "__init__", counting_init)
    events = tokenize_markup(boost_text, "boost.doc")
    parse_tool_doc(splice_inline(events, by_url({})))
    assert built == []
    second_tool = opens(events, "tool")[1]
    assert str(second_tool.location) == "boost.doc:18:1"
    assert second_tool.location is second_tool.location
    assert built == [("boost.doc", 18, 1)]


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "<select name=CC>",
        '<a x="p q">t</a>',
        "plain text, no tags < 3",
        '<base url="two\nlines">tail',
        "<A b=1><a B=2></A>",
    ])
    def test_parse_serialize_parse(self, text):
        events = tokenize_markup(text)
        assert tokenize_markup(serialize_events(events)) == events

    def test_boost_fixture_round_trips(self, boost_text):
        events = tokenize_markup(boost_text)
        assert tokenize_markup(serialize_events(events)) == events

    def test_unserializable_attr_value(self):
        ev = open_event("a", [("x", 'has "quote" and space')])
        with pytest.raises(MarkupError, match="double quote"):
            serialize_events([ev])


class TestDocHeader:
    def test_requirements_header(self):
        header = read_doc_header(
            tokenize_markup("<doc type=BuildSystem::Requirements version=2.0>")
        )
        assert header.doc_type == "BuildSystem::Requirements"
        assert header.doc_version == "2.0"

    def test_single_colon_type_path(self):
        header = read_doc_header(tokenize_markup("<doc type=a:b version=2.1>"))
        assert header.doc_type == "a:b"
        assert header.doc_version == "2.1"
        assert header.type_path() == ("a", "b")
        assert header.type_path() == read_doc_header(
            tokenize_markup("<doc type=a::b version=2.1>")
        ).type_path()

    def test_leading_whitespace_allowed(self):
        header = read_doc_header(tokenize_markup("\n  \n<doc type=t version=1>"))
        assert header.doc_type == "t"
        assert str(header.location) == "<string>:3:1"

    def test_missing_doc_tag(self):
        with pytest.raises(MarkupError, match="expected <doc>"):
            read_doc_header(tokenize_markup("<Tool name=X>"))

    def test_empty_stream(self):
        with pytest.raises(MarkupError, match="no <doc> header"):
            read_doc_header([])

    def test_text_before_header(self):
        with pytest.raises(MarkupError, match="text before"):
            read_doc_header(tokenize_markup("hello<doc type=t version=1>"))

    @pytest.mark.parametrize("tag", [
        "<doc version=1>", "<doc type=t>", "<doc type=t version=x.y>",
        "<doc type=t version=1.²>",  # a digit, but not a decimal one
    ])
    def test_incomplete_header(self, tag):
        with pytest.raises(MarkupError):
            read_doc_header(tokenize_markup(tag))


class TestVersionCompare:
    # dotted-numeric ordering oracle: componentwise integers
    CASES = ["1.0", "2.0", "2.1", "10.0"]

    def test_enumerated_ordering(self):
        def oracle(v):
            return [int(p) for p in v.split(".")]

        for a in self.CASES:
            for b in self.CASES:
                assert (parse_version(a) < parse_version(b)) == (oracle(a) < oracle(b))

    def test_lexicographic_trap(self):
        assert parse_version("10.0") > parse_version("2.0")
        assert parse_version("2.1") > parse_version("2.0")


class TestHandlerDispatch:
    def counting_tables(self, record):
        return {
            "open": {"tool": lambda s, e: record.append(("open", e.get("version")))},
            "close": {"tool": lambda s, e: record.append(("close", None))},
        }

    def test_dispatch_order_equals_textual_order(self, boost_text):
        record = []
        tables = self.counting_tables(record)
        parse_with_handlers(tokenize_markup(boost_text), None, **tables)
        assert record == [
            ("open", "1.28.0"), ("close", None),
            ("open", "1.29.0"), ("close", None),
            ("open", "1.30.0"), ("close", None),
        ]

    def test_empty_map_is_noop(self, boost_text):
        state = {"untouched": True}
        parse_with_handlers(tokenize_markup(boost_text), state)
        assert state == {"untouched": True}

    def test_case_insensitive_tag_match(self):
        hits = []
        parse_with_handlers(tokenize_markup("<TOOL a=1><Tool a=2>"), None,
                            open={"tool": lambda s, e: hits.append(e.name)})
        assert hits == ["TOOL", "Tool"]  # original case preserved on the event

    def test_chardata_routed_to_innermost_open_tag(self):
        text = "<Tool name=T><Environment name=V>  described here  </Environment>tail</Tool>"
        got = {}
        parse_with_handlers(tokenize_markup(text), None, chardata={
            "environment": lambda s, e: got.setdefault("env", e.text),
            "tool": lambda s, e: got.setdefault("tool", e.text),
        })
        assert got["env"] == "  described here  "
        assert got["tool"] == "tail"

    def test_handler_isolation(self, boost_text):
        # handlers of other tags and of other event kinds leave a tag's
        # handler seeing exactly what it sees alone
        def collect(with_noise):
            noise = []
            tables = {"open": {"lib": lambda s, e: s.append(e.get("name"))}}
            if with_noise:
                tables["open"]["nosuchtag"] = lambda s, e: noise.append(e)
                tables["close"] = {"lib": lambda s, e: noise.append(e)}
                tables["chardata"] = {"lib": lambda s, e: noise.append(e),
                                      "tool": lambda s, e: noise.append(e)}
            state = []
            parse_with_handlers(tokenize_markup(boost_text), state, **tables)
            return state

        assert collect(False) == collect(True) == ["boost_thread"] * 3

    def test_handler_error_gets_event_location(self):
        def boom(state, ev):
            raise ValueError("bad value")

        with pytest.raises(MarkupError) as exc:
            parse_with_handlers(tokenize_markup("\n\n<x>", "doc"), None,
                                open={"x": boom})
        assert exc.value.location.line == 3


def _list_dispatch(events, registrations, state):
    """The list-scanning dispatch loop that the per-kind tag tables
    replaced, kept as the reference for them: every event scans the
    ``(tag, kind, handler)`` registrations for its tag and kind."""

    def lookup(tag, kind):
        for t, k, handler in registrations:
            if k is kind and t.casefold() == tag.casefold():
                return handler
        return None

    def invoke(handler, ev):
        try:
            handler(state, ev)
        except ScramError as exc:
            if exc.location is None:
                exc.location = ev.location
            raise
        except Exception as exc:
            raise MarkupError(f"handler for <{ev.name or 'chardata'}> failed: {exc}",
                              location=ev.location) from exc

    open_stack = []
    for ev in events:
        if ev.kind is EventKind.CHARDATA:
            handler = None
            if open_stack:
                handler = lookup(open_stack[-1], EventKind.CHARDATA)
            if handler is not None:
                invoke(handler, ev)
            continue
        handler = lookup(ev.name, ev.kind)
        if handler is not None:
            invoke(handler, ev)
        if ev.kind is EventKind.OPEN:
            open_stack.append(ev.folded_name)
        elif ev.folded_name in open_stack:
            while open_stack.pop() != ev.folded_name:
                pass
    return state


# (tag, kind, what the handler raises); one handler per folded tag and kind
_REGISTRATIONS = st.lists(st.tuples(
    st.sampled_from(["a", "A", "b", "Tool"]),
    st.sampled_from(["open", "close", "chardata"]),
    st.sampled_from([None, "ValueError", "MarkupError"])),
    max_size=10, unique_by=lambda r: (r[0].casefold(), r[1]))
_STREAMS = st.lists(st.sampled_from(
    ["<a>", "<A x=1>", "</a>", "<b>", "</B>", "<tool>", "</Tool>", "<c>", "</c>",
     "text", "\n", " "]), max_size=25).map("".join)


def _dispatch_outcome(registrations, text, tables):
    """What dispatching the text does with the registrations, through the
    tag tables or through the reference loop: the handlers called, in
    order, and the error raised with its location, if any."""
    calls = []

    def make(i, raises):
        def handler(state, ev):
            calls.append((i, ev.kind, ev.name, ev.text))
            if raises == "ValueError":
                raise ValueError(f"handler {i}")
            if raises == "MarkupError":
                raise MarkupError(f"handler {i}")
        return handler

    handlers = [(tag, EventKind(kind), make(i, raises))
                for i, (tag, kind, raises) in enumerate(registrations)]
    events = tokenize_markup(text, "doc")
    try:
        if tables:
            by_kind = {kind: {} for kind in ("open", "close", "chardata")}
            for tag, kind, handler in handlers:
                by_kind[kind.value][tag.casefold()] = handler
            parse_with_handlers(events, None, **by_kind)
        else:
            _list_dispatch(events, handlers, None)
    except MarkupError as exc:
        return calls, str(exc), exc.location
    return calls, None, None


class TestDispatchReference:
    @given(_REGISTRATIONS, _STREAMS)
    @example([("a", "open", None), ("A", "close", "ValueError")], "<A x=1>text</a>")
    @example([("Tool", "chardata", "MarkupError")], "<b><tool>text")
    @example([("a", "chardata", None), ("b", "chardata", None)], "<a><b></a>text<c></b>")
    def test_matches_the_list_scanning_map(self, registrations, text):
        assert (_dispatch_outcome(registrations, text, tables=True)
                == _dispatch_outcome(registrations, text, tables=False))


_PARSER_INPUTS = {
    "tooldoc": (parse_tool_doc, "boost_text"),
    "configuration": (parse_configuration, "configuration_text"),
    "requirements": (parse_requirements, "requirements_text"),
    "bootstrap": (parse_bootstrap,
                  "<project name=ORCA version=7_1_3>\n"
                  '<download url="file:/specs/README.src" to="src/README">\n'
                  '<config url="file:/specs/toy.reqs">\n'),
    "app-env": (parse_app_env,
                "<Environment name=MODE value=fast>\n"
                "<Environment name=PATH value=/opt/bin type=Runtime_path>\n"),
}


@pytest.mark.parametrize("doc", sorted(_PARSER_INPUTS))
def test_upper_case_tags_give_the_usual_payload(doc, request):
    parser, text = _PARSER_INPUTS[doc]
    if text.endswith("_text"):
        text = request.getfixturevalue(text)
    upper = re.sub(r"<(/?)([^\W\d][\w.-]*)", lambda m: f"<{m[1]}{m[2].upper()}", text)
    assert upper != text
    usual = payload_fields(parser(strip_doc_header(tokenize_markup(text))))
    assert usual == payload_fields(parser(strip_doc_header(tokenize_markup(upper))))
    assert "[]" not in repr(usual)  # every list of the payload was filled


def by_url(streams):
    """A resolver that ignores the tag and looks the URL up in ``streams``."""
    return lambda url, tag: streams[url]


class TestSpliceInline:
    def test_single_splice(self):
        streams = {"file:U": tokenize_markup("<x>")}
        events = tokenize_markup('<a><inline url="file:U"><b>')
        out = splice_inline(events, by_url(streams))
        assert out == [open_event("a"), open_event("x"), open_event("b")]

    def test_inlined_doc_header_is_dropped(self):
        streams = {"U": tokenize_markup("<doc type=t version=1><x>")}
        out = splice_inline(tokenize_markup('<inline url=U>'), by_url(streams))
        assert out == [open_event("x")]

    def test_resolver_failure_names_url(self):
        def resolver(url, tag):
            raise IOError("no such document")

        with pytest.raises(MarkupError, match="file:gone"):
            splice_inline(tokenize_markup('<inline url=file:gone>'), resolver)

    def test_non_inline_order_preserved(self):
        streams = {"U": tokenize_markup("<m>")}
        text = 'head<one><inline url=U>mid<two>tail'
        out = splice_inline(tokenize_markup(text), by_url(streams))
        non_inline = tokenize_markup(text.replace('<inline url=U>', '<m>'))
        assert out == non_inline

    def test_both_tags_replaced_in_document_order(self):
        calls = []

        def resolver(url, tag):
            calls.append((tag, url))
            return tokenize_markup(f"<{url}>")

        text = '<a><include url=I1><inline url=L1><b><INLINE url=L2><include url=I2>'
        out = splice_inline(tokenize_markup(text), resolver,
                            tags=("inline", "include"))
        assert calls == [("include", "I1"), ("inline", "L1"),
                         ("inline", "L2"), ("include", "I2")]
        assert out == tokenize_markup("<a><I1><L1><b><L2><I2>")

    def test_close_events_of_spliced_tags_are_dropped(self):
        streams = {"U": tokenize_markup("<x>")}
        text = '<inline url=U></inline><include url=U></include><keep></keep>'
        out = splice_inline(tokenize_markup(text), by_url(streams),
                            tags=("inline", "include"))
        assert out == tokenize_markup("<x><x><keep></keep>")

    def test_tags_outside_the_set_are_kept(self):
        streams = {"U": tokenize_markup("<x>")}
        text = '<inline url=U><include url=U></include>'
        out = splice_inline(tokenize_markup(text), by_url(streams))
        assert out == tokenize_markup("<x><include url=U></include>")

    def test_resolver_output_is_taken_as_is(self):
        # no recursion: an <inline> inside the resolved stream is left alone
        streams = {"U": tokenize_markup("<doc type=t version=1><inline url=U></inline>")}
        out = splice_inline(tokenize_markup("<inline url=U>"), by_url(streams))
        assert out == tokenize_markup("<inline url=U></inline>")


def test_event_equality_ignores_only_the_location():
    here, there = Location("a.doc", 1, 1), Location("b.doc", 7, 3)
    event = open_event("x", [("k", "v")], here)
    assert event == open_event("x", [("k", "v")], there)
    assert event == open_event("x", [("k", "v")])
    assert chardata_event("t", here) == chardata_event("t", there)
    assert event != TagEvent(EventKind.CLOSE, name="x", location=here)
    assert event != open_event("y", [("k", "v")], here)
    assert event != open_event("x", [("k", "w")], here)
    assert event != open_event("x", [], here)
    assert chardata_event("t", here) != chardata_event("u", here)
    assert event != "x"


def test_location_equality_and_str():
    assert str(Location("a.doc", 3, 14)) == "a.doc:3:14"
    assert Location("a.doc", 3, 14) == Location("a.doc", 3, 14)
    assert Location("a.doc", 3, 14) != Location("a.doc", 3, 15)
    assert Location("a.doc", 3, 14) != Location("b.doc", 3, 14)
