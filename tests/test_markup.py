import pytest
from hypothesis import example, given, strategies as st

from scram.errors import MarkupError
from scram.markup import (
    EventKind,
    HandlerMap,
    Location,
    TagEvent,
    chardata_event,
    close_event,
    open_event,
    parse_version,
    parse_with_handlers,
    read_doc_header,
    serialize_events,
    splice_inline,
    tokenize_markup,
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
        assert ev.attrs == (
            ("name", "LD_LIBRARY_PATH"),
            ("value", "$LIBDIR"),
            ("type", "Runtime_path"),
        )

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
        assert ev.attrs == (("checked", ""),)

    def test_locations_track_lines_and_columns(self):
        events = tokenize_markup("ab\n<t>", "s")
        assert events[0].location.line == 1 and events[0].location.column == 1
        assert events[1].location.line == 2 and events[1].location.column == 1

    @given(st.text(alphabet=st.characters(blacklist_characters="<")))
    def test_total_on_tag_free_text(self, text):
        events = tokenize_markup(text)
        assert "".join(e.text for e in events) == text
        assert all(e.kind is EventKind.CHARDATA for e in events)

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


class _Scanner:
    """The character-at-a-time scanner that ``tokenize_markup`` replaced,
    kept as the reference for ``TestScannerReference``."""

    def __init__(self, text, source):
        self.text, self.source = text, source
        self.pos, self.line, self.column = 0, 1, 1

    def location(self):
        return Location(self.source, self.line, self.column)

    def eof(self):
        return self.pos >= len(self.text)

    def peek(self, offset=0):
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def advance(self, count=1):
        taken = self.text[self.pos : self.pos + count]
        for ch in taken:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += len(taken)
        return taken

    def skip_whitespace(self):
        while not self.eof() and self.peek().isspace():
            self.advance()

    def take_while(self, pred):
        start = self.pos
        while not self.eof() and pred(self.peek()):
            self.advance()
        return self.text[start : self.pos]


def _is_name_start(ch):
    return ch.isalpha() or ch == "_"


def _is_name_char(ch):
    return ch.isalnum() or ch in "_-."


def _scanner_open_tag(scanner, start):
    scanner.advance()
    name = scanner.take_while(_is_name_char)
    attrs, seen = [], set()
    while True:
        scanner.skip_whitespace()
        if scanner.eof():
            raise MarkupError(f"unterminated tag <{name}", location=start)
        ch = scanner.peek()
        if ch == ">":
            scanner.advance()
            return open_event(name, attrs, start)
        if ch == "/" and scanner.peek(1) == ">":
            scanner.advance(2)
            return open_event(name, attrs, start)
        key = scanner.take_while(lambda c: not c.isspace() and c not in '=>"')
        if not key:
            raise MarkupError(
                f"unexpected character {scanner.peek()!r} in tag <{name}>",
                location=scanner.location(),
            )
        value = ""
        if scanner.peek() == "=":
            scanner.advance()
            if scanner.peek() == '"':
                quote_at = scanner.location()
                scanner.advance()
                chunk_start = scanner.pos
                while not scanner.eof() and scanner.peek() != '"':
                    scanner.advance()
                if scanner.eof():
                    raise MarkupError(
                        f"unterminated quoted value for '{key}' in tag <{name}>",
                        location=quote_at,
                    )
                value = scanner.text[chunk_start : scanner.pos]
                scanner.advance()
            else:
                value = scanner.take_while(lambda c: not c.isspace() and c != ">")
        folded = key.casefold()
        if folded in seen:
            raise MarkupError(
                f"duplicate attribute '{key}' in tag <{name}>", location=start
            )
        seen.add(folded)
        attrs.append((key, value))


def _scanner_close_tag(scanner, start):
    scanner.advance(2)
    name = scanner.take_while(_is_name_char)
    scanner.skip_whitespace()
    if scanner.eof():
        raise MarkupError(f"unterminated tag </{name}", location=start)
    if scanner.peek() != ">":
        raise MarkupError(
            f"unexpected character {scanner.peek()!r} in tag </{name}>",
            location=scanner.location(),
        )
    scanner.advance()
    return close_event(name, start)


def scanner_tokenize(text, source_id="<string>"):
    scanner = _Scanner(text, source_id)
    events = []
    run_start, run_location = 0, scanner.location()
    while not scanner.eof():
        nxt = scanner.peek(1)
        plausible = _is_name_start(nxt) or (
            nxt == "/" and _is_name_start(scanner.peek(2)))
        if scanner.peek() == "<" and plausible:
            if scanner.pos > run_start:
                events.append(chardata_event(text[run_start:scanner.pos], run_location))
            start = scanner.location()
            if nxt == "/":
                events.append(_scanner_close_tag(scanner, start))
            else:
                events.append(_scanner_open_tag(scanner, start))
            run_start, run_location = scanner.pos, scanner.location()
        else:
            scanner.advance()
    if scanner.pos > run_start:
        events.append(chardata_event(text[run_start:scanner.pos], run_location))
    return events


def _outcome(tokenize, text):
    """Events with their locations, or the error message and location."""
    try:
        events = tokenize(text, "src")
    except MarkupError as exc:
        return ("error", exc.message, exc.location)
    return ("events", [(ev, ev.location) for ev in events])


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
    def make_counting_map(self, record):
        hm = HandlerMap()
        hm.add("tools", "Tool",
               open=lambda s, e: record.append(("open", e.get("version"))),
               close=lambda s, e: record.append(("close", None)))
        return hm

    def test_dispatch_order_equals_textual_order(self, boost_text):
        record = []
        hm = self.make_counting_map(record)
        parse_with_handlers(tokenize_markup(boost_text), hm, None)
        assert record == [
            ("open", "1.28.0"), ("close", None),
            ("open", "1.29.0"), ("close", None),
            ("open", "1.30.0"), ("close", None),
        ]

    def test_empty_map_is_noop(self, boost_text):
        state = {"untouched": True}
        out = parse_with_handlers(tokenize_markup(boost_text), HandlerMap(), state)
        assert out is state and state == {"untouched": True}

    def test_case_insensitive_tag_match(self):
        hits = []
        hm = HandlerMap()
        hm.add("g", "tool", open=lambda s, e: hits.append(e.name))
        parse_with_handlers(tokenize_markup("<TOOL a=1><Tool a=2>"), hm, None)
        assert hits == ["TOOL", "Tool"]  # original case preserved on the event

    def test_group_toggling_marks_client_scope(self, boost_text):
        # hand-traced expectation over the Boost stream: the three variables
        # inside <Client> are flagged, LD_LIBRARY_PATH outside is not
        flags = []

        hm = HandlerMap()
        hm.add("outside", "Environment",
               open=lambda s, e: flags.append((e.get("name"), False)))
        hm.add("inside", "Environment",
               open=lambda s, e: flags.append((e.get("name"), True)),
               activate=False)

        def enter(state, ev):
            hm.deactivate("outside")
            hm.activate("inside")

        def leave(state, ev):
            hm.deactivate("inside")
            hm.activate("outside")

        hm.add("scope", "Client", open=enter, close=leave)
        parse_with_handlers(tokenize_markup(boost_text), hm, None)
        assert flags[:4] == [
            ("BOOST_BASE", True), ("LIBDIR", True), ("INCLUDE", True),
            ("LD_LIBRARY_PATH", False),
        ]
        assert flags == flags[:4] * 3

    def test_chardata_routed_to_innermost_open_tag(self):
        text = "<Tool name=T><Environment name=V>  described here  </Environment>tail</Tool>"
        got = {}
        hm = HandlerMap()
        hm.add("g", "Environment", chardata=lambda s, e: got.setdefault("env", e.text))
        hm.add("g", "Tool", chardata=lambda s, e: got.setdefault("tool", e.text))
        parse_with_handlers(tokenize_markup(text), hm, None)
        assert got["env"] == "  described here  "
        assert got["tool"] == "tail"

    def test_handler_isolation(self, boost_text):
        # a deactivated group behaves exactly as if never registered
        def collect(with_noise, noise_active):
            hm = HandlerMap()
            state = []
            hm.add("real", "Lib", open=lambda s, e: s.append(e.get("name")))
            if with_noise:
                hm.add("noise", "Lib", open=lambda s, e: s.append("NOISE"),
                       activate=noise_active)
                if not noise_active:
                    pass
                else:
                    hm.deactivate("noise")
            return parse_with_handlers(tokenize_markup(boost_text), hm, state)

        assert collect(False, False) == collect(True, False) == collect(True, True)

    def test_duplicate_registration_in_group_rejected(self):
        hm = HandlerMap()
        hm.add("g", "x", open=lambda s, e: None)
        with pytest.raises(MarkupError, match="already handles"):
            hm.add("g", "X", open=lambda s, e: None)

    def test_two_active_groups_claiming_tag_is_error(self):
        hm = HandlerMap()
        hm.add("g1", "x", open=lambda s, e: None)
        hm.add("g2", "x", open=lambda s, e: None)
        with pytest.raises(MarkupError, match="several active groups"):
            parse_with_handlers(tokenize_markup("<x>"), hm, None)

    def test_handler_error_gets_event_location(self):
        hm = HandlerMap()

        def boom(state, ev):
            raise ValueError("bad value")

        hm.add("g", "x", open=boom)
        with pytest.raises(MarkupError) as exc:
            parse_with_handlers(tokenize_markup("\n\n<x>", "doc"), hm, None)
        assert exc.value.location.line == 3


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


def test_close_event_invariants():
    with pytest.raises(ValueError):
        TagEvent(EventKind.CLOSE, name="x", attrs=(("a", "1"),))
    with pytest.raises(ValueError):
        TagEvent(EventKind.CLOSE, name="x", text="t")
    with pytest.raises(ValueError):
        TagEvent(EventKind.CHARDATA, name="x", text="t")
    with pytest.raises(ValueError):
        TagEvent(EventKind.CHARDATA, attrs=(("a", "1"),), text="t")


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
