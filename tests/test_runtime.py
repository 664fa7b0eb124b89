import os
import shutil
import subprocess
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from scram.errors import AreaError
from scram.runtime import (
    EnvDelta,
    EnvEmitError,
    _quote_sh,
    apply_delta,
    emit_shell,
    load_app_env_file,
    parse_app_env,
    rollback_actions,
)
from scram.markup import strip_doc_header, tokenize_markup

from shelloracle import evaluate_emission
from test_acceptance import hostile_values


def delta_of(sets=(), prepends=(), area_id="proj:1.0"):
    delta = EnvDelta(area_id=area_id)
    for name, value in sets:
        delta.set(name, value)
    for name, value in prepends:
        delta.prepend(name, value)
    return delta


class TestApplyDelta:
    def test_set_overwrites(self):
        out = apply_delta({"A": "old"}, delta_of(sets=[("A", "new")]))
        assert out["A"] == "new"

    def test_prepend_to_absent_and_present(self):
        d = delta_of(prepends=[("P", "/x")])
        assert apply_delta({}, d)["P"] == "/x"
        assert apply_delta({"P": "/y"}, d)["P"] == "/x:/y"

    def test_prepend_skipped_when_already_head(self):
        d = delta_of(prepends=[("P", "/x")])
        once = apply_delta({"P": "/z"}, d)
        twice = apply_delta(once, d)
        assert once == twice
        assert twice["P"] == "/x:/z"

    def test_sequential_prepends_push_front(self):
        # hand-simulated: A then B leaves B ahead of A
        d = delta_of(prepends=[("LD_LIBRARY_PATH", "/tool-a/lib"),
                               ("LD_LIBRARY_PATH", "/tool-b/lib")])
        out = apply_delta({}, d)
        assert out["LD_LIBRARY_PATH"] == "/tool-b/lib:/tool-a/lib"

    def test_input_map_unchanged(self):
        env = {"A": "1"}
        apply_delta(env, delta_of(sets=[("A", "2")]))
        assert env == {"A": "1"}


class TestDeltaValidation:
    def test_new_delta_is_empty(self):
        d = EnvDelta()
        assert not d.sets and not d.prepends
        assert (d.sets, d.prepends, d.area_id) == ([], [], "")
        assert EnvDelta().sets is not d.sets

    def test_name_cannot_be_both_set_and_prepend(self):
        d = EnvDelta().set("X", "1")
        with pytest.raises(EnvEmitError):
            d.prepend("X", "2")

    def test_reserved_namespace_rejected(self):
        with pytest.raises(EnvEmitError):
            EnvDelta().set("SCRAMRT_FOO", "1")
        with pytest.raises(EnvEmitError):
            EnvDelta().set("SET", "1")

    def test_bad_identifier_rejected(self):
        with pytest.raises(EnvEmitError):
            EnvDelta().set("1BAD", "x")
        with pytest.raises(EnvEmitError):
            EnvDelta().prepend("WITH SPACE", "x")

    def test_extend_appends_in_place(self):
        base = delta_of(sets=[("A", "1")], prepends=[("P", "/a")], area_id="")
        more = delta_of(sets=[("B", "2")], prepends=[("P", "/b")], area_id="p:v")
        assert base.extend(more) is base
        assert base.sets == [("A", "1"), ("B", "2")]
        assert base.prepends == [("P", "/a"), ("P", "/b")]
        assert base.area_id == "p:v"
        assert more.sets == [("B", "2")]

    def test_extend_rejects_a_name_of_the_other_kind(self):
        with pytest.raises(EnvEmitError, match="'X' is already a setting"):
            delta_of(sets=[("X", "1")]).extend(delta_of(prepends=[("X", "/x")]))
        with pytest.raises(EnvEmitError, match="'X' is already a prepend"):
            delta_of(prepends=[("X", "/x")]).extend(delta_of(sets=[("X", "1")]))

    def test_merge_leaves_both_operands_unchanged(self):
        base = delta_of(sets=[("A", "1")], prepends=[("P", "/a")])
        overlay = delta_of(sets=[("B", "2")], prepends=[("P", "/b")], area_id="")
        merged = base.merge(overlay)
        assert (merged.sets, merged.prepends, merged.area_id) == (
            base.sets + overlay.sets, base.prepends + overlay.prepends, "proj:1.0")
        assert base.sets == [("A", "1")] and overlay.prepends == [("P", "/b")]
        merged.set("C", "3")
        assert ("C", "3") not in base.sets

    def test_names_in_first_appearance_order(self):
        d = delta_of(sets=[("B", "1"), ("A", "2"), ("B", "3")],
                     prepends=[("P", "/x"), ("B2", "/y"), ("P", "/z")])
        assert d.names() == ["B", "A", "P", "B2"]

    def test_merge_keeps_order_and_overlay_wins(self):
        base = delta_of(sets=[("A", "base")], prepends=[("P", "/base")])
        overlay = delta_of(sets=[("A", "overlay")], prepends=[("P", "/overlay")])
        merged = base.merge(overlay)
        out = apply_delta({}, merged)
        assert out["A"] == "overlay"
        assert out["P"] == "/overlay:/base"


class TestEmitShell:
    def test_sh_single_set(self):
        text = emit_shell(delta_of(sets=[("FOO", "1")]), {}, "sh")
        assert 'FOO="1"; export FOO;' in text
        assert 'SCRAMRT_UNSET="FOO"; export SCRAMRT_UNSET;' in text
        assert evaluate_emission(text, {}, "sh")["FOO"] == "1"

    def test_csh_single_set(self):
        text = emit_shell(delta_of(sets=[("FOO", "1")]), {}, "csh")
        assert "setenv FOO '1';" in text
        assert evaluate_emission(text, {}, "csh")["FOO"] == "1"

    def test_unsupported_dialect(self):
        with pytest.raises(EnvEmitError, match="dialect"):
            emit_shell(EnvDelta(), {}, "fish")

    def test_empty_delta_empty_prior_emits_nothing(self):
        assert emit_shell(EnvDelta(), {"HOME": "/root"}, "sh") == ""

    def test_shadows_record_previous_value(self):
        env = {"PATH": "/usr/bin"}
        text = emit_shell(delta_of(prepends=[("PATH", "/area/bin")]), env, "sh")
        out = evaluate_emission(text, env, "sh")
        assert out["PATH"] == "/area/bin:/usr/bin"
        assert out["SCRAMRT_PATH"] == "/usr/bin"
        assert out["SCRAMRT_SET"] == "proj:1.0"

    def test_rollback_restores_exactly(self):
        env = {"PATH": "/usr/bin", "KEEP": "me"}
        applied = evaluate_emission(
            emit_shell(delta_of(sets=[("NEW", "x")],
                                prepends=[("PATH", "/p")]), env, "sh"),
            env, "sh")
        # an empty delta rolls back and records nothing new
        restored = evaluate_emission(emit_shell(EnvDelta(), applied, "sh"),
                                     applied, "sh")
        assert restored == env

    def test_area_switch_leaves_no_residue(self):
        env = {"PATH": "/usr/bin", "HOME": "/h"}
        delta_a = delta_of(sets=[("AREA", "A")], prepends=[("PATH", "/a/bin")],
                           area_id="A")
        delta_b = delta_of(sets=[("OTHER", "B")], prepends=[("PATH", "/b/bin")],
                           area_id="B")
        e1 = evaluate_emission(emit_shell(delta_a, env, "sh"), env, "sh")
        e2 = evaluate_emission(emit_shell(delta_b, e1, "sh"), e1, "sh")
        e3 = evaluate_emission(emit_shell(delta_a, e2, "sh"), e2, "sh")
        fresh = evaluate_emission(emit_shell(delta_a, env, "sh"), env, "sh")
        assert e3 == fresh
        assert e2.get("AREA") is None

    def test_reapplying_same_emission_is_idempotent(self):
        env = {"PATH": "/usr/bin"}
        text = emit_shell(delta_of(prepends=[("PATH", "/x")]), env, "sh")
        once = evaluate_emission(text, env, "sh")
        again = evaluate_emission(text, once, "sh")
        assert once == again

    def test_emit_is_pure(self):
        env = {"A": "1", "SCRAMRT_B": "old", "SCRAMRT_UNSET": "C", "C": "tmp"}
        delta = delta_of(sets=[("D", "4")])
        assert emit_shell(delta, env, "sh") == emit_shell(delta, env, "sh")
        assert emit_shell(delta, env, "csh") == emit_shell(delta, env, "csh")

    def test_csh_rejects_newline_values(self):
        with pytest.raises(EnvEmitError, match="newline"):
            emit_shell(delta_of(sets=[("X", "a\nb")]), {}, "csh")

    @pytest.mark.parametrize("value", [
        "plain", "with space", "dollar $HOME", 'double "quoted"',
        "single 'quoted'", "back\\slash", "tick `cmd`", "both '\" mixed $",
        "", "  leading and trailing  ", "колонки:unicode",
    ])
    @pytest.mark.parametrize("dialect", ["sh", "csh"])
    def test_hostile_values_round_trip(self, value, dialect):
        text = emit_shell(delta_of(sets=[("V", value)]), {}, dialect)
        assert evaluate_emission(text, {}, dialect)["V"] == value

    def test_sh_newline_value_round_trips(self):
        value = "line one\nline two"
        text = emit_shell(delta_of(sets=[("V", value)]), {}, "sh")
        assert evaluate_emission(text, {}, "sh")["V"] == value


class TestRollbackActions:
    def test_no_shadows_is_noop(self):
        env = {"A": "1"}
        restored, actions = rollback_actions(env)
        assert restored == env and actions == []

    def test_shadow_and_unset_list(self):
        env = {
            "PATH": "/area:/usr/bin",
            "NEW": "x",
            "SCRAMRT_PATH": "/usr/bin",
            "SCRAMRT_UNSET": "NEW",
            "SCRAMRT_SET": "A",
        }
        restored, actions = rollback_actions(env)
        assert restored == {"PATH": "/usr/bin"}
        assert ("unset", "NEW", "") in actions


names = st.text(alphabet="ABCDEFGH", min_size=1, max_size=3).map(lambda s: "V" + s)
safe_values = st.text(
    alphabet=st.characters(blacklist_characters="\n\0", min_codepoint=32,
                           max_codepoint=126),
    max_size=12,
)
hostile_values = st.one_of(
    safe_values,
    st.sampled_from(['a b', '$X', '"q"', "'s'", '\\', '`t`', 'a:$b "c" \'d\'']),
)


@st.composite
def env_maps(draw):
    base = draw(st.dictionaries(names, hostile_values, max_size=4))
    return {k: v for k, v in base.items()}


@st.composite
def deltas(draw, area_id):
    set_names = draw(st.lists(names, unique=True, max_size=3))
    prepend_names = draw(st.lists(names, unique=True, max_size=3))
    delta = EnvDelta(area_id=area_id)
    for name in set_names:
        delta.set(name, draw(hostile_values))
    for name in prepend_names:
        if name not in set_names:
            delta.prepend(name, draw(hostile_values))
    return delta


class TestRollbackProperties:
    @settings(max_examples=200, deadline=None)
    @given(env=env_maps(), delta_a=deltas("A"), delta_b=deltas("B"),
           dialect=st.sampled_from(["sh", "csh"]))
    def test_aba_equals_fresh_a(self, env, delta_a, delta_b, dialect):
        e1 = evaluate_emission(emit_shell(delta_a, env, dialect), env, dialect)
        e2 = evaluate_emission(emit_shell(delta_b, e1, dialect), e1, dialect)
        e3 = evaluate_emission(emit_shell(delta_a, e2, dialect), e2, dialect)
        fresh = evaluate_emission(emit_shell(delta_a, env, dialect), env, dialect)
        assert e3 == fresh

    @settings(max_examples=200, deadline=None)
    @given(env=env_maps(), delta=deltas("A"),
           dialect=st.sampled_from(["sh", "csh"]))
    def test_rollback_exactness(self, env, delta, dialect):
        applied = evaluate_emission(emit_shell(delta, env, dialect), env, dialect)
        rolled = evaluate_emission(emit_shell(EnvDelta(), applied, dialect),
                                   applied, dialect)
        assert rolled == env

    @settings(max_examples=200, deadline=None)
    @given(value=hostile_values, dialect=st.sampled_from(["sh", "csh"]))
    def test_quoting_round_trip(self, value, dialect):
        text = emit_shell(delta_of(sets=[("V", value)]), {}, dialect)
        assert evaluate_emission(text, {}, dialect)["V"] == value

    @settings(max_examples=300, deadline=None)
    @given(value=st.one_of(hostile_values, st.text()))
    def test_sh_quoting_matches_the_per_character_escape(self, value):
        def reference(value):
            out = []
            for ch in value:
                if ch in '\\"$`':
                    out.append("\\")
                out.append(ch)
            return "".join(out)

        assert _quote_sh(value) == reference(value)


@pytest.mark.skipif(shutil.which("sh") is None, reason="sh not on PATH")
class TestRealShellAgreement:
    """The map-simulation oracle is the contract; where a real sh exists,
    spot-check that it reads the emission the same way."""

    @pytest.mark.parametrize("value", [
        "plain", "with space", "dollar $HOME literal", 'quo"te', "apos'trophe",
        "back\\slash", "tick `never runs`", "new\nline", "  padded  ",
    ])
    def test_sh_value_round_trip(self, value):
        text = emit_shell(delta_of(sets=[("V", value)]), {}, "sh")
        proc = subprocess.run(
            ["sh", "-c", text + '\nprintf "%s" "$V"'],
            capture_output=True, env={"PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode() == value
        assert evaluate_emission(text, {}, "sh")["V"] == value

    def test_sh_rollback_sequence(self):
        env = {"PATH": "/usr/bin:/bin", "KEEP": "as is"}
        delta = delta_of(sets=[("NEW", "x y $z")], prepends=[("PATH", "/area bin")])
        first = emit_shell(delta, env, "sh")
        mid = evaluate_emission(first, env, "sh")
        second = emit_shell(EnvDelta(), mid, "sh")
        script = first + second + '\nprintf "%s|%s|%s" "$PATH" "$KEEP" "${NEW-unset}"'
        proc = subprocess.run(["sh", "-c", script], capture_output=True, env=env)
        assert proc.stdout.decode() == "/usr/bin:/bin|as is|unset"


def installed(shell: str):
    return pytest.param(shell, marks=pytest.mark.skipif(
        shutil.which(shell) is None, reason=f"{shell} is not installed"))


@pytest.mark.parametrize("shell", [installed("dash"), installed("bash")])
@settings(max_examples=30, deadline=None)
@given(values=st.lists(hostile_values, min_size=1, max_size=8))
@example(values=["  two  spaces", "a * b", "*", "[ab]", "x?y", "tab\tin"])
def test_the_documented_eval_reads_c5_values_exactly(shell, values):
    """``eval "$(scram runtime -sh)"``, as the docs give it, reads every
    value back exactly and runs nothing, in a directory whose file names
    match globs and one of which holds a command substitution. The
    example's values do not survive the unquoted form."""
    delta = EnvDelta(area_id="q")
    for i, value in enumerate(values):
        delta.set(f"V{i}", value)
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("x$(touch PWNED)", "a", "b", "ab", "x y", "t"):
            open(os.path.join(tmp, name), "w").close()
        with open(os.path.join(tmp, ".emission"), "w") as fh:
            fh.write(emit_shell(delta, {}, "sh"))
        script = ('eval "$(cat .emission)"\nprintf "%s\\0" '
                  + " ".join(f'"$V{i}"' for i in range(len(values))))
        proc = subprocess.run([shell, "-c", script], cwd=tmp, capture_output=True,
                              env={"PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().split("\0")[:-1] == values
        assert not os.path.exists(os.path.join(tmp, "PWNED"))


APP_ENV_TEXT = """<doc type=BuildSystem::AppEnvDoc version=1.0>
<Environment name=DISPLAY_DEPTH value=8>
<Environment name=LD_LIBRARY_PATH value=/app/lib type=Runtime_path>
"""


class TestAppEnv:
    def test_parse_entries(self):
        delta = parse_app_env(strip_doc_header(tokenize_markup(APP_ENV_TEXT)))
        assert delta.sets == [("DISPLAY_DEPTH", "8")]
        assert delta.prepends == [("LD_LIBRARY_PATH", "/app/lib")]

    def test_missing_value_is_error(self):
        with pytest.raises(AreaError, match="no value"):
            parse_app_env(tokenize_markup("<Environment name=X>"))

    def test_overlay_lands_ahead_of_tool_entries(self):
        base = delta_of(prepends=[("LD_LIBRARY_PATH", "/tool/lib")])
        overlay = parse_app_env(strip_doc_header(tokenize_markup(APP_ENV_TEXT)))
        merged = base.merge(overlay)
        out = apply_delta({}, merged)
        assert out["LD_LIBRARY_PATH"].split(":")[0] == "/app/lib"
        assert out["DISPLAY_DEPTH"] == "8"

    def test_load_from_area(self, tmp_path):
        target = tmp_path / "config" / "app-env"
        target.mkdir(parents=True)
        (target / "viewer").write_text(APP_ENV_TEXT)
        delta = load_app_env_file(str(tmp_path), "viewer")
        assert (delta.sets, delta.area_id) == ([("DISPLAY_DEPTH", "8")], "")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(AreaError, match="no application environment"):
            load_app_env_file(str(tmp_path), "nosuch")

    def test_alternating_overlays_stay_rollback_correct(self, tmp_path):
        base = delta_of(sets=[("BASE", "1")], area_id="p:v")
        over_a = delta_of(sets=[("APP", "A")])
        over_b = delta_of(sets=[("APP", "B")])
        env = {"HOME": "/h"}
        cur = env
        for overlay in (over_a, over_b, over_a, over_b):
            text = emit_shell(base.merge(overlay), cur, "sh")
            cur = evaluate_emission(text, cur, "sh")
        fresh = evaluate_emission(emit_shell(base.merge(over_b), env, "sh"),
                                  env, "sh")
        assert cur == fresh
