import dataclasses
import re

import pytest
from hypothesis import example, given, strategies as st

import oracles
from codemix.errors import ConfigError
from synth import synthetic_dataset
from codemix import preprocess
from codemix.preprocess import (
    EmojiLexicon,
    PipelineConfig,
    collapse_elongation,
    default_lexicon,
    remove_mentions,
    remove_non_ascii,
    replace_urls,
    run_pipeline,
    segment_hashtags,
)

# The four reference normalization examples, reproduced byte-exactly.
GOLDEN_EXAMPLES = [
    ("emoji", "I love you so much , <3", "I love you so much smiley face heart"),
    ("urls", "The article URL is www.example.com", "The article URL is URL"),
    ("elongation", "Hiiiii everyone", "Hi everyone"),
    ("hashtags", "We need to talk #HereWeGoAgain", "We need to talk Here We Go Again"),
]

RULES = ("replace_emoji", "remove_mentions", "replace_urls", "collapse_elongation", "segment_hashtags", "remove_non_ascii")
ALL_RULES_OFF = PipelineConfig(**dict.fromkeys(RULES, False))
RULE_ONLY_CONFIGS = {
    rule: dataclasses.replace(ALL_RULES_OFF, **{name: True})
    for rule, name in [
        ("emoji", "replace_emoji"),
        ("urls", "replace_urls"),
        ("elongation", "collapse_elongation"),
        ("hashtags", "segment_hashtags"),
    ]
}


def emoji_rule(text, lexicon):
    """The emoji rule as the pipeline applies it: one scan that spells every key, then squashed spaces."""
    return preprocess._squash(lexicon.spell(text)[0])


class TestReplaceEmoji:
    @pytest.mark.parametrize("text,expected", [GOLDEN_EXAMPLES[0][1:]])
    def test_golden(self, lexicon, text, expected):
        assert emoji_rule(text, lexicon) == expected

    def test_empty(self, lexicon):
        assert emoji_rule("", lexicon) == ""

    def test_adjacent_hearts(self, lexicon):
        # longest-match applied by hand: two independent "<3" matches
        assert emoji_rule("<3<3", lexicon) == "heart heart"

    def test_longest_match_first(self):
        lex = EmojiLexicon({":(": "sad face", ":((": "very sad face"})
        assert emoji_rule("so :(( bad", lex) == "so very sad face bad"

    def test_unknown_emoji_pass_through(self, lexicon):
        assert emoji_rule("novel \U0001fae9 glyph", lexicon) == "novel \U0001fae9 glyph"

    def test_unicode_emoji(self, lexicon):
        assert emoji_rule("jaja \U0001f602", lexicon) == "jaja face with tears of joy"


class TestRemoveMentions:
    def test_leading_mention(self):
        assert remove_mentions("@user hola") == "hola"

    def test_inner_mention(self):
        assert remove_mentions("a @b c") == "a c"

    def test_email_is_kept(self):
        # '@' not token-initial, confirmed against whitespace tokenization
        assert remove_mentions("email a@b.c stays") == "email a@b.c stays"

    def test_bare_at(self):
        assert remove_mentions("@ solo") == "solo"


class TestRemoveNonAscii:
    def test_accented_letters(self):
        assert remove_non_ascii("niño") == "nio"

    def test_pure_ascii_identity(self):
        assert remove_non_ascii("plain text 123 !?") == "plain text 123 !?"

    def test_emoji_and_accent(self):
        # codepoints enumerated by hand: é and the cup glyph are > 0x7F
        assert remove_non_ascii("café ☕") == "caf"

    @given(st.text(max_size=40))
    def test_output_is_ascii(self, text):
        assert all(ord(ch) <= 0x7F for ch in remove_non_ascii(text))


class TestReplaceUrls:
    def test_golden(self):
        assert replace_urls("The article URL is www.example.com") == "The article URL is URL"

    def test_identity_without_links(self):
        assert replace_urls("no links here") == "no links here"

    def test_scheme_urls(self):
        assert replace_urls("see https://a.b/c and http://d.e") == "see URL and URL"

    @pytest.mark.parametrize(
        "token",
        ["example.com", "a.b.example.org", "site.io/path/x", "site.es?q=1", "WWW.SHOUTY.COM"],
    )
    def test_recognized_tokens(self, token):
        assert replace_urls(f"x {token} y") == "x URL y"

    @pytest.mark.parametrize(
        "token",
        ["example.xyz", "no-dot", "ftp.example", "1.5", "com.", ".com", "a..com"],
    )
    def test_unrecognized_tokens(self, token):
        assert replace_urls(f"x {token} y") == f"x {token} y"


class TestCollapseElongation:
    def test_golden(self):
        assert collapse_elongation("Hiiiii everyone", 3) == "Hi everyone"

    def test_below_threshold_untouched(self):
        assert collapse_elongation("good", 3) == "good"

    def test_multiple_runs(self):
        # every 'o' run is >= 3 so each collapses to one letter
        assert collapse_elongation("soooo cooool", 3) == "so col"

    def test_min_run_two(self):
        assert collapse_elongation("good", 2) == "god"

    def test_digits_never_collapse(self):
        assert collapse_elongation("year 2000!!!", 3) == "year 2000!!!"

    def test_case_insensitive_run_keeps_first_case(self):
        assert collapse_elongation("AAAa", 3) == "A"
        assert collapse_elongation("NOOOOO", 3) == "NO"

    def test_min_run_must_be_at_least_two(self):
        with pytest.raises(ConfigError):
            collapse_elongation("x", 1)


class TestSegmentHashtags:
    def test_golden(self):
        assert segment_hashtags("We need to talk #HereWeGoAgain") == "We need to talk Here We Go Again"

    def test_no_internal_boundary(self):
        assert segment_hashtags("#hello") == "hello"

    def test_digit_and_underscore_boundaries(self):
        # boundary rules applied by hand: top|10|Hits and the underscore
        assert segment_hashtags("#top10Hits_2020") == "top 10 Hits 2020"

    def test_uppercase_runs_stay_together(self):
        assert segment_hashtags("#HTTPServer") == "HTTPServer"

    def test_non_hashtag_tokens_untouched(self):
        assert segment_hashtags("c#code stays") == "c#code stays"

    def test_bare_hash_dropped(self):
        assert segment_hashtags("a # b") == "a b"

    def test_stacked_hashes_stripped(self):
        assert segment_hashtags("##DoubleTag") == "Double Tag"

    @pytest.mark.parametrize("token", ["#@user", "#www.x.com", "#a-b", "#:)x"])
    def test_non_word_bodies_left_alone(self, token):
        assert segment_hashtags(f"x {token}") == f"x {token}"

    def test_unicode_word_bodies_segment(self):
        assert segment_hashtags("#año2020") == "año 2020"


class TestRunPipeline:
    def test_identity_config_normalizes_whitespace(self):
        assert run_pipeline("  spaced \t out\ttext  ", ALL_RULES_OFF) == "spaced out text"

    @pytest.mark.parametrize("rule,text,expected", GOLDEN_EXAMPLES)
    def test_single_rule_matches_golden(self, rule, text, expected, lexicon):
        assert run_pipeline(text, RULE_ONLY_CONFIGS[rule], lexicon) == expected

    def test_full_pipeline_composition(self, lexicon):
        # composed by hand from the single-rule outputs
        assert run_pipeline("@u Hiiiii #GoTeam <3 www.x.com", PipelineConfig(), lexicon) == "Hi Go Team heart URL"

    def test_emoji_textualized_before_ascii_stripping(self, lexicon):
        assert run_pipeline("ok \U0001f525", PipelineConfig(), lexicon) == "ok fire"


texts = st.text(
    alphabet=st.characters(codec="utf-8", categories=("L", "N", "P", "S", "Z")),
    max_size=60,
)


class TestProperties:
    @given(text=texts)
    def test_rules_are_idempotent(self, lexicon, text):
        for rule in (
            lambda s: emoji_rule(s, lexicon),
            remove_mentions,
            replace_urls,
            lambda s: collapse_elongation(s, 3),
            segment_hashtags,
            remove_non_ascii,
        ):
            once = rule(text)
            assert rule(once) == once

    @given(text=texts)
    def test_pipeline_is_idempotent(self, lexicon, text):
        config = PipelineConfig()
        once = run_pipeline(text, config, lexicon)
        assert run_pipeline(once, config, lexicon) == once

    @given(texts)
    def test_no_mentions_survive(self, text):
        cleaned = remove_mentions(text)
        assert not any(token.startswith("@") for token in cleaned.split())

    @given(text=texts)
    def test_pipeline_output_is_ascii_when_enabled(self, lexicon, text):
        cleaned = run_pipeline(text, PipelineConfig(), lexicon)
        assert all(ord(ch) <= 0x7F for ch in cleaned)

    @given(text=texts)
    def test_output_whitespace_is_normalized(self, lexicon, text):
        cleaned = run_pipeline(text, PipelineConfig(), lexicon)
        assert cleaned == " ".join(cleaned.split())


# Characters whose case mappings trip a naive case-insensitive regex: "İ".lower()
# is two code points, the Kelvin sign "\u212a" lowers to "k", "ǅ" is titlecase, "²" and "ⅰ"
# are word characters but not letters, "ß"/"ẞ", "ſ" and the sigmas fold unevenly.
TRICKY = list("İiIK\u212akǅǆǄ²³ⅰⅠßẞſsSΣσςaA1_ ")
EMOJI_KEYS = [":)", ":-)", ":))", ":(", "<3", ", <3", "o_O", "❤", "❤️", "😀", "👍🏽"]
mixed_texts = st.lists(
    st.one_of(
        st.sampled_from(TRICKY + EMOJI_KEYS + list(":-(<3,_o#@.ñé ")),
        st.characters(codec="utf-8", categories=("L", "N", "P", "S", "Z")),
    ),
    max_size=30,
).map("".join)


def frozen_settles(text, config, entries):
    """Whether one of the first 8 frozen passes over text leaves its text unchanged."""
    current = preprocess._squash(text)
    for _ in range(8):
        previous, current = current, oracles.frozen_pipeline_pass(current, config, entries)
        if current == previous:
            return True
    return False


def loadable(entries):
    """entries less each one whose key occurs in a name as spell writes it, between spaces: a lexicon that loads."""
    spelled = [f" {name} " for name in entries.values()]
    return {key: name for key, name in entries.items() if not any(key in text for text in spelled)}


lexicons = st.dictionaries(
    keys=st.text(alphabet=st.sampled_from(TRICKY + list(":-(<3,o❤😀é ")), min_size=1, max_size=4),
    values=st.text(alphabet=st.sampled_from(list("abz _")), min_size=1, max_size=6),
    min_size=0,
    max_size=12,
).map(loadable)


# Lexicons that load, but whose names form a key again once the other rules or the spaces around a
# name act on them: each pass doubles every "URL" of the first, and lengthens the second's text by 3.
RUNAWAY = [
    ({"URL": "a.com b.com"}, "URL", PipelineConfig()),
    ({"a a": "a  ab", " b": " ::", "aa:": ":abb"}, "ab:a a", RULE_ONLY_CONFIGS["emoji"]),
]
# Pieces that rules act on: a URL and what replaces it, a hashtag, a mention, a letter that
# remove_non_ascii strips, and spaces.
TRIGGERS = ["URL", "a.com", "#", "@", "é", " ", "a", "b"]
trigger_lexicons = st.dictionaries(
    keys=st.lists(st.sampled_from(TRIGGERS), min_size=1, max_size=2).map("".join),
    values=st.lists(st.sampled_from(TRIGGERS), min_size=1, max_size=4).map("".join),
    max_size=4,
)


class TestMatchesFrozenRules:
    """The compiled rules against the per-character loops frozen in oracles.py."""

    @given(text=mixed_texts)
    def test_replace_emoji_default_lexicon(self, lexicon, text):
        assert emoji_rule(text, lexicon) == oracles.frozen_replace_emoji(text, lexicon._entries)

    @given(text=mixed_texts, entries=lexicons)
    @example(text="aab ab b", entries={"a": "x", "ab": "y", "b ": "z"})
    @example(text="İi ii", entries={"i": "dot", "İ": "cap"})
    @example(text="ñ 😀 :) x", entries={})
    def test_replace_emoji_random_lexicon(self, text, entries):
        assert emoji_rule(text, EmojiLexicon(entries)) == oracles.frozen_replace_emoji(text, entries)

    @given(text=mixed_texts, min_run=st.integers(2, 5))
    @example(text="İii", min_run=3)
    @example(text="İii", min_run=2)
    @example(text="KKk", min_run=3)
    @example(text="\u212a\u212ak", min_run=3)
    @example(text="k\u212a\u212a", min_run=3)
    @example(text="ǅǆǅ", min_run=3)
    @example(text="²²²", min_run=3)
    @example(text="ⅰⅰⅰ", min_run=3)
    @example(text="xİIiii", min_run=2)
    def test_collapse_elongation(self, text, min_run):
        assert collapse_elongation(text, min_run) == oracles.frozen_collapse_elongation(text, min_run)

    @pytest.mark.parametrize("text", ["İii", "KKk", "\u212a\u212ak", "k\u212a\u212a", "ǅǆǅ", "²²²", "ⅰⅰⅰ"])
    def test_explicit_case_folding_cases(self, text):
        for min_run in range(2, 6):
            assert collapse_elongation(text, min_run) == oracles.frozen_collapse_elongation(text, min_run)

    @given(
        text=st.lists(
            st.one_of(
                st.sampled_from(TRICKY + ["www", "http", "com", "IO", "://", "/", "?", "-", "x", "\u212a"]),
                st.characters(codec="utf-8", categories=("L", "N", "P", "S", "Z")),
                st.just("."),
                st.just(":"),
            ),
            max_size=30,
        ).map("".join)
    )
    @example(text="ſ.com")
    @example(text="\u212a.io")  # Kelvin sign, which IGNORECASE matches to "k"
    @example(text="www.")
    @example(text="a.b")
    @example(text="mailto:x")
    @example(text="http://x")  # a URL with no "."
    @example(text=".")
    @example(text=":")
    @example(text="URL")
    def test_replace_urls(self, text):
        assert replace_urls(text) == oracles.frozen_replace_urls(text)

    @given(text=st.text(max_size=40))
    def test_remove_non_ascii(self, text):
        assert remove_non_ascii(text) == oracles.frozen_remove_non_ascii(text)

    @given(
        text=mixed_texts,
        rules=st.lists(st.booleans(), min_size=6, max_size=6),
        min_run=st.integers(2, 5),
        entries=st.one_of(st.none(), lexicons),
    )
    # Each example needs a second pass that changes the text: stripping "é" exposes ":)", removing
    # the mention joins "a b", segmenting forms "Go Team" and replacing the URL writes "URL".
    @example(text=":é)", rules=[True] * 6, min_run=3, entries=None)
    @example(text="a @u b", rules=[True] * 6, min_run=3, entries={"a b": "x"})
    @example(text="#GoTeam", rules=[True] * 6, min_run=3, entries={"Go Team": "x"})
    @example(text="ab.com", rules=[True] * 6, min_run=3, entries={"URL": "x"})
    @example(text="Ññññ xÑÑÑ", rules=[True] * 6, min_run=3, entries={})  # ASCII only after stripping
    @example(text="http://x", rules=[True] * 6, min_run=3, entries={})  # a URL with no "."
    @example(text="ab:a a", rules=[True] + [False] * 5, min_run=3, entries=RUNAWAY[1][0])  # never settles
    def test_run_pipeline(self, lexicon, text, rules, min_run, entries):
        config = PipelineConfig(*rules, elongation_min_run=min_run)
        lexicon = lexicon if entries is None else EmojiLexicon(entries)
        if frozen_settles(text, config, lexicon._entries):
            assert run_pipeline(text, config, lexicon) == oracles.frozen_run_pipeline(text, config, lexicon._entries)
        else:
            with pytest.raises(ConfigError, match="did not settle within 8 passes"):
                run_pipeline(text, config, lexicon)

    @pytest.mark.parametrize(
        "text,entries,expected",
        [
            (":é)", None, "smiley face"),
            ("a @u b", {"a b": "x"}, "x"),
            ("#GoTeam", {"Go Team": "x"}, "x"),
            ("ab.com", {"URL": "x"}, "x"),
        ],
    )
    def test_second_pass_changes_the_text(self, lexicon, text, entries, expected):
        lexicon = lexicon if entries is None else EmojiLexicon(entries)
        config = PipelineConfig()
        once = preprocess._pipeline_pass(preprocess._squash(text), config, lexicon)
        assert once != expected
        assert run_pipeline(text, config, lexicon) == expected

    def test_run_pipeline_on_synthetic_corpus(self, lexicon):
        config = PipelineConfig()
        for tweet in synthetic_dataset("train", 300, seed=5):
            text = f"@user {tweet.text} #SoGood 😀😀 niiiice www.x.com"
            assert run_pipeline(text, config, lexicon) == oracles.frozen_run_pipeline(text, config, lexicon._entries)


class TestPassBudget:
    @pytest.mark.parametrize("entries,text,config", RUNAWAY)
    def test_a_text_that_does_not_settle_is_refused(self, entries, text, config):
        with pytest.raises(ConfigError, match=re.escape(f"normalizing {text!r} did not settle within 8 passes")):
            run_pipeline(text, config, EmojiLexicon(entries))

    # A text of at most 8 characters: each pass may multiply a text that a lexicon makes grow.
    @given(
        text=st.lists(st.sampled_from(TRIGGERS), max_size=4).map(lambda pieces: "".join(pieces)[:8]),
        entries=trigger_lexicons,
        rules=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    @example(text=RUNAWAY[0][1], entries=RUNAWAY[0][0], rules=[True] * 6)
    @example(text=RUNAWAY[1][1], entries=RUNAWAY[1][0], rules=[True] + [False] * 5)
    def test_every_text_returned_is_a_fixed_point(self, text, entries, rules):
        config = PipelineConfig(*rules)
        try:
            lexicon = EmojiLexicon(entries)
            cleaned = run_pipeline(text, config, lexicon)
        except ConfigError:
            return
        # The pass first: it is cheap even where cleaned is long and unsettled.
        assert preprocess._pipeline_pass(cleaned, config, lexicon) == cleaned
        assert run_pipeline(cleaned, config, lexicon) == cleaned


class TestEmojiLexicon:
    def test_from_lines_skips_comments_and_blanks(self):
        lex = EmojiLexicon.from_lines(["# comment", "", ":)\tsmiley face", "<3\theart"])
        assert lex.spell("# comment :) <3") == ("# comment  smiley face   heart ", 2)

    def test_missing_tab_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            EmojiLexicon.from_lines(["no-tab-entry"])

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ConfigError, match="conflicting"):
            EmojiLexicon.from_lines([":)\tsmiley face", ":)\tgrin"])

    def test_consistent_duplicate_allowed(self):
        lex = EmojiLexicon.from_lines([":)\tsmiley face", ":)\tsmiley face"])
        assert lex.spell(":):)") == (" smiley face  smiley face ", 2)

    def test_empty_key_or_value_rejected(self):
        with pytest.raises(ConfigError):
            EmojiLexicon({"": "name"})
        with pytest.raises(ConfigError):
            EmojiLexicon({"<3": ""})

    @pytest.mark.parametrize(
        "entries, refused",
        [
            # Replacing a key wrote a key: "İİİİİİİİİİİİ²" grew pass after pass, to 372,620 characters.
            ({"_": "_", " ": "___", "²": "_"}, "entry '_' writes ' _ ', which holds the key ' '"),
            ({"x": "a b", "a b": "c"}, "entry 'x' writes ' a b ', which holds the key 'a b'"),
            ({":)": "smile", " ": "space"}, "entry ':)' writes ' smile ', which holds the key ' '"),
        ],
    )
    def test_a_name_that_holds_a_key_is_refused(self, entries, refused):
        with pytest.raises(ConfigError, match=re.escape(refused)):
            EmojiLexicon(entries)

    def test_a_self_mapping_file_entry_is_refused(self):
        with pytest.raises(ConfigError, match=re.escape("entry '_' writes ' _ ', which holds the key '_'")):
            EmojiLexicon.from_lines(["_\t_"])

    def test_from_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(":D\tgrinning face\n", encoding="utf-8")
        assert EmojiLexicon.from_file(str(path)).spell(":D") == (" grinning face ", 1)

    def test_from_file_ends_lines_only_at_line_feeds(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"a\rb\tname one\r\n:D\tgrinning face")
        lexicon = EmojiLexicon.from_file(str(path))
        assert lexicon.spell("a\rb:D") == (" name one  grinning face ", 2)

    def test_default_lexicon_has_core_entries(self, lexicon):
        for key, name in [
            ("<3", "heart"),
            (", <3", "smiley face heart"),
            (":)", "smiley face"),
            (":(", "sad face"),
            ("❤", "red heart"),
        ]:
            assert lexicon.spell(key) == (f" {name} ", 1)

    def test_default_lexicon_names_are_lowercase_ascii_words(self, lexicon):
        for name in lexicon._entries.values():  # noqa: SLF001 - shape check over bundled data
            assert name == name.lower()
            assert all(ord(ch) <= 0x7F for ch in name)
            assert name == " ".join(name.split())
