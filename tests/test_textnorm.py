import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from offlang import textnorm
from offlang.textnorm import (
    EmojiTable,
    RawTweet,
    UnigramTable,
    bundled_emoji_table,
    bundled_unigram_table,
    collapse_mentions,
    emoji_to_words,
    normalize,
    segment_hashtag,
    substitute_rare,
)


# fragments of decorated tweets: mentions, URLs, hashtags, emoji (known,
# unknown and joiners), whitespace, and short runs of mixed characters
TWEET_PIECES = st.one_of(
    st.sampled_from(["URL", "url", "@USER", "@user", "#", "#MAGA", "#JokeOfTheDay",
                     "#a1", "\U0001F44D", "\U0001F602", "\u2764", "\u200d", "\ufe0f",
                     " ", "  ", "\t", "\n", "A", "b", "_", "x1"]),
    st.text(alphabet="aBc#@_ 1\U0001F600\u00e9", max_size=4),
)


@pytest.fixture(scope="module")
def emoji():
    return bundled_emoji_table()


@pytest.fixture(scope="module")
def unigrams():
    return bundled_unigram_table()


class TestNormalize:
    def test_lowercase_strip_only(self, emoji, unigrams):
        out = normalize(RawTweet(id="1", text="  Hello  "), emoji, unigrams)
        assert out.text == "hello"

    def test_composed_transforms(self, emoji, unigrams):
        out = normalize(
            RawTweet(id="1", text="@USER @USER URL #KeithEllisonAbuse"),
            emoji, unigrams,
        )
        assert out.text == "@users http keith ellison abuse"

    def test_empty_text(self, emoji, unigrams):
        out = normalize(RawTweet(id="1", text=""), emoji, unigrams)
        assert out.text == ""
        assert len(out.steps_applied) == 5

    def test_steps_recorded_in_order(self, emoji, unigrams):
        out = normalize(RawTweet(id="1", text="x"), emoji, unigrams)
        assert out.steps_applied == (
            "lowercase_strip", "emoji_to_words", "segment_hashtags",
            "collapse_mentions", "substitute_rare",
        )

    @pytest.mark.parametrize("text", [
        "  Hello  ",
        "@USER @USER URL #KeithEllisonAbuse",
        "I \U0001F44D this #MAGA thing",
        "#ThisIsATest of URL url @USER stuff ❤",
        "",
        "plain text with   spaces",
    ])
    def test_idempotent(self, text, emoji, unigrams):
        once = normalize(RawTweet(id="1", text=text), emoji, unigrams)
        twice = normalize(RawTweet(id="1", text=once.text), emoji, unigrams)
        assert twice.text == once.text

    @settings(max_examples=50, deadline=None)
    @given(text=st.lists(TWEET_PIECES, max_size=10).map("".join)
           .filter(lambda text: "##" not in text))
    def test_idempotent_on_generated_tweets(self, text, emoji, unigrams):
        """Normalizing normalized text changes nothing. The one kind of
        counterexample is a `#` directly before a hashtag, which the first
        pass leaves as a new hashtag: '##a' -> '#a' -> 'a' and '##URL' ->
        '#url' -> 'http'. Texts holding '##' are therefore left out, and
        `test_hash_before_a_hashtag_is_not_idempotent` pins that case."""
        once = normalize(RawTweet(id="1", text=text), emoji, unigrams)
        twice = normalize(RawTweet(id="1", text=once.text), emoji, unigrams)
        assert twice.text == once.text

    def test_hash_before_a_hashtag_is_not_idempotent(self, emoji, unigrams):
        def norm(text):
            return normalize(RawTweet(id="1", text=text), emoji, unigrams).text

        assert [norm("##a"), norm("#a")] == ["#a", "a"]
        assert [norm("##URL"), norm("#url")] == ["#url", "http"]

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            RawTweet(id="", text="x")

    @pytest.mark.parametrize("text, expected", [
        ("@USER @USER \U0001F44D #MAGA is a #JokeOfTheDay URL",
         "@users thumbs up maga is a joke of the day http"),
        ("Love this \U0001F602\U0001F602 #BuildTheWall #buildthewall URL URL",
         "love this face with tears of joy face with tears of joy "
         "build the wall build the wall http http"),
        ("#A #HTTP #x1 no emoji @USER", "a http x1 no emoji @user"),
        ("A\x00B \U0001F600 c", "a\x00b grinning face c"),
    ])
    def test_decorated_tweets(self, text, expected, emoji, unigrams):
        assert normalize(RawTweet(id="1", text=text), emoji, unigrams).text == expected

    @pytest.mark.parametrize("text", ["#HappyBirthday #happybirthday",
                                      "#happybirthday #HappyBirthday",
                                      "#HappyBirthday #HAPPYBIRTHDAY #HappyBirthday"])
    def test_case_variants_segment_from_their_own_body(self, text, emoji, unigrams):
        expected = " ".join(normalize(RawTweet(id="1", text=tag), emoji, unigrams).text
                            for tag in text.split())
        assert normalize(RawTweet(id="1", text=text), emoji, unigrams).text == expected
        assert normalize(RawTweet(id="1", text="#HappyBirthday"), emoji,
                         unigrams).text == "happy birthday"

    def test_each_hashtag_segmented_once(self, emoji, unigrams, monkeypatch):
        calls = []

        def counting(tag, table):
            calls.append(tag)
            return segment_hashtag(tag, table)

        monkeypatch.setattr(textnorm, "segment_hashtag", counting)
        out = normalize(RawTweet(id="1", text="#MAGA is a #JokeOfTheDay"), emoji, unigrams)
        assert out.text == "maga is a joke of the day"
        assert calls == ["MAGA", "JokeOfTheDay"]


def reference_emoji_to_words(text: str, table: EmojiTable) -> str:
    """Character walk that `emoji_to_words` replaced: at each position probe
    the table longest key first, then the emoji class."""
    max_key_len = max((len(k) for k in table.entries), default=1)
    pieces: list[str] = []
    run_start = 0
    i = 0
    n = len(text)
    while i < n:
        match = None
        for length in range(min(max_key_len, n - i), 0, -1):
            candidate = text[i:i + length]
            if candidate in table.entries:
                match = candidate
                break
        if match is not None:
            pieces += [text[run_start:i], table.entries[match]]
            i += len(match)
        elif textnorm._is_emoji_char(text[i]):
            pieces += [text[run_start:i], ""]
            i += 1
        else:
            i += 1
            continue
        run_start = i
    if not pieces:
        return text
    pieces.append(text[run_start:])
    last = len(pieces) - 1
    for k in range(0, last + 1, 2):
        if k > 0:
            pieces[k] = pieces[k].lstrip()
        if k < last:
            pieces[k] = pieces[k].rstrip()
    return re.sub(r" {2,}", " ", " ".join(pieces)).strip()


# table emoji, unknown emoji, ZWJ, VS16, control and odd space characters
ODD_CHARS = ["\U0001F44D", "\U0001F602", "\u2764", "\U0001F525", "\U0001F9FF",
             "\U0001FAFF", "\u2B50", "\u200D", "\uFE0F", "\x00", "\t", "\n",
             "\x1c", "\xa0", "\u3000", "\xa9", " ", " ", "a", "b", "x", "#", "@"]
# 1-, 2- and 3-character keys, some sharing prefixes, one starting with plain
# text, two single characters outside the emoji class (one beyond U+FFFF)
MULTI_KEY_TABLE = EmojiTable({
    "\xa9": "copyright", "\U0001FB00": "block sextant",
    "\U0001F44D": "thumbs up", "\U0001F44D\uFE0F": "thumbs up styled",
    "\u2764\uFE0F": "red heart", "\u2764\u200D\U0001F525": "heart on fire",
    "x\u200D": "joined x", "\U0001F602": "joy",
})


class TestEmojiToWords:
    @pytest.mark.parametrize("table_name", ["bundled", "multi_key"])
    def test_matches_character_walk(self, table_name, emoji):
        table = emoji if table_name == "bundled" else MULTI_KEY_TABLE
        alphabet = ODD_CHARS + sorted(table.entries)
        rng = random.Random(0)
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(13)))
            assert emoji_to_words(text, table) == reference_emoji_to_words(text, table), \
                ascii(text)

    def test_longest_key_wins(self):
        assert emoji_to_words("\u2764\u200D\U0001F525!", MULTI_KEY_TABLE) == "heart on fire !"
        assert emoji_to_words("\U0001F44D\uFE0F\uFE0F", MULTI_KEY_TABLE) == "thumbs up styled"

    def test_thumbs_up(self, emoji):
        assert emoji_to_words("\U0001F44D", emoji) == "thumbs up"

    def test_plain_text_unchanged(self, emoji):
        assert emoji_to_words("plain text", emoji) == "plain text"

    def test_heart_matches_table_entry(self, emoji):
        # bundled entry for U+2764 is the oracle
        expected = emoji.entries["❤"]
        assert emoji_to_words("❤", emoji) == expected

    def test_emoji_inside_text_gets_single_spaces(self, emoji):
        assert emoji_to_words("i\U0001F44Dyou", emoji) == "i thumbs up you"
        assert emoji_to_words("i \U0001F44D you", emoji) == "i thumbs up you"

    def test_unknown_emoji_dropped(self):
        table = EmojiTable({"\U0001F44D": "thumbs up"})
        assert emoji_to_words("ok \U0001F9FF then", table) == "ok then"

    def test_no_table_emoji_survive(self, emoji):
        out = emoji_to_words("a\U0001F602b❤c \U0001F525", emoji)
        assert not any(ch in emoji.entries for ch in out)

    def test_emoji_class_matches_ranges_at_edges(self):
        edges = {e + d for lo, hi in textnorm._EMOJI_RANGES for e in (lo, hi)
                 for d in (-1, 0, 1)}
        for cp in sorted(edges):
            in_range = any(lo <= cp <= hi for lo, hi in textnorm._EMOJI_RANGES)
            assert textnorm._is_emoji_char(chr(cp)) == in_range, hex(cp)

    def test_name_words_must_be_clean(self):
        with pytest.raises(ValueError):
            EmojiTable({"\U0001F44D": "thumbs-up!"})


class TestCollapseMentions:
    def test_two_mentions_collapse(self):
        assert collapse_mentions("@user @user you did this") == "@users you did this"

    def test_single_mention_unchanged(self):
        assert collapse_mentions("@user you did this") == "@user you did this"

    def test_no_mentions_unchanged(self):
        assert collapse_mentions("no mentions here") == "no mentions here"

    def test_collapsed_at_first_position(self):
        assert collapse_mentions("hey @user stop @user now") == "hey @users stop now"

    def test_output_has_at_most_one_mention_token(self):
        for k in range(6):
            text = " ".join(["@user"] * k + ["tail"])
            out = collapse_mentions(text).split()
            assert out.count("@user") + out.count("@users") <= 1


class TestSubstituteRare:
    def test_url_token(self):
        assert substitute_rare("see url for info") == "see http for info"

    def test_substring_not_replaced(self):
        assert substitute_rare("urls are fun") == "urls are fun"

    def test_every_occurrence(self):
        assert substitute_rare("url url") == "http http"


class TestTables:
    def test_emoji_table_file_roundtrip(self, tmp_path):
        path = tmp_path / "emoji.tsv"
        path.write_text("# comment\n\U0001F44D\tthumbs up\n", encoding="utf-8")
        table = EmojiTable.load(path)
        assert table.entries == {"\U0001F44D": "thumbs up"}

    def test_unigram_table_total(self):
        t = UnigramTable({"a": 3, "b": 7})
        assert t.total == 10

    def test_unigram_rejects_uppercase(self):
        with pytest.raises(ValueError):
            UnigramTable({"Bad": 1})

    def test_unigram_file(self, tmp_path):
        path = tmp_path / "uni.tsv"
        path.write_text("# words\nfoo\t5\nbar\t2\n", encoding="utf-8")
        t = UnigramTable.load(path)
        assert t.counts == {"foo": 5, "bar": 2} and t.total == 7
