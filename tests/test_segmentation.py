"""Hashtag segmentation against the exhaustive-enumeration oracle and a
reference dynamic program that builds a word tuple for every candidate."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offlang.textnorm import (
    _TIE_EPS, UnigramTable, _dp_segment, bundled_unigram_table, segment_hashtag,
)

VOCAB_20 = {
    "this": 3228469771, "is": 4705743816, "a": 9081174698, "test": 187971480,
    "keith": 19184385, "ellison": 3878349, "abuse": 69641980, "maga": 1500000,
    "the": 23135851162, "cat": 9000000, "at": 1620850295, "on": 3750423199,
    "in": 8469404971, "sat": 2500000, "hat": 2200000, "an": 1011346347,
    "it": 2813163874, "his": 402346494, "to": 12136980858, "he": 495914991,
}


def _better(cand, best):
    """Compare (score, n_words, words) segmentation candidates."""
    if best is None:
        return True
    if cand[0] > best[0] + _TIE_EPS:
        return True
    if cand[0] < best[0] - _TIE_EPS:
        return False
    return (cand[1], cand[2]) < (best[1], best[2])


def reference_dp_segment(text: str, unigrams: UnigramTable) -> tuple[str, ...]:
    """The dynamic program that keeps every prefix's whole word tuple, one
    copy per (start, end) candidate."""
    n = len(text)
    # best[i]: (score, n_words, words) over text[:i]
    best: list = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    for end in range(1, n + 1):
        for start in range(end):
            prev = best[start]
            word = text[start:end]
            cand = (prev[0] + unigrams.log_prob(word), prev[1] + 1, prev[2] + (word,))
            if _better(cand, best[end]):
                best[end] = cand
    return best[n][2]


def brute_force_segment(text: str, unigrams: UnigramTable) -> tuple[str, ...]:
    """Enumerate all 2^(n-1) segmentations; oracle for the DP."""
    n = len(text)
    if n == 0:
        return ()
    best = None
    for bits in range(1 << (n - 1)):
        words = []
        start = 0
        for i in range(1, n):
            if bits & (1 << (i - 1)):
                words.append(text[start:i])
                start = i
        words.append(text[start:])
        score = sum(unigrams.log_prob(w) for w in words)
        cand = (score, len(words), tuple(words))
        if _better(cand, best):
            best = cand
    return best[2]


@pytest.fixture(scope="module")
def unigrams():
    return UnigramTable(VOCAB_20)


class TestCamelCase:
    def test_paper_example(self, unigrams):
        assert segment_hashtag("KeithEllisonAbuse", unigrams) == "keith ellison abuse"

    def test_two_runs(self, unigrams):
        assert segment_hashtag("ThisIs", unigrams) == "this is"

    def test_leading_lowercase_run(self, unigrams):
        assert segment_hashtag("theCatSat", unigrams) == "the cat sat"

    def test_all_caps_goes_to_dp(self, unigrams):
        # capital splitting would shatter MAGA into letters
        assert segment_hashtag("MAGA", unigrams) == "maga"

    def test_single_capitalized_word_goes_to_dp(self, unigrams):
        assert segment_hashtag("Maga", unigrams) == "maga"

    def test_empty(self, unigrams):
        assert segment_hashtag("", unigrams) == ""


class TestDpOracle:
    def test_known_phrase(self, unigrams):
        assert segment_hashtag("thisisatest", unigrams) == "this is a test"

    def test_single_known_word(self, unigrams):
        assert segment_hashtag("maga", unigrams) == "maga"

    def test_matches_brute_force_on_vocab_concatenations(self, unigrams):
        words = list(VOCAB_20)
        cases = set(words)
        for pair in itertools.product(words, repeat=2):
            s = "".join(pair)
            if len(s) <= 12:
                cases.add(s)
        rng = np.random.default_rng(7)
        for triple in itertools.product(words, repeat=3):
            s = "".join(triple)
            if len(s) <= 12 and rng.random() < 0.05:
                cases.add(s)
        assert len(cases) > 300
        for s in sorted(cases):
            dp = segment_hashtag(s, unigrams)
            brute = " ".join(brute_force_segment(s, unigrams))
            assert dp == brute, s

    def test_matches_brute_force_on_random_letter_strings(self, unigrams):
        rng = np.random.default_rng(11)
        letters = "abcdefghijklmnopqrstuvwxyz"
        for _ in range(150):
            n = int(rng.integers(1, 13))
            s = "".join(letters[i] for i in rng.integers(0, 26, n))
            dp = segment_hashtag(s, unigrams)
            brute = " ".join(brute_force_segment(s, unigrams))
            assert dp == brute, s

    def test_deterministic(self, unigrams):
        assert segment_hashtag("thecatinthehat", unigrams) == \
            segment_hashtag("thecatinthehat", unigrams)


BUNDLED = bundled_unigram_table()
# known words of the bundled table, and letters outside them, so that runs
# of unknown letters give splits of equal score
SEGMENT_TEXT = st.lists(
    st.one_of(st.sampled_from(sorted(BUNDLED.counts)[:400]), st.sampled_from("qxzjk"),
              st.text(alphabet="abqxz", min_size=1, max_size=4)),
    max_size=8,
).map("".join)


class TestBackPointerDp:
    """`_dp_segment` keeps one best word tuple per prefix and looks up no
    candidate longer than the table's longest word; the reference builds a
    word tuple for every candidate and looks up each. Their output must be
    identical. The class is named for the back pointers `_dp_segment` kept
    before; the name stays so that the test ids do."""

    @settings(max_examples=300, deadline=None)
    @given(SEGMENT_TEXT)
    def test_matches_reference_on_bundled_table(self, text):
        assert _dp_segment(text, BUNDLED) == reference_dp_segment(text, BUNDLED)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="thecatisa", max_size=14))
    def test_matches_reference_on_small_table(self, text):
        table = UnigramTable(VOCAB_20)
        assert _dp_segment(text, table) == reference_dp_segment(text, table)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab", min_size=1, max_size=14))
    def test_equal_scores_break_ties_as_the_reference(self, text):
        # equally frequent words over two letters: most strings have several
        # best splits of equal score and word count, such as "ab a" and
        # "a ba", one known and one unknown word each
        table = UnigramTable({"ab": 10, "ba": 10, "aa": 10})
        assert _dp_segment(text, table) == reference_dp_segment(text, table)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="qxz", min_size=1, max_size=14))
    def test_splits_of_different_word_counts_tie(self, text):
        # a table of total count 1 scores an unknown word -len(word) and the
        # known "x" 0, so every split of a string scores the same and the
        # word count decides
        table = UnigramTable({"x": 1})
        assert _dp_segment(text, table) == reference_dp_segment(text, table)

    def test_equal_score_split_takes_the_smaller_word_sequence(self):
        table = UnigramTable({"ab": 10, "ba": 10, "aa": 10})
        assert _dp_segment("aba", table) == ("a", "ba")

    def test_candidates_longer_than_any_word_are_unknown(self):
        assert BUNDLED.longest == max(map(len, BUNDLED.counts))
        text = "supercalifragilistic" + "thecat" * 4
        assert _dp_segment(text, BUNDLED) == reference_dp_segment(text, BUNDLED)
