"""Hashtag segmentation against the exhaustive-enumeration oracle."""

import itertools

import numpy as np
import pytest

from offlang.textnorm import UnigramTable, _better, segment_hashtag

VOCAB_20 = {
    "this": 3228469771, "is": 4705743816, "a": 9081174698, "test": 187971480,
    "keith": 19184385, "ellison": 3878349, "abuse": 69641980, "maga": 1500000,
    "the": 23135851162, "cat": 9000000, "at": 1620850295, "on": 3750423199,
    "in": 8469404971, "sat": 2500000, "hat": 2200000, "an": 1011346347,
    "it": 2813163874, "his": 402346494, "to": 12136980858, "he": 495914991,
}


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
