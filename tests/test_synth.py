import hashlib

import pytest

from offlang.synth import make_hierarchical_corpus, make_scored_corpus


def corpus_digest(examples) -> str:
    """The first 16 hex digits of a SHA-256 over each example's id, text and
    labels or scores, one tab-separated line per example."""
    digest = hashlib.sha256()
    for ex in examples:
        if hasattr(ex, "labels"):
            row = (ex.tweet.id, ex.tweet.text, *ex.labels.as_tuple(), str(ex.synthetic))
        else:
            row = (ex.tweet.id, ex.tweet.text, repr(ex.avg_conf), repr(ex.std_conf))
        digest.update(("\t".join(row) + "\n").encode())
    return digest.hexdigest()[:16]


# recorded when every indicator and filler word was drawn by its own
# `integers` call
@pytest.mark.parametrize("n, seed, noise_a, n_words, expected", [
    (40, 0, 0.0, 6, "556818a4d2638694"),
    (40, 3, 0.3, 2, "7210ce88f0730d39"),
    (20, 11, 0.1, 63, "40747c921d0747bd"),
    (40, 5, 0.5, 17, "c890864296c62df6"),
])
def test_hierarchical_corpus_bytes_are_pinned(n, seed, noise_a, n_words, expected):
    corpus = make_hierarchical_corpus(n, seed, noise_a=noise_a, n_words=n_words)
    assert corpus_digest(corpus) == expected


@pytest.mark.parametrize("n, seed, n_words, expected", [
    (40, 0, 6, "ca607b8930cb22fb"),
    (40, 3, 2, "32aafeeb50715801"),
    (20, 11, 63, "cad4904781480f1b"),
])
def test_scored_corpus_bytes_are_pinned(n, seed, n_words, expected):
    assert corpus_digest(make_scored_corpus(n, seed, n_words=n_words)) == expected
