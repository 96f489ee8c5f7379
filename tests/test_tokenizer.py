import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from offlang.tokenizer import (
    CLS,
    PAD,
    RESERVED,
    UNK,
    Vocabulary,
    build_vocab,
    encode_batch,
)


def reference_encode(text, vocab, max_len):
    """One text's (ids, mask), each (max_len,) int64, built token by token:
    the per-text encoding that `encode_batch` replaced, kept as its
    reference."""
    ids = [CLS]
    for tok in text.split():
        i = vocab.token_to_id.get(tok, UNK)
        ids.append(i if i >= len(RESERVED) else UNK)
    ids = ids[:max_len]
    mask = [1] * len(ids) + [0] * (max_len - len(ids))
    ids = ids + [PAD] * (max_len - len(ids))
    return np.array(ids, dtype=np.int64), np.array(mask, dtype=np.int64)


def encode_one(text, vocab, max_len):
    """One row of `encode_batch`."""
    ids, mask = encode_batch([text], vocab, max_len)
    return ids[0], mask[0]


def decode(ids, mask, vocab):
    """Inverse of encoding one row of in-vocabulary text, minus the CLS marker."""
    names = vocab.id_to_token
    return " ".join(names[i] for i, m in zip(ids, mask) if m and i not in (PAD, CLS))


class TestBuildVocab:
    def test_counting(self):
        vocab = build_vocab(["a a b"], min_freq=1)
        assert len(vocab) == 5
        assert set(vocab.token_to_id) == {"<pad>", "<unk>", "<cls>", "a", "b"}

    def test_min_freq(self):
        vocab = build_vocab(["a a b"], min_freq=2)
        assert len(vocab) == 4 and "b" not in vocab.token_to_id

    def test_max_size(self):
        vocab = build_vocab(["a a b"], min_freq=1, max_size=4)
        assert len(vocab) == 4 and "a" in vocab.token_to_id

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            build_vocab([""])

    def test_reserved_ids(self):
        vocab = build_vocab(["x"])
        assert vocab.token_to_id["<pad>"] == PAD
        assert vocab.token_to_id["<unk>"] == UNK
        assert vocab.token_to_id["<cls>"] == CLS

    def test_reserved_names_in_text_keep_reserved_ids(self):
        vocab = build_vocab(["<pad> a <unk> a", "<cls> b <pad>"])
        assert vocab.token_to_id == {"<pad>": PAD, "<unk>": UNK, "<cls>": CLS,
                                     "a": 3, "b": 4}
        assert len(build_vocab(["<pad> a b"], max_size=4)) == 4

    def test_reserved_names_in_text_encode_as_unk(self):
        """PAD and CLS ids mark only padding and the sequence start: a text
        token spelled like a reserved name is UNK at a real position."""
        vocab = build_vocab(["<pad> a <cls> b"])
        ids, mask = encode_one("<pad> a <cls> b <unk>", vocab, 8)
        assert ids.tolist() == [CLS, UNK, 3, UNK, 4, UNK, PAD, PAD]
        assert mask.tolist() == [1, 1, 1, 1, 1, 1, 0, 0]
        assert decode(ids, mask, vocab) == "<unk> a <unk> b <unk>"

    def test_line_roundtrip(self):
        vocab = build_vocab(["a a b c"])
        assert Vocabulary.from_lines(vocab.to_lines()).token_to_id == vocab.token_to_id


class TestEncode:
    def test_truncation_to_max_len(self):
        vocab = build_vocab(["w"])
        text = " ".join(["w"] * 100)
        ids, mask = encode_one(text, vocab, max_len=64)
        assert len(ids) == 64
        assert mask.sum() == 64

    def test_empty_text(self):
        vocab = build_vocab(["w"])
        ids, mask = encode_one("", vocab, max_len=8)
        assert ids[0] == CLS
        assert mask.sum() == 1
        assert all(i == PAD for i in ids[1:])

    def test_unk_substitution(self):
        vocab = build_vocab(["a"])
        ids, _ = encode_one("a zzz", vocab, max_len=8)
        assert ids[1] == vocab.token_to_id["a"]
        assert ids[2] == UNK

    def test_mask_marks_real_tokens(self):
        vocab = build_vocab(["a b c"])
        ids, mask = encode_one("a b", vocab, max_len=6)
        assert list(mask) == [1, 1, 1, 0, 0, 0]
        assert all((m == 0) == (i == PAD) for i, m in zip(ids, mask))

    def test_length_invariant(self):
        vocab = build_vocab(["a b c d e"])
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(0, 30))
            text = " ".join(rng.choice(["a", "b", "q"], n))
            assert len(encode_one(text, vocab, max_len=10)[0]) == 10

    def test_decode_roundtrip_up_to_truncation(self):
        vocab = build_vocab(["the cat sat on the mat"])
        text = "the cat sat on the mat"
        assert decode(*encode_one(text, vocab, max_len=64), vocab) == text
        truncated = decode(*encode_one(text, vocab, max_len=4), vocab)
        assert truncated == "the cat sat"

    def test_max_len_minimum(self):
        vocab = build_vocab(["a"])
        with pytest.raises(ValueError):
            encode_batch(["a"], vocab, max_len=1)


WORDS = st.text("abcxyz<>", min_size=1, max_size=5).filter(lambda w: w not in RESERVED)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(WORDS, min_size=1, max_size=8), st.data())
    def test_decode_inverts_encode_on_in_vocabulary_text(self, words, data):
        """The first max_len - 1 tokens come back, whatever the spacing."""
        vocab = build_vocab([" ".join(words)] + list(RESERVED))
        tokens = data.draw(st.lists(st.sampled_from(words), max_size=12))
        gaps = data.draw(st.lists(st.sampled_from([" ", "  ", "\t", "\n"]),
                                  min_size=len(tokens), max_size=len(tokens)))
        text = "".join(gap + tok for gap, tok in zip(gaps, tokens))
        max_len = data.draw(st.integers(2, 16))
        ids, mask = encode_one(text, vocab, max_len)
        assert len(ids) == max_len
        assert decode(ids, mask, vocab) == " ".join(tokens[:max_len - 1])


# reserved names, their upper-case look-alikes, vocabulary words and
# out-of-vocabulary words, joined by nothing, spaces, tabs and newlines
TOKENS = st.sampled_from(list(RESERVED) + ["<PAD>", "a", "b", "cc", "zzz", "x<y"])
GAPS = st.sampled_from(["", " ", "  ", "\t", "\n", " \t\n "])


@st.composite
def spaced_texts(draw):
    tokens = draw(st.lists(TOKENS, max_size=80))
    gaps = draw(st.lists(GAPS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(gap + tok for gap, tok in zip(gaps, tokens)) + gaps[-1]


TEXTS = st.one_of(spaced_texts(), st.text(max_size=30))


class TestEncodeBatch:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(TEXTS, max_size=10), st.lists(TEXTS, max_size=4), st.integers(2, 70))
    @example(["<pad>", "<unk> <cls>", "", " ", "\t\n", "a\tb\nc  <pad>"], [], 2)
    @example(["", "   ", "\n"], ["<cls> a"], 70)
    def test_matches_per_text_reference(self, texts, corpus, max_len):
        """Ids, mask, dtype and shape equal the per-text reference's rows,
        stacked."""
        vocab = build_vocab(["a b cc"] + corpus)
        ids, mask = encode_batch(texts, vocab, max_len)
        rows = [reference_encode(text, vocab, max_len) for text in texts]
        want_ids = np.array([r[0] for r in rows], dtype=np.int64).reshape(-1, max_len)
        want_mask = np.array([r[1] for r in rows], dtype=np.int64).reshape(-1, max_len)
        assert ids.dtype == mask.dtype == np.int64
        assert ids.shape == mask.shape == (len(texts), max_len)
        assert np.array_equal(ids, want_ids) and np.array_equal(mask, want_mask)

    @pytest.mark.parametrize("max_len", [2, 64])
    def test_empty_batch(self, max_len):
        ids, mask = encode_batch([], build_vocab(["a"]), max_len)
        assert ids.shape == mask.shape == (0, max_len)
        assert ids.dtype == mask.dtype == np.int64
