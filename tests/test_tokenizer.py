import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offlang.tokenizer import (
    CLS,
    PAD,
    RESERVED,
    UNK,
    Vocabulary,
    build_vocab,
    decode,
    encode,
)


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
        seq = encode("<pad> a <cls> b <unk>", vocab, 8)
        assert seq.ids.tolist() == [CLS, UNK, 3, UNK, 4, UNK, PAD, PAD]
        assert seq.attention_mask.tolist() == [1, 1, 1, 1, 1, 1, 0, 0]
        assert decode(seq, vocab) == "<unk> a <unk> b <unk>"

    def test_line_roundtrip(self):
        vocab = build_vocab(["a a b c"])
        assert Vocabulary.from_lines(vocab.to_lines()).token_to_id == vocab.token_to_id


class TestEncode:
    def test_truncation_to_max_len(self):
        vocab = build_vocab(["w"])
        text = " ".join(["w"] * 100)
        seq = encode(text, vocab, max_len=64)
        assert len(seq.ids) == 64
        assert seq.attention_mask.sum() == 64

    def test_empty_text(self):
        vocab = build_vocab(["w"])
        seq = encode("", vocab, max_len=8)
        assert seq.ids[0] == CLS
        assert seq.attention_mask.sum() == 1
        assert all(i == PAD for i in seq.ids[1:])

    def test_unk_substitution(self):
        vocab = build_vocab(["a"])
        seq = encode("a zzz", vocab, max_len=8)
        assert seq.ids[1] == vocab.token_to_id["a"]
        assert seq.ids[2] == UNK

    def test_mask_marks_real_tokens(self):
        vocab = build_vocab(["a b c"])
        seq = encode("a b", vocab, max_len=6)
        assert list(seq.attention_mask) == [1, 1, 1, 0, 0, 0]
        assert all((m == 0) == (i == PAD) for i, m in zip(seq.ids, seq.attention_mask))

    def test_length_invariant(self):
        vocab = build_vocab(["a b c d e"])
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(0, 30))
            text = " ".join(rng.choice(["a", "b", "q"], n))
            assert len(encode(text, vocab, max_len=10).ids) == 10

    def test_decode_roundtrip_up_to_truncation(self):
        vocab = build_vocab(["the cat sat on the mat"])
        text = "the cat sat on the mat"
        assert decode(encode(text, vocab, max_len=64), vocab) == text
        truncated = decode(encode(text, vocab, max_len=4), vocab)
        assert truncated == "the cat sat"

    def test_max_len_minimum(self):
        vocab = build_vocab(["a"])
        with pytest.raises(ValueError):
            encode("a", vocab, max_len=1)


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
        seq = encode(text, vocab, max_len)
        assert len(seq.ids) == max_len
        assert decode(seq, vocab) == " ".join(tokens[:max_len - 1])
