import numpy as np
import pytest

from offlang.encoder import EncoderConfig, encode, init_encoder


def tiny_config(**overrides):
    base = dict(d_model=16, n_layers=2, n_heads=2, d_ffn=32, max_len=16,
                vocab_size=11, dropout_rate=0.0)
    base.update(overrides)
    return EncoderConfig(**base)


def pad_batch(tokens, max_len):
    ids = np.zeros((1, max_len), dtype=np.int64)
    mask = np.zeros((1, max_len), dtype=np.int64)
    ids[0, :len(tokens)] = tokens
    mask[0, :len(tokens)] = 1
    return ids, mask


class TestInit:
    def test_deterministic(self):
        cfg = tiny_config()
        a = init_encoder(cfg, seed=5)
        b = init_encoder(cfg, seed=5)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data)

    def test_seed_changes_parameters(self):
        cfg = tiny_config()
        a = init_encoder(cfg, seed=5)
        b = init_encoder(cfg, seed=6)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a)

    def test_invalid_head_split(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_model=6, n_heads=4, vocab_size=10).validate()

    def test_invalid_max_len(self):
        with pytest.raises(ValueError):
            tiny_config(max_len=1).validate()


class TestForward:
    def test_output_shape(self):
        cfg = tiny_config()
        params = init_encoder(cfg, seed=0)
        ids = np.array([[2, 3, 4, 0, 0, 0, 0, 0], [2, 5, 0, 0, 0, 0, 0, 0]])
        mask = (ids != 0).astype(np.int64)
        mask[:, 0] = 1
        out = encode(params, cfg, ids, mask)
        assert out.shape == (2, 8, 16)

    def test_padding_invariance(self):
        # same 5 real tokens padded to 8 vs 16: identical real-position outputs
        cfg = tiny_config()
        params = init_encoder(cfg, seed=1)
        tokens = [2, 4, 7, 3, 9]
        short = encode(params, cfg, *pad_batch(tokens, 8))
        long = encode(params, cfg, *pad_batch(tokens, 16))
        np.testing.assert_allclose(
            short.data[0, :5], long.data[0, :5], atol=1e-10
        )

    def test_deterministic_without_dropout(self):
        cfg = tiny_config()
        params = init_encoder(cfg, seed=2)
        ids, mask = pad_batch([2, 3, 4], 8)
        a = encode(params, cfg, ids, mask)
        b = encode(params, cfg, ids, mask)
        assert np.array_equal(a.data, b.data)

    def test_id_out_of_range(self):
        cfg = tiny_config()
        params = init_encoder(cfg, seed=0)
        ids, mask = pad_batch([2, 11], 8)
        with pytest.raises(ValueError):
            encode(params, cfg, ids, mask)

    def test_negative_id(self):
        cfg = tiny_config()
        params = init_encoder(cfg, seed=0)
        ids, mask = pad_batch([2, 3], 8)
        ids[0, 1] = -1
        with pytest.raises(ValueError, match="out of vocabulary range"):
            encode(params, cfg, ids, mask)
        ids[0, 1] = cfg.vocab_size - 1
        encode(params, cfg, ids, mask)

    def test_finite_outputs_over_random_inputs(self):
        cfg = tiny_config()
        params = init_encoder(cfg, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, cfg.max_len + 1))
            tokens = rng.integers(0, cfg.vocab_size, n)
            tokens[0] = 2
            out = encode(params, cfg, *pad_batch(tokens, cfg.max_len))
            assert np.isfinite(out.data).all()

    def test_dropout_training_mode_differs(self):
        cfg = tiny_config(dropout_rate=0.5)
        params = init_encoder(cfg, seed=4)
        ids, mask = pad_batch([2, 3, 4, 5], 8)
        a = encode(params, cfg, ids, mask, rng=np.random.default_rng(0))
        b = encode(params, cfg, ids, mask, rng=np.random.default_rng(99))
        assert not np.array_equal(a.data, b.data)
