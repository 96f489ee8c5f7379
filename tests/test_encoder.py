import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offlang.autodiff import MASK_NEG, Tensor, no_grad, rows
from offlang.encoder import EncoderConfig, encode, init_encoder, prefix_lengths
from test_autodiff import grouped_dropout, reference_layer_norm


def placed_dropout(x, rate, rng, where):
    """`dropout` on padded x with the mask `encode` draws: drawn from `rng` at
    the shape of x[where], the entries `encode` holds, and placed there.
    Every other entry is kept unscaled."""
    if rng is None or rate <= 0.0:
        return x
    scale = np.ones(x.shape)
    scale[where] = (rng.random(scale[where].shape) >= rate) / (1.0 - rate)
    return x * Tensor(scale)


def padded_attention(x, params, prefix, config, lengths, rng):
    B, T, D = x.shape
    H = config.n_heads
    dh = D // H

    def heads(name):
        proj = x @ params[f"{prefix}.{name}.w"] + params[f"{prefix}.{name}.b"]
        return proj.reshape(B, T, H, dh).transpose(0, 2, 1, 3)  # (B,H,T,dh)

    q, k, v = heads("q"), heads("k"), heads("v")
    scores = q @ k.transpose(0, 1, 3, 2) * (1.0 / np.sqrt(dh))
    scores = scores + Tensor((np.arange(T) >= lengths[:, None])[:, None, None, :] * MASK_NEG)
    weights = grouped_dropout(scores.softmax(), lengths, config.dropout_rate, rng)
    ctx = (weights @ v).transpose(0, 2, 1, 3).reshape(B, T, D)
    return ctx @ params[f"{prefix}.o.w"] + params[f"{prefix}.o.b"]


def reference_encode(params, config, ids, mask, rng=None):
    """The padded encoder that `encode` replaced: every position of the
    (B, T) batch runs through every layer, PAD keys are masked, and the
    output is (B, T, d). Its real positions are `encode`'s rows. Dropout
    masks come from `rng` in `encode`'s order and at its shapes: (N, d) for
    token layers, placed at their real positions, and one per length group
    of `attention`, in group order (see `grouped_dropout`)."""
    ids = np.asarray(ids, dtype=np.int64)
    real = np.asarray(mask).astype(bool)
    lengths = real.sum(axis=1)
    T = ids.shape[1]
    rate = config.dropout_rate
    x = rows(params["tok_emb"], ids) + params["pos_emb"][:T]
    x = placed_dropout(x, rate, rng, real)
    for layer in range(config.n_layers):
        p = f"layer{layer}"
        attn = padded_attention(x, params, f"{p}.attn", config, lengths, rng)
        x = reference_layer_norm(x + placed_dropout(attn, rate, rng, real),
                                 params[f"{p}.ln1.gamma"], params[f"{p}.ln1.beta"])
        hidden = (x @ params[f"{p}.ffn.in.w"] + params[f"{p}.ffn.in.b"]).gelu()
        ffn = hidden @ params[f"{p}.ffn.out.w"] + params[f"{p}.ffn.out.b"]
        x = reference_layer_norm(x + placed_dropout(ffn, rate, rng, real),
                                 params[f"{p}.ln2.gamma"], params[f"{p}.ln2.beta"])
    return x


def assert_grads_close(grads, ref_grads):
    """Every gradient within 1e-12 of the reference's, relative to the
    reference's largest entry. A parameter the reference leaves without a
    gradient may get zeros."""
    for name, ref in ref_grads.items():
        grad = grads[name]
        if ref is None or grad is None:
            assert ref is None or not ref.any(), name
            assert grad is None or not grad.any(), name
        elif name.endswith("attn.k.b"):
            # softmax ignores a shift shared by all keys, so the key bias
            # gradient is 0 up to rounding: bound both absolutely
            assert max(np.abs(grad).max(), np.abs(ref).max()) <= 1e-14, name
        else:
            assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max(), name


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

    @pytest.mark.parametrize("field", ["d_model", "n_layers", "n_heads", "d_ffn"])
    def test_zero_dimension(self, field):
        # n_heads 0 is checked before d_model % n_heads is computed
        with pytest.raises(ValueError, match="all encoder dimensions must be >= 1"):
            tiny_config(**{field: 0}).validate()

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
        out, lengths = encode(params, cfg, ids, mask)
        assert out.shape == (5, 16)       # one row per real token
        assert lengths.tolist() == [3, 2]

    def test_padding_invariance(self):
        # same 5 real tokens padded to 8 vs 16: identical real-position outputs
        cfg = tiny_config()
        params = init_encoder(cfg, seed=1)
        tokens = [2, 4, 7, 3, 9]
        short, _ = encode(params, cfg, *pad_batch(tokens, 8))
        long, _ = encode(params, cfg, *pad_batch(tokens, 16))
        np.testing.assert_allclose(short.data, long.data, atol=1e-10)

    def test_deterministic_without_dropout(self):
        cfg = tiny_config()
        params = init_encoder(cfg, seed=2)
        ids, mask = pad_batch([2, 3, 4], 8)
        a, _ = encode(params, cfg, ids, mask)
        b, _ = encode(params, cfg, ids, mask)
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
            out, _ = encode(params, cfg, *pad_batch(tokens, cfg.max_len))
            assert np.isfinite(out.data).all()

    def test_ids_wider_than_max_len(self):
        cfg = tiny_config(max_len=8)
        params = init_encoder(cfg, seed=0)
        ids, mask = pad_batch([2, 3], 9)
        with pytest.raises(ValueError, match="9 positions wide.*max_len is 8"):
            encode(params, cfg, ids, mask)

    @pytest.mark.parametrize("row", [
        [1, 0, 1, 0],                   # a real token after PAD
        [0, 1, 1, 0],                   # PAD first
        [1, 2, 0, 0],                   # not 0/1
        [0, 1, 1, 1],                   # PAD first
        [1, 1, 0.5, 0],                 # not 0/1
        [1, 1, 2, 0],                   # not 0/1
        [1, 1, 0, 1],                   # a real token after PAD, last
    ])
    def test_mask_must_be_real_tokens_then_pad(self, row):
        cfg = tiny_config()
        params = init_encoder(cfg, seed=0)
        with pytest.raises(ValueError, match="real tokens followed by 0s for PAD"):
            prefix_lengths(np.array([row]))
        with pytest.raises(ValueError, match="real tokens followed by 0s for PAD"):
            encode(params, cfg, np.array([[2, 3, 4, 0]]), np.array([row]))

    @pytest.mark.parametrize("lengths, row", [([2, 0, 3], 1), ([2, 0], 1), ([0], 0)])
    def test_row_without_real_token(self, lengths, row):
        """A mask row of PAD alone has no CLS row for the heads to read:
        `encode` names it instead of packing zero rows for it."""
        cfg = tiny_config()
        params = init_encoder(cfg, seed=0)
        mask = (np.arange(4) < np.array(lengths)[:, None]).astype(np.int64)
        with pytest.raises(ValueError, match=f"mask row {row} has no real token"):
            encode(params, cfg, np.where(mask, 3, 0), mask)

    def test_prefix_lengths(self):
        ragged = np.arange(4) < np.array([0, 3, 1, 4])[:, None]
        assert prefix_lengths(ragged.astype(np.float64)).tolist() == [0, 3, 1, 4]
        assert prefix_lengths(np.array([[True, False]])).tolist() == [1]

    def test_dropout_training_mode_differs(self):
        cfg = tiny_config(dropout_rate=0.5)
        params = init_encoder(cfg, seed=4)
        ids, mask = pad_batch([2, 3, 4, 5], 8)
        a, _ = encode(params, cfg, ids, mask, rng=np.random.default_rng(0))
        b, _ = encode(params, cfg, ids, mask, rng=np.random.default_rng(99))
        assert not np.array_equal(a.data, b.data)


@st.composite
def ragged_batches(draw):
    """ids and a prefix mask: B 1-6, T 1-10; rows of every length from 1
    (CLS alone) to T, CLS first. `encode` rejects a row of length 0."""
    batch = draw(st.integers(1, 6))
    width = draw(st.integers(1, 10))
    lengths = np.array(draw(st.lists(st.integers(1, width), min_size=batch, max_size=batch)))
    mask = np.arange(width) < lengths[:, None]
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    ids = np.where(mask, rng.integers(3, 11, (batch, width)), 0)
    ids[:, 0] = 2
    return ids, mask.astype(np.int64), draw(st.integers(0, 2**32))


class TestPackedMatchesPadded:
    @settings(max_examples=40, deadline=None)
    @given(ragged_batches(), st.sampled_from([0.0, 0.3]))
    def test_real_positions_and_gradients(self, case, rate):
        """Same parameters and the same dropout stream: the packed output
        matches the padded encoder's real positions, and every parameter
        gradient matches; only summation order differs."""
        ids, mask, seed = case
        cfg = tiny_config(max_len=10, dropout_rate=rate)
        real = mask.astype(bool)
        weights = np.random.default_rng(seed).normal(size=ids.shape + (cfg.d_model,))
        weights *= mask[:, :, None]
        results = []
        packed = (lambda *args: encode(*args)[0], weights[real])
        for fn, w in (packed, (reference_encode, weights)):
            params = init_encoder(cfg, seed=7)
            rng = np.random.default_rng(seed) if rate else None
            out = fn(params, cfg, ids, mask, rng)
            (out * Tensor(w)).sum().backward()
            results.append((out.data, rng.random() if rng else None,
                            {n: t.grad for n, t in params.items()}))
        (out, after, grads), (ref, ref_after, ref_grads) = results
        assert out.shape == (real.sum(), cfg.d_model)
        assert np.abs(out - ref[real]).max(initial=0.0) <= 1e-13
        assert after == ref_after                     # the stream advanced alike
        assert_grads_close(grads, ref_grads)


class TestRelease:
    """`encode` releases the values that no backward reads, and only those."""

    @staticmethod
    def gradients(rate, seeded):
        cfg = tiny_config(dropout_rate=rate)
        params = init_encoder(cfg, seed=3)
        lengths = np.array([7, 3, 5, 1])
        mask = np.arange(8) < lengths[:, None]
        ids = np.where(mask, np.arange(32).reshape(4, 8) % 8 + 3, 0)
        rng = np.random.default_rng(5) if seeded else None
        out, _ = encode(params, cfg, ids, mask, rng)
        weights = np.random.default_rng(6).normal(size=out.shape)
        (out * Tensor(weights)).sum().backward()
        return {name: t.grad for name, t in params.items()}

    @pytest.mark.parametrize("rate, seeded", [(0.0, True), (0.3, False), (0.0, False),
                                              (0.3, True)])
    def test_gradients_match_a_run_that_releases_nothing(self, rate, seeded, monkeypatch):
        """With dropout off (rate 0 or no rng) `dropout` returns the
        embedding sum itself, which the Q/K/V projections read in backward,
        so it must not be released; every gradient is bit-identical to a run
        that releases nothing."""
        grads = self.gradients(rate, seeded)
        monkeypatch.setattr(Tensor, "release", lambda self: None)
        for name, ref in self.gradients(rate, seeded).items():
            assert np.array_equal(grads[name], ref), name

    def test_nothing_is_released_without_a_graph(self, monkeypatch):
        released, original = [], Tensor.release

        def release(self):
            released.append(self)
            original(self)

        monkeypatch.setattr(Tensor, "release", release)
        cfg = tiny_config()
        ids, mask = pad_batch([2, 3, 4, 5], 8)
        with no_grad():
            encode(init_encoder(cfg, seed=4), cfg, ids, mask)
        # the two embedding rows, then the projection, its dropout output
        # and the sum of each of the four sub-blocks
        assert len(released) == 2 + 3 * 2 * cfg.n_layers
        assert all(t.data.shape == (4, cfg.d_model) for t in released)
