import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offlang.autodiff import Tensor, no_grad
from offlang.checkpoint import load_checkpoint, save_checkpoint
from offlang.corpus import NormContext
from offlang.encoder import EncoderConfig, encoder_layout
from offlang.evaluation import evaluate
from offlang.mtl import (
    CHUNK_ROWS,
    TASK_CLASSES,
    TASKS,
    HeadConfig,
    LossWeights,
    MtlModel,
    PredictionTriple,
    batch_targets,
    mtl_loss,
    parameter_layout,
    predict,
)
from offlang.synth import make_hierarchical_corpus
from offlang.textnorm import RawTweet, bundled_emoji_table, bundled_unigram_table
from offlang.tokenizer import build_vocab, encode_batch
from offlang.training import TrainConfig, train

from test_autodiff import reference_lstm
from test_encoder import assert_grads_close, reference_encode
from test_training import param_arrays, param_digest, ragged_corpus


def weighted_total(l_a: float, l_b: float, l_c: float, weights: LossWeights) -> float:
    """The overall loss as plain arithmetic on already-computed task losses."""
    w = weights.as_tuple()
    return w[0] * l_a + w[1] * l_b + w[2] * l_c

def tiny_model(vocab_size, seed=0, max_len=12):
    cfg = EncoderConfig(d_model=16, n_layers=1, n_heads=2, d_ffn=32,
                        max_len=max_len, vocab_size=vocab_size, dropout_rate=0.0)
    return MtlModel(cfg, HeadConfig(hidden=16), seed=seed)


@pytest.fixture(scope="module")
def batch():
    examples = make_hierarchical_corpus(6, seed=0)
    vocab = build_vocab([e.tweet.text for e in examples])
    model = tiny_model(len(vocab))
    ids, mask = encode_batch([e.tweet.text for e in examples], vocab, 12)
    return model, vocab, examples, ids, mask


class TestForward:
    def test_distributions_per_task(self, batch):
        model, _, _, ids, mask = batch
        preds = model.forward_mtl(ids, mask)
        for p in preds:
            assert p.probs_a.shape == (2,)
            assert p.probs_b.shape == (3,)
            assert p.probs_c.shape == (4,)
            for probs in (p.probs_a, p.probs_b, p.probs_c):
                assert (probs >= 0).all()
                assert abs(probs.sum() - 1.0) < 1e-6

    def test_cls_only_input(self, batch):
        model, vocab, _, _, _ = batch
        ids, mask = encode_batch([""], vocab, 12)
        (p,) = model.forward_mtl(ids, mask)
        assert abs(p.probs_a.sum() - 1.0) < 1e-6

    def test_identical_inputs_identical_rows(self, batch):
        model, _, _, ids, mask = batch
        dup_ids = np.stack([ids[0], ids[0]])
        dup_mask = np.stack([mask[0], mask[0]])
        a, b = model.forward_mtl(dup_ids, dup_mask)
        assert np.array_equal(a.probs_a, b.probs_a)
        assert np.array_equal(a.probs_c, b.probs_c)

    def test_forward_builds_no_graph_and_matches_graph_forward(self, batch):
        model, _, _, ids, mask = batch
        preds = model.forward_mtl(ids, mask)
        logits = model.logits_mtl(ids, mask)      # builds the backward graph
        assert logits["a"]._backward is not None
        for task in ("a", "b", "c"):
            probs = logits[task].softmax().data
            assert np.array_equal(np.stack([p.probs(task) for p in preds]), probs)
        with no_grad():
            assert model.logits_mtl(ids, mask)["a"]._backward is None

    def test_rate_zero_draws_nothing(self, batch):
        """At dropout_rate 0 a generator changes nothing: the logits equal
        the generator-free ones bit for bit, and no number is drawn."""
        model, _, _, ids, mask = batch
        assert model.encoder_config.dropout_rate == 0.0
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with_rng = model.logits_mtl(ids, mask, rng)
        without = model.logits_mtl(ids, mask, None)
        for task in TASKS:
            assert with_rng[task].data.tobytes() == without[task].data.tobytes()
        assert rng.bit_generator.state == state

    def test_empty_batch(self, batch):
        model = batch[0]
        with pytest.raises(ValueError, match="empty batch"):
            model.forward_mtl(np.zeros((0, 12), dtype=int), np.zeros((0, 12), dtype=int))

    def test_argmax_invariant_to_logit_shift(self, batch):
        model, _, _, ids, mask = batch
        before = model.forward_mtl(ids, mask).label("b")
        model.params["head_b.out.b"].data += 7.5
        after = model.forward_mtl(ids, mask).label("b")
        assert before == after


class TestChunkedInference:
    """`forward_mtl` runs its rows `CHUNK_ROWS` at a time."""

    @pytest.fixture(scope="class")
    def ragged(self):
        examples = ragged_corpus(100, seed=3)
        vocab = build_vocab([e.tweet.text for e in examples])
        ids, mask = encode_batch([e.tweet.text for e in examples], vocab, 24)
        return tiny_model(len(vocab), seed=1, max_len=24), ids, mask

    @staticmethod
    def whole_batch(model, ids, mask):
        with no_grad():
            logits = model.logits_mtl(ids, mask)
            return {task: logits[task].softmax().data for task in TASKS}

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 100])
    def test_matches_one_whole_batch_call(self, ragged, n):
        """The same labels as one `logits_mtl` call over all n rows, and
        probabilities within 1e-15 absolute: only the matrix products'
        summation order can differ with the number of rows."""
        model, ids, mask = ragged
        chunked = model.forward_mtl(ids[:n], mask[:n])
        whole = self.whole_batch(model, ids[:n], mask[:n])
        for task in TASKS:
            assert chunked.probs(task).shape == whole[task].shape
            assert np.array_equal(chunked.probs(task).argmax(axis=1), whole[task].argmax(axis=1))
            assert np.abs(chunked.probs(task) - whole[task]).max() <= 1e-15
            if n <= CHUNK_ROWS:           # one chunk is the single call
                assert chunked.probs(task).tobytes() == whole[task].tobytes()

    @pytest.mark.parametrize("n, calls", [(1, [1]), (32, [32]), (33, [32, 1]),
                                          (100, [32, 32, 32, 4])])
    def test_chunks_run_in_row_order(self, ragged, monkeypatch, n, calls):
        model, ids, mask = ragged
        seen = []
        logits_mtl = model.logits_mtl
        monkeypatch.setattr(model, "logits_mtl",
                            lambda i, m: seen.append(i.copy()) or logits_mtl(i, m))
        model.forward_mtl(ids[:n], mask[:n])
        assert [len(i) for i in seen] == calls
        assert np.array_equal(np.concatenate(seen), ids[:n])

    @pytest.mark.parametrize("n_ids, n_mask", [(40, 50), (64, 70)])
    def test_mask_with_more_rows_than_ids(self, ragged, n_ids, n_mask):
        """The mask rows past the last row of ids never reach a chunk, so
        the whole batch is checked before the first one runs."""
        model, ids, mask = ragged
        with pytest.raises(ValueError, match="mask must have the shape of ids"):
            model.forward_mtl(ids[:n_ids], mask[:n_mask])

    def test_evaluate_memory_is_constant_in_the_corpus(self, traced_peak):
        """The traced peak of `evaluate` over 16 chunks of rows stays within
        1.5x its peak over 2 chunks (a single whole-batch forward grows
        about 7x)."""
        examples = make_hierarchical_corpus(2 * CHUNK_ROWS, seed=0)
        vocab = build_vocab([e.tweet.text for e in examples])
        model = tiny_model(len(vocab))
        peaks = []
        for corpus in (examples, examples * 8):
            evaluate(model, vocab, corpus)              # warms caches outside the trace
            peaks.append(traced_peak(lambda: evaluate(model, vocab, corpus))[1])
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestPredictionTriple:
    def test_rows_are_views_of_the_batch(self):
        """On a ragged batch, row i's probabilities are row i of the batch's
        (N, C) arrays, not copies, and the batch's one-argmax labels are the
        rows' labels."""
        examples = make_hierarchical_corpus(7, seed=6)
        vocab = build_vocab([e.tweet.text for e in examples])
        texts = [e.tweet.text for e in examples] + ["", " ".join(["word"] * 20)]
        ids, mask = encode_batch(texts, vocab, 12)
        assert mask.sum(axis=1).min() == 1 and mask.sum(axis=1).max() == 12
        batch = tiny_model(len(vocab), seed=4).forward_mtl(ids, mask)
        assert len(batch) == len(texts)
        for task in TASKS:
            probs = batch.probs(task)
            assert probs.shape == (len(texts), len(TASK_CLASSES[task]))
            for i in range(len(batch)):
                assert batch[i].probs(task).shape == probs[i].shape
                assert np.shares_memory(batch[i].probs(task), probs)
                assert np.array_equal(batch[i].probs(task), probs[i])
            assert batch.label(task) == [batch[i].label(task) for i in range(len(batch))]
            assert batch.label(task) == [row.label(task) for row in batch]

    def test_batch_label_is_one_label_per_row(self):
        # a flattened argmax over this batch would pick index 3, no class of task A
        batch = PredictionTriple(np.array([[0.1, 0.9], [0.2, 0.8]]),
                                 np.full((2, 3), 1 / 3), np.full((2, 4), 0.25))
        assert batch.label("a") == ["NOT", "NOT"]
        assert batch.label("b") == ["TIN", "TIN"]
        assert batch[1].label("a") == "NOT"

    def test_bad_lookups(self):
        batch = PredictionTriple(np.full((2, 2), 0.5), np.full((2, 3), 1 / 3),
                                 np.full((2, 4), 0.25))
        with pytest.raises(KeyError):
            batch.probs("d")
        with pytest.raises(IndexError):
            batch[2]
        assert np.array_equal(batch[-1].probs_c, batch.probs_c[1])
        with pytest.raises(TypeError):
            len(batch[0])
        with pytest.raises(TypeError):
            batch[0][0]


def reference_logits(model, ids, mask, rng):
    """`logits_mtl` on the padded encoder and the per-step reference LSTM."""
    p = model.params
    emb = reference_encode(p, model.encoder_config, ids, mask, rng)
    return {
        task: reference_lstm(emb, mask, *(p[f"head_{task}.lstm.{k}"]
                                           for k in ("x.w", "x.b", "h.w", "h.b")))
        @ p[f"head_{task}.out.w"] + p[f"head_{task}.out.b"]
        for task in TASKS
    }


class TestPackedMatchesPadded:
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_logits_and_gradients(self, rate):
        """Ragged batch with a CLS-only and a full-length row: packed logits
        and every parameter gradient match the padded reference within
        1e-12 relative, with dropout drawn from the same stream."""
        examples = make_hierarchical_corpus(9, seed=5)
        vocab = build_vocab([e.tweet.text for e in examples])
        texts = [e.tweet.text for e in examples] + ["", " ".join(["word"] * 20)]
        ids, mask = encode_batch(texts, vocab, 12)
        assert mask.sum(axis=1).min() == 1 and mask.sum(axis=1).max() == 12
        targets, real = batch_targets(examples + examples[:2])
        cfg = EncoderConfig(d_model=16, n_layers=2, n_heads=2, d_ffn=32, max_len=12,
                            vocab_size=len(vocab), dropout_rate=rate)
        results = []
        for forward in (MtlModel.logits_mtl, reference_logits):
            model = MtlModel(cfg, HeadConfig(hidden=8), seed=3)
            logits = forward(model, ids, mask, np.random.default_rng(11) if rate else None)
            total, _, _ = mtl_loss(logits, targets, LossWeights(), real)
            total.backward()
            results.append(({t: logits[t].data for t in TASKS},
                            {n: t.grad for n, t in model.params.items()}))
        (logits, grads), (ref_logits, ref_grads) = results
        for task in TASKS:
            ref = ref_logits[task]
            assert np.abs(logits[task] - ref).max() <= 1e-12 * np.abs(ref).max()
        assert_grads_close(grads, ref_grads)

    def test_long_max_len_on_short_tweets(self):
        """Memory and time follow the tweets, not max_len: at max_len 4096
        a padded (B, H, T, T) attention would need about 10 GB here. With
        the first 64 positional embeddings shared, the labels equal those
        at max_len 64."""
        examples = make_hierarchical_corpus(40, seed=8)
        vocab = build_vocab([e.tweet.text for e in examples])
        short = tiny_model(len(vocab), seed=2, max_len=64)
        long = tiny_model(len(vocab), seed=2, max_len=4096)
        for name, tensor in short.params.items():
            if name == "pos_emb":
                long.params[name].data[:64] = tensor.data
            else:
                long.params[name].data = tensor.data
        assert evaluate(long, vocab, examples).to_lines() == \
            evaluate(short, vocab, examples).to_lines()
        texts = [e.tweet.text for e in examples]
        labels = [[[p.label(t) for t in TASKS] for p in model.forward_mtl(
            *encode_batch(texts, vocab, model.encoder_config.max_len))]
            for model in (short, long)]
        assert labels[0] == labels[1]


    def test_grouping_never_leaks_between_rows(self):
        """Attention groups rows by length, so in a shuffled ragged batch a
        tweet shares its score block with others. Each tweet still gets
        the labels it gets alone, and probabilities within 4 ulp of 1.0:
        only the summation order can differ."""
        words = " ".join(e.tweet.text for e in make_hierarchical_corpus(60, seed=11)).split()
        vocab = build_vocab([" ".join(words)])
        rng = np.random.default_rng(0)
        texts = [" ".join(words[i:i + n]) for i, n in
                 zip(rng.permutation(len(words) - 24)[:60], rng.integers(0, 24, 60))]
        cfg = EncoderConfig(d_model=16, n_layers=2, n_heads=2, d_ffn=32, max_len=24,
                            vocab_size=len(vocab), dropout_rate=0.0)
        model = MtlModel(cfg, HeadConfig(hidden=16), seed=5)
        ids, mask = encode_batch(texts, vocab, cfg.max_len)
        assert len(set(mask.sum(axis=1))) > 10       # ragged: CLS-only rows to 24 tokens
        batch = model.forward_mtl(ids, mask)
        for i in range(len(texts)):
            alone = model.forward_mtl(ids[i:i + 1], mask[i:i + 1])
            for task in TASKS:
                assert batch.label(task)[i] == alone.label(task)[0]
                gap = np.abs(batch.probs(task)[i] - alone.probs(task)[0]).max()
                assert gap <= 4 * np.finfo(np.float64).eps, (i, task, gap)


class TestLoss:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LossWeights(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            LossWeights(1.5, -0.25, -0.25)

    def test_degenerate_weighting(self):
        assert weighted_total(0.7, 9.9, 3.3, LossWeights(1.0, 0.0, 0.0)) == 0.7

    def test_equal_losses_convex_combination(self):
        c = 0.42
        assert abs(weighted_total(c, c, c, LossWeights(0.4, 0.3, 0.3)) - c) < 1e-12

    def test_arithmetic_case(self):
        got = weighted_total(0.5, 1.0, 2.0, LossWeights(0.4, 0.3, 0.3))
        assert abs(got - 1.1) < 1e-12

    def test_linear_in_each_weight(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            la, lb, lc = rng.random(3) * 3
            w = rng.random(3)
            w = w / w.sum()
            got = weighted_total(la, lb, lc, LossWeights(*w))
            assert abs(got - (w[0] * la + w[1] * lb + w[2] * lc)) < 1e-12

    def test_synthetic_examples_skip_bc_losses(self, batch):
        model, _, examples, ids, mask = batch
        targets, _ = batch_targets(examples)
        logits = model.logits_mtl(ids, mask)
        real = np.zeros(len(examples))  # everything synthetic
        total, per_task, empty = mtl_loss(logits, targets, LossWeights(), real)
        assert sorted(empty) == ["b", "c"]
        assert float(per_task["b"].data) == 0.0
        assert float(per_task["c"].data) == 0.0
        assert abs(float(total.data) - 0.4 * float(per_task["a"].data)) < 1e-12

    def test_gradient_flow_with_b_only_weights(self, batch):
        model, _, examples, ids, mask = batch
        targets, real = batch_targets(examples)
        logits = model.logits_mtl(ids, mask)
        total, _, _ = mtl_loss(logits, targets, LossWeights(0.0, 1.0, 0.0), real)
        model.zero_grad()
        total.backward()
        for name, tensor in model.params.items():
            if name.startswith(("head_a.", "head_c.")):
                assert tensor.grad is None or not tensor.grad.any(), name
        # the shared backbone still receives gradient (eavesdropping path)
        enc_norm = sum(
            np.abs(t.grad).sum()
            for n, t in model.params.items()
            if not n.startswith("head_") and t.grad is not None
        )
        assert enc_norm > 0

    def test_task_loss_after_total_backward_raises(self, batch):
        """`per_task` losses are interior nodes of `total`'s graph, which its
        backward consumed; a second backward through them would add stale
        gradients to the parameters."""
        model, _, examples, ids, mask = batch
        targets, real = batch_targets(examples)
        total, per_task, _ = mtl_loss(model.logits_mtl(ids, mask), targets, LossWeights(),
                                      real)
        model.zero_grad()
        total.backward()
        grads = {name: t.grad.copy() for name, t in model.params.items()}
        with pytest.raises(ValueError, match="already used by an earlier backward"):
            per_task["a"].backward()
        for name, t in model.params.items():
            assert np.array_equal(t.grad, grads[name]), name


class TestParameterLayout:
    CONFIG = EncoderConfig(d_model=16, n_layers=2, n_heads=2, d_ffn=32, max_len=24,
                           vocab_size=40, dropout_rate=0.1)

    def test_seeded_initialization_is_pinned(self):
        """The parameters drawn for a seed, their names, shapes and order,
        as they were when the model drew its own layout (NumPy 2.4)."""
        model = MtlModel(self.CONFIG, HeadConfig(hidden=8), seed=5)
        assert param_digest(model.params) == "71668194ce1b2c9c"

    def test_layout_is_the_models_names_shapes_and_order(self):
        model = MtlModel(self.CONFIG, HeadConfig(hidden=8), seed=5)
        layout = parameter_layout(self.CONFIG, HeadConfig(hidden=8))
        assert list(layout.items()) == [(n, t.shape) for n, t in model.params.items()]
        assert layout["head_c.out.w"] == (8, len(TASK_CLASSES["c"]))

    @pytest.mark.parametrize("change, message", [
        ({"vocab_size": 2}, "vocab_size must cover the reserved tokens"),
        ({"n_heads": 3}, "not divisible by n_heads"),
    ])
    def test_invalid_config_rejected(self, change, message):
        config = EncoderConfig(**{**self.CONFIG.to_dict(), **change})
        with pytest.raises(ValueError, match=message):
            parameter_layout(config, HeadConfig())

    def test_from_arrays_keeps_values_and_layout_order(self):
        model = MtlModel(self.CONFIG, HeadConfig(hidden=8), seed=5)
        arrays = dict(reversed(param_arrays(model).items()))
        loaded = MtlModel.from_arrays(self.CONFIG, HeadConfig(hidden=8), arrays)
        assert list(loaded.params) == list(model.params)
        assert param_digest(loaded.params) == param_digest(model.params)
        assert all(t.requires_grad for t in loaded.params.values())


class TestPredict:
    def test_memorizes_single_example(self):
        context = NormContext(emoji=bundled_emoji_table(),
                              unigrams=bundled_unigram_table())
        examples = make_hierarchical_corpus(1, seed=2)
        text = examples[0].tweet.text
        gold = examples[0].labels
        vocab = build_vocab([text])
        model = tiny_model(len(vocab), seed=1)
        config = TrainConfig(learning_rate=5e-3, batch_size=1, max_epochs=120,
                             patience=120, seed=1)
        model, _ = train(model, vocab, examples, examples, config)
        pred = predict(model, vocab, context, text)
        assert tuple(pred.label(task) for task in TASKS) == gold.as_tuple()

    def test_ragged_tweets_match_rows_of_one_batch(self):
        """One raw tweet at a time through `predict` (B=1, one live row at
        every LSTM step) against the rows of one ragged `forward_mtl` batch
        of the same normalized tweets: the same labels, and probabilities
        within 4 ulp of 1.0."""
        context = NormContext(emoji=bundled_emoji_table(),
                              unigrams=bundled_unigram_table())
        words = " ".join(e.tweet.text for e in make_hierarchical_corpus(40, seed=3)).split()
        rng = np.random.default_rng(1)
        raw = ["", "#HappyBirthday @USER @USER URL \U0001F602"] + [
            " ".join(words[i:i + n]) + (" #thecatsat" if n % 3 == 0 else "")
            for i, n in zip(rng.permutation(len(words) - 30)[:20], rng.integers(1, 30, 20))]
        texts = [context.normalize(RawTweet(id="q", text=t)).text for t in raw]
        vocab = build_vocab(texts)
        model = tiny_model(len(vocab), seed=4, max_len=32)
        ids, mask = encode_batch(texts, vocab, 32)
        assert len(set(mask.sum(axis=1))) > 10
        batch = model.forward_mtl(ids, mask)
        for i, text in enumerate(raw):
            alone = predict(model, vocab, context, text)
            for task in TASKS:
                assert alone.label(task) == batch.label(task)[i]
                gap = np.abs(alone.probs(task) - batch.probs(task)[i]).max()
                assert gap <= 4 * np.finfo(np.float64).eps, (i, task, gap)

    def test_deterministic(self, batch):
        model, vocab, _, _, _ = batch
        context = NormContext(emoji=bundled_emoji_table(),
                              unigrams=bundled_unigram_table())
        a = predict(model, vocab, context, "you are a fool")
        b = predict(model, vocab, context, "you are a fool")
        assert np.array_equal(a.probs_a, b.probs_a)

    def test_labels_from_legal_enums(self, batch):
        model, vocab, _, _, _ = batch
        context = NormContext(emoji=bundled_emoji_table(),
                              unigrams=bundled_unigram_table())
        p = predict(model, vocab, context, "whatever text")
        assert p.label("a") in ("OFF", "NOT")
        assert p.label("b") in ("TIN", "UNT", "NULL")
        assert p.label("c") in ("IND", "GRP", "OTH", "NULL")


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, batch):
        model, vocab, _, ids, mask = batch
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab, LossWeights())
        loaded, loaded_vocab, weights = load_checkpoint(path)
        assert loaded_vocab.token_to_id == vocab.token_to_id
        assert weights.as_tuple() == (0.4, 0.3, 0.3)
        for name, tensor in model.params.items():
            assert np.array_equal(tensor.data, loaded.params[name].data), name
        before = model.forward_mtl(ids, mask)
        after = loaded.forward_mtl(ids, mask)
        for x, y in zip(before, after):
            assert np.array_equal(x.probs_a, y.probs_a)
            assert np.array_equal(x.probs_b, y.probs_b)
            assert np.array_equal(x.probs_c, y.probs_c)

    def test_load_draws_no_random_numbers(self, tmp_path, batch, monkeypatch):
        model, vocab, _, _, _ = batch
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab, LossWeights())

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded, _, _ = load_checkpoint(path)
        assert param_digest(loaded.params) == param_digest(model.params)

    def test_version_1_with_baseline_head_loads(self, tmp_path, batch):
        model, vocab, _, ids, mask = batch
        assert not any(name.startswith("baseline.") for name in model.params)
        v1, v2, v3 = tmp_path / "v1.ckpt", tmp_path / "v2.ckpt", tmp_path / "v3.ckpt"
        write_per_name_checkpoint(v1, model, vocab, version=1, extra={
            "baseline.out.w": np.ones((model.encoder_config.d_model, 2)),
            "baseline.out.b": np.ones(2)})
        write_per_name_checkpoint(v2, model, vocab)
        save_checkpoint(v3, model, vocab, LossWeights())
        loaded = [load_checkpoint(path)[0] for path in (v1, v2, v3)]
        for other in loaded:
            assert param_digest(other.params) == param_digest(model.params)
        for x, y in zip(loaded[0].forward_mtl(ids, mask), loaded[2].forward_mtl(ids, mask)):
            for task in ("a", "b", "c"):
                assert np.array_equal(x.probs(task), y.probs(task))

    def test_version_2_with_baseline_head_rejected(self, tmp_path, batch):
        model, vocab, _, _, _ = batch
        stray = tmp_path / "stray.ckpt"
        write_per_name_checkpoint(stray, model, vocab, extra={
            "baseline.out.w": np.ones((model.encoder_config.d_model, 2)),
            "baseline.out.b": np.ones(2)})
        with pytest.raises(ValueError, match="is not a valid checkpoint"):
            load_checkpoint(stray)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, batch, value):
        model, vocab, _, _, _ = batch
        bad = tmp_path / "bad.ckpt"
        write_per_name_checkpoint(bad, model, vocab, extra={
            "tok_emb": np.full_like(model.params["tok_emb"].data, value)})
        with pytest.raises(ValueError, match=re.escape(
                f"{bad} is not a valid checkpoint: parameter tok_emb holds a non-finite value")):
            load_checkpoint(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_format_3_rejected(self, tmp_path, batch, value):
        model, vocab, _, _, _ = batch
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, model, vocab, LossWeights())
        vector = flat_parameters(model)
        vector[model.params["tok_emb"].data.size - 1] = value
        rewrite_checkpoint(bad, bad, members={"params": vector})
        with pytest.raises(ValueError, match=re.escape(
                f"{bad} is not a valid checkpoint: parameter tok_emb holds a non-finite value")):
            load_checkpoint(bad)

    @pytest.mark.parametrize("dtype", [np.complex128, np.int64])
    def test_non_real_float_parameter_rejected(self, tmp_path, batch, dtype):
        model, vocab, _, _, _ = batch
        bad = tmp_path / "bad.ckpt"
        # an imaginary part of 1 would vanish under astype(float64)
        values = np.ones_like(model.params["tok_emb"].data, dtype=dtype)
        if dtype is np.complex128:
            values += 1j
        write_per_name_checkpoint(bad, model, vocab, extra={"tok_emb": values})
        with pytest.raises(ValueError, match=re.escape(
                f"{bad} is not a valid checkpoint: parameter tok_emb holds "
                f"{np.dtype(dtype)} values, not real floating point")):
            load_checkpoint(bad)

    def test_vocabulary_larger_than_vocab_size_rejected(self, tmp_path, batch):
        model, vocab, _, _, _ = batch
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, model, vocab, LossWeights())
        lines = vocab.to_lines()
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint(good, bad, meta={
            "vocab": lines + [f"extra{i}\t{len(lines) + i}" for i in range(5)]})
        with pytest.raises(ValueError, match=re.escape(
                f"{bad} is not a valid checkpoint: the vocabulary has {len(lines) + 5} "
                f"entries, more than the encoder's vocab_size {len(lines)}")):
            load_checkpoint(bad)
        # a vocabulary shorter than the embedding table stays legal
        short = tmp_path / "short.ckpt"
        rewrite_checkpoint(good, short, meta={"vocab": lines[:-2]})
        _, short_vocab, _ = load_checkpoint(short)
        assert len(short_vocab) == len(lines) - 2

    def test_format_3_vector_of_either_byte_order_loads(self, tmp_path, batch):
        model, vocab, _, _, _ = batch
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab, LossWeights())
        swapped = flat_parameters(model).astype(np.dtype(np.float64).newbyteorder())
        rewrite_checkpoint(path, path, members={"params": swapped})
        loaded, _, _ = load_checkpoint(path)
        assert param_digest(loaded.params) == param_digest(model.params)

    def test_format_3_parameters_share_one_buffer(self, tmp_path, batch):
        """A format-3 load holds its parameters once: each is a view of the
        vector read from the file, not a copy of it."""
        model, vocab, _, _, _ = batch
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab, LossWeights())
        loaded, _, _ = load_checkpoint(path)
        vector = loaded.params["tok_emb"].data.base
        assert vector is not None and vector.size == model.n_params()
        assert all(t.data.base is vector for t in loaded.params.values())

    def test_format_2_float32_parameter_converted(self, tmp_path, batch):
        model, vocab, _, _, _ = batch
        path = tmp_path / "model.ckpt"
        single = model.params["tok_emb"].data.astype(np.float32)
        write_per_name_checkpoint(path, model, vocab, extra={"tok_emb": single})
        loaded, _, _ = load_checkpoint(path)
        assert loaded.params["tok_emb"].data.dtype == np.float64
        assert np.array_equal(loaded.params["tok_emb"].data, single)

    def test_zero_head_hidden_size_rejected(self, tmp_path, batch):
        """A checkpoint whose head hidden size is 0, stored with the vector
        that size gives (the encoder's parameters and each head's output
        bias), is not a model: its heads would have no state."""
        model, vocab, _, _, _ = batch
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab, LossWeights())
        vector = np.concatenate(
            [model.params[name].data.ravel() for name in encoder_layout(model.encoder_config)]
            + [model.params[f"head_{task}.out.b"].data for task in TASKS])
        rewrite_checkpoint(path, path, meta={"head": {"hidden": 0}},
                           members={"params": vector})
        with pytest.raises(ValueError, match=re.escape(
                f"{path} is not a valid checkpoint: head hidden size must be >= 1, not 0")):
            load_checkpoint(path)

    def test_format_3_holds_one_vector_in_layout_order(self, tmp_path, batch):
        model, vocab, _, _, _ = batch
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab, LossWeights())
        with np.load(path) as data:
            assert sorted(data.files) == ["meta", "params"]
            assert json.loads(bytes(data["meta"]).decode("utf-8"))["version"] == 3
            assert data["params"].dtype == np.float64
            assert data["params"].tobytes() == flat_parameters(model).tobytes()


# Written by `save_checkpoint` when checkpoints were format 2, and kept as
# those bytes: a tiny model (d_model 8, 1 layer, hidden 4), its vocabulary
# and loss weights.
FORMAT_2_FILE = Path(__file__).parent / "data" / "format2.ckpt"


class TestFormat2File:
    def test_loads_to_the_recorded_model(self):
        model, vocab, weights = load_checkpoint(FORMAT_2_FILE)
        assert param_digest(model.params) == "560197240707cf03"
        assert model.encoder_config == EncoderConfig(
            d_model=8, n_layers=1, n_heads=2, d_ffn=8, max_len=8, vocab_size=10,
            dropout_rate=0.1)
        assert model.head_config == HeadConfig(hidden=4)
        assert vocab.id_to_token == ["<pad>", "<unk>", "<cls>", "#tag", "@user", "idiot",
                                     "lovely", "today", "weather", "you"]
        assert weights.as_tuple() == (0.5, 0.3, 0.2)

    def test_saved_again_as_format_3_gives_the_same_model(self, tmp_path):
        model, vocab, weights = load_checkpoint(FORMAT_2_FILE)
        path = tmp_path / "v3.ckpt"
        save_checkpoint(path, model, vocab, weights)
        again, again_vocab, again_weights = load_checkpoint(path)
        assert param_digest(again.params) == param_digest(model.params)
        assert again_vocab.to_lines() == vocab.to_lines() and again_weights == weights


@st.composite
def checkpoint_cases(draw):
    """A small model of random architecture, its vocabulary and a loss weighting."""
    words = draw(st.lists(st.text("abcé#@", min_size=1, max_size=4), min_size=1, max_size=6))
    vocab = build_vocab([" ".join(words)])
    n_heads = draw(st.integers(1, 3))
    encoder = EncoderConfig(
        d_model=n_heads * draw(st.integers(1, 4)), n_layers=draw(st.integers(1, 2)),
        n_heads=n_heads, d_ffn=draw(st.integers(1, 8)), max_len=draw(st.integers(2, 10)),
        vocab_size=len(vocab), dropout_rate=draw(st.floats(0.0, 0.9)))
    model = MtlModel(encoder, HeadConfig(hidden=draw(st.integers(1, 6))),
                     seed=draw(st.integers(0, 2**32)))
    w_a = draw(st.floats(0.0, 1.0))
    w_b = draw(st.floats(0.0, 1.0 - w_a))
    return model, vocab, LossWeights(w_a, w_b, 1.0 - w_a - w_b)


class TestCheckpointRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(checkpoint_cases())
    def test_save_then_load_gives_back_the_model(self, case):
        model, vocab, weights = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(path, model, vocab, weights)
            loaded, loaded_vocab, loaded_weights = load_checkpoint(path)
        assert loaded.encoder_config == model.encoder_config
        assert loaded.head_config == model.head_config
        assert loaded_vocab.token_to_id == vocab.token_to_id
        assert loaded_weights == weights
        assert loaded.params.keys() == model.params.keys()
        for name, tensor in model.params.items():
            got = loaded.params[name].data
            assert got.dtype == tensor.data.dtype and got.shape == tensor.data.shape, name
            assert got.tobytes() == tensor.data.tobytes(), name


def flat_parameters(model: MtlModel) -> np.ndarray:
    """Every parameter of `model` in one float64 vector, in layout order."""
    layout = parameter_layout(model.encoder_config, model.head_config)
    return np.concatenate([model.params[name].data.ravel() for name in layout])


def write_per_name_checkpoint(path, model, vocab, version=2, extra=None,
                              loss_weights=LossWeights()):
    """Write `model` as formats 1 and 2 stored it: one `param/<name>` member
    per parameter, `extra` arrays added or put in place of the model's, and
    the metadata with `version` set."""
    meta = {"version": version, "encoder": model.encoder_config.to_dict(),
            "head": model.head_config.to_dict(),
            "loss_weights": loss_weights.as_tuple(), "vocab": vocab.to_lines()}
    arrays = {name: t.data for name, t in model.params.items()}
    arrays.update(extra or {})
    members = {f"param/{name}": arr for name, arr in arrays.items()}
    members["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                                    dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, **members)


def rewrite_checkpoint(src, dst, meta=None, members=None):
    """Copy a checkpoint with `meta` written over its metadata keys and
    `members` put in place of its members; a member given as None is left
    out."""
    with np.load(src) as data:
        arrays = {key: data[key] for key in data.files}
    old_meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    arrays["meta"] = np.frombuffer(json.dumps({**old_meta, **(meta or {})}).encode("utf-8"),
                                   dtype=np.uint8)
    arrays.update(members or {})
    with open(dst, "wb") as handle:
        np.savez(handle, **{key: arr for key, arr in arrays.items() if arr is not None})
