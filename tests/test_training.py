import numpy as np
import pytest

from offlang import training
from offlang.autodiff import Tensor
from offlang.encoder import EncoderConfig
from offlang.mtl import HeadConfig, LossWeights, MtlModel, batch_targets, mtl_loss
from offlang.synth import make_hierarchical_corpus, make_scored_corpus
from offlang.training import (
    Adam,
    EarlyStopper,
    NonFiniteLossError,
    TrainConfig,
    check_gradients,
    pretrain_regression,
    _cls_head,
    train,
    train_baseline,
)
from offlang.tokenizer import build_vocab, encode_batch

from test_encoder import assert_grads_close, reference_encode


def tiny_model(vocab_size, seed=0, max_len=12):
    cfg = EncoderConfig(d_model=16, n_layers=1, n_heads=2, d_ffn=32,
                        max_len=max_len, vocab_size=vocab_size, dropout_rate=0.0)
    return MtlModel(cfg, HeadConfig(hidden=16), seed=seed)


def small_setup(n=24, seed=0):
    examples = make_hierarchical_corpus(n, seed=seed)
    vocab = build_vocab([e.tweet.text for e in examples])
    return examples, vocab


class TestEarlyStopper:
    def test_paper_trace(self):
        # F1 trace [0.5, 0.6, 0.6, 0.6, 0.6], patience 3 -> stop at 5, best 2
        stopper = EarlyStopper(patience=3)
        stops = [stopper.update(f, e) for e, f in
                 enumerate([0.5, 0.6, 0.6, 0.6, 0.6], start=1)]
        assert stops == [False, False, False, False, True]
        assert stopper.best_epoch == 2

    def test_strictly_increasing_never_stops(self):
        stopper = EarlyStopper(patience=3)
        assert not any(
            stopper.update(f, e)
            for e, f in enumerate(np.linspace(0.1, 0.9, 20), start=1)
        )
        assert stopper.best_epoch == 20

    def test_improvement_resets_patience(self):
        stopper = EarlyStopper(patience=2)
        trace = [0.5, 0.5, 0.6, 0.6, 0.6]
        stops = [stopper.update(f, e) for e, f in enumerate(trace, start=1)]
        assert stops == [False, False, False, False, True]

    @pytest.mark.parametrize("seed", range(20))
    def test_gap_equals_patience_when_stopping(self, seed):
        rng = np.random.default_rng(seed)
        patience = int(rng.integers(1, 5))
        stopper = EarlyStopper(patience)
        for epoch in range(1, 40):
            if stopper.update(float(rng.random()), epoch):
                assert epoch - stopper.best_epoch == patience
                return


class TestTrain:
    def test_determinism(self):
        examples, vocab = small_setup()
        train_ex, val_ex = examples[:16], examples[16:]
        config = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=3,
                             patience=3, seed=11)
        m1, h1 = train(tiny_model(len(vocab), seed=11), vocab, train_ex, val_ex, config)
        m2, h2 = train(tiny_model(len(vocab), seed=11), vocab, train_ex, val_ex, config)
        assert h1.train_loss == h2.train_loss
        assert h1.val_f1 == h2.val_f1
        for name, arr in m1.state_arrays().items():
            assert np.array_equal(arr, m2.state_arrays()[name]), name

    def test_history_invariants(self):
        examples, vocab = small_setup()
        config = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=6,
                             patience=2, seed=1)
        _, history = train(tiny_model(len(vocab)), vocab, examples[:16],
                           examples[16:], config)
        assert 1 <= history.best_epoch <= history.stopped_epoch <= 6
        assert max(history.val_f1["a"]) == history.val_f1["a"][history.best_epoch - 1]

    def test_best_model_reproduces_best_f1(self):
        from offlang.training import validation_f1

        examples, vocab = small_setup()
        config = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=5,
                             patience=5, seed=2)
        model, history = train(tiny_model(len(vocab), seed=2), vocab,
                               examples[:16], examples[16:], config)
        rescored = validation_f1(model, examples[16:], vocab)
        assert abs(rescored["a"] - max(history.val_f1["a"])) < 1e-12

    def test_empty_corpus_rejected(self):
        examples, vocab = small_setup()
        config = TrainConfig()
        with pytest.raises(ValueError):
            train(tiny_model(len(vocab)), vocab, [], examples, config)

    def test_descent_on_fixed_batch(self):
        # one full-batch Adam step at small lr lowers the loss for >= 95/100 seeds
        examples, vocab = small_setup(n=8)
        ids, mask = encode_batch([e.tweet.text for e in examples], vocab, 12)
        targets, real = batch_targets(examples)
        weights = LossWeights()
        wins = 0
        for seed in range(100):
            model = tiny_model(len(vocab), seed=seed)
            logits = model.logits_mtl(ids, mask)
            loss, _, _ = mtl_loss(logits, targets, weights, real)
            before = float(loss.data)
            model.zero_grad()
            loss.backward()
            Adam(model.params, lr=1e-3).step()
            logits = model.logits_mtl(ids, mask)
            after, _, _ = mtl_loss(logits, targets, weights, real)
            wins += float(after.data) < before
        assert wins >= 95


class TestPretrainRegression:
    def test_squared_error_arithmetic(self):
        assert abs((0.5 - 0.3) ** 2 - 0.04) < 1e-15

    def test_zero_loss_on_perfect_fit(self):
        pred = np.array([0.2, 0.8])
        assert float(((Tensor(pred) - Tensor(pred)) ** 2.0).mean().data) == 0.0

    def test_loss_decreases_over_first_steps(self):
        scored = make_scored_corpus(40, seed=3)
        vocab = build_vocab([e.tweet.text for e in scored])
        model = tiny_model(len(vocab), seed=3)
        config = TrainConfig(learning_rate=1e-3, batch_size=40, max_epochs=3,
                             seed=3)
        _, epoch_mse = pretrain_regression(model, vocab, scored, config)
        # full-batch epochs: each epoch is one small-lr step
        assert epoch_mse[0] > epoch_mse[1] > epoch_mse[2]

    @pytest.mark.parametrize("entry", [pretrain_regression, train_baseline],
                             ids=lambda f: f.__name__)
    def test_regression_head_discarded(self, entry):
        examples = make_hierarchical_corpus(10, seed=4)
        scored = make_scored_corpus(10, seed=4)
        vocab = build_vocab([e.tweet.text for e in examples + scored])
        model = tiny_model(len(vocab), seed=4)
        before = model.state_arrays()
        config = TrainConfig(learning_rate=1e-3, batch_size=10, max_epochs=1, seed=4)
        corpora = (scored,) if entry is pretrain_regression else (examples, examples)
        model, _ = entry(model, vocab, *corpora, config)
        assert set(model.params) == set(before)
        for name in before:     # the task heads take no part in either loss
            if name.startswith("head_"):
                assert np.array_equal(model.params[name].data, before[name]), name

    def test_encoder_actually_updates(self):
        scored = make_scored_corpus(10, seed=5)
        vocab = build_vocab([e.tweet.text for e in scored])
        model = tiny_model(len(vocab), seed=5)
        before = model.state_arrays()
        config = TrainConfig(learning_rate=1e-3, batch_size=10, max_epochs=2, seed=5)
        model, _ = pretrain_regression(model, vocab, scored, config)
        changed = any(
            not np.array_equal(before[n], model.params[n].data)
            for n in before if n.startswith(("tok_emb", "layer0."))
        )
        assert changed

    def test_empty_scored_rejected(self):
        _, vocab = small_setup(n=4)
        with pytest.raises(ValueError):
            pretrain_regression(tiny_model(len(vocab)), vocab, [], TrainConfig())


class TestClsHead:
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_matches_padded_reference(self, rate):
        """Ragged batch with a CLS-only and a full-length row: the head reads
        each row's first packed token, so its logits and every gradient
        match a head on `reference_encode(...)[:, 0, :]` within 1e-12
        relative, with dropout drawn from the same stream."""
        examples = make_hierarchical_corpus(6, seed=9)
        vocab = build_vocab([e.tweet.text for e in examples])
        texts = [e.tweet.text for e in examples] + ["", " ".join(["word"] * 20)]
        ids, mask = encode_batch(texts, vocab, 12)
        assert mask.sum(axis=1).min() == 1 and mask.sum(axis=1).max() == 12
        cfg = EncoderConfig(d_model=16, n_layers=2, n_heads=2, d_ffn=32, max_len=12,
                            vocab_size=len(vocab), dropout_rate=rate)
        weights = np.random.default_rng(0).normal(size=(len(texts), 3))
        results = []
        for reference in (False, True):
            model = MtlModel(cfg, HeadConfig(hidden=8), seed=3)
            logits, trainable = _cls_head(model, np.random.default_rng(4), 3)
            drop_rng = np.random.default_rng(11) if rate else None
            if reference:
                cls = reference_encode(model.params, cfg, ids, mask, drop_rng)[:, 0, :]
                out = cls @ trainable["cls_head.w"] + trainable["cls_head.b"]
            else:
                out = logits(ids, mask, drop_rng)
            (out * Tensor(weights)).sum().backward()
            results.append((out.data, {n: t.grad for n, t in trainable.items()}))
        (out, grads), (ref, ref_grads) = results
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        assert_grads_close(grads, ref_grads)


@pytest.mark.parametrize("entry", [train, train_baseline, pretrain_regression],
                         ids=lambda f: f.__name__)
def test_nan_parameter_raises_non_finite_loss(entry):
    examples = make_hierarchical_corpus(12, seed=6)
    scored = make_scored_corpus(12, seed=6)
    vocab = build_vocab([e.tweet.text for e in examples + scored])
    model = tiny_model(len(vocab), seed=6)
    model.params["tok_emb"].data[:] = np.nan
    corpora = (scored,) if entry is pretrain_regression else (examples[:8], examples[8:])
    with pytest.raises(NonFiniteLossError):
        entry(model, vocab, *corpora, TrainConfig(batch_size=4, max_epochs=1))


class TestCheckGradients:
    def test_linear_layer_closed_form(self):
        # y = w x, loss (y - t)^2: d/dw = 2 (w x - t) x
        w = Tensor(np.array([[1.7]]), requires_grad=True)
        x, t = 0.6, -0.4
        loss = ((Tensor(np.array([[x]])) @ w - t) ** 2.0).sum()
        loss.backward()
        analytic = float(w.grad[0, 0])
        assert abs(analytic - 2 * (1.7 * x - t) * x) < 1e-12
        eps = 1e-6
        up = (1.7 + eps) * x - t
        down = (1.7 - eps) * x - t
        numeric = (up ** 2 - down ** 2) / (2 * eps)
        assert abs(analytic - numeric) < 1e-6

    def test_full_tiny_mtl_model(self):
        examples, vocab = small_setup(n=4)
        cfg = EncoderConfig(d_model=8, n_layers=1, n_heads=2, d_ffn=16,
                            max_len=8, vocab_size=len(vocab), dropout_rate=0.0)
        model = MtlModel(cfg, HeadConfig(hidden=8), seed=0)
        error = check_gradients(model, examples[:4], vocab, LossWeights(),
                                epsilon=1e-4)
        assert error <= 1e-3

    def test_nan_error_is_kept(self, monkeypatch):
        """A NaN finite difference makes the result NaN, which passes no
        tolerance; `max` would skip it and report the largest finite error."""
        examples, vocab = small_setup(n=2)
        cfg = EncoderConfig(d_model=4, n_layers=1, n_heads=1, d_ffn=4,
                            max_len=4, vocab_size=len(vocab), dropout_rate=0.0)
        model = MtlModel(cfg, HeadConfig(hidden=2), seed=0)
        calls = []

        def nan_after_first(*args):
            total, per_task, empty = mtl_loss(*args)
            calls.append(None)
            return (total if len(calls) == 1 else total * np.nan), per_task, empty

        monkeypatch.setattr(training, "mtl_loss", nan_after_first)
        assert np.isnan(check_gradients(model, examples[:2], vocab, LossWeights()))

    def test_unused_heads_have_zero_gradient_and_pass(self):
        examples, vocab = small_setup(n=2)
        cfg = EncoderConfig(d_model=8, n_layers=1, n_heads=2, d_ffn=16,
                            max_len=8, vocab_size=len(vocab), dropout_rate=0.0)
        model = MtlModel(cfg, HeadConfig(hidden=4), seed=0)
        error = check_gradients(model, examples[:2], vocab,
                                LossWeights(1.0, 0.0, 0.0), epsilon=1e-4)
        assert error <= 1e-3
