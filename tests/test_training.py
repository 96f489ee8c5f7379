import dataclasses
import hashlib
import weakref

import numpy as np
import pytest

from offlang import autodiff, encoder, mtl, training
from offlang.autodiff import Tensor
from offlang.encoder import EncoderConfig
from offlang.mtl import (
    TASKS, HeadConfig, LossWeights, MtlModel, batch_targets, mtl_loss,
)
from offlang.synth import make_hierarchical_corpus, make_scored_corpus
from offlang.training import (
    Adam,
    EarlyStopper,
    NonFiniteLossError,
    TrainConfig,
    check_gradients,
    fit,
    pretrain_regression,
    _cls_head,
    train,
    train_baseline,
)
from offlang.tokenizer import build_vocab, encode_batch

from test_autodiff import composed_residual_norm, composed_rows, kept_tanh_gelu
from test_encoder import assert_grads_close, reference_encode


def tiny_model(vocab_size, seed=0, max_len=12):
    cfg = EncoderConfig(d_model=16, n_layers=1, n_heads=2, d_ffn=32,
                        max_len=max_len, vocab_size=vocab_size, dropout_rate=0.0)
    return MtlModel(cfg, HeadConfig(hidden=16), seed=seed)


def small_setup(n=24, seed=0):
    examples = make_hierarchical_corpus(n, seed=seed)
    vocab = build_vocab([e.tweet.text for e in examples])
    return examples, vocab


def ragged_corpus(n, seed):
    """`n` synthetic examples cut to 1-20 words each: `synth` gives every
    tweet the same word count, so its batches are never ragged."""
    examples = make_hierarchical_corpus(n, seed=seed, n_words=20)
    keep = np.random.default_rng(seed).integers(1, 21, size=n)
    return [dataclasses.replace(ex, tweet=dataclasses.replace(
        ex.tweet, text=" ".join(ex.tweet.text.split()[:k])))
        for ex, k in zip(examples, keep)]


def op_of(node: Tensor) -> str:
    """The op that built a graph node: the function that defines its
    backward closure, such as `rows`, `residual_norm` or `gelu`."""
    return node._backward.__qualname__.split(".<locals>")[0].rsplit(".", 1)[-1]


def param_arrays(model) -> dict[str, np.ndarray]:
    """A copy of each of `model`'s parameter arrays, by name."""
    return {name: tensor.data.copy() for name, tensor in model.params.items()}


def param_digest(params) -> str:
    """The first 16 hex digits of a SHA-256 over each parameter's name,
    shape and float64 bytes, in the model's order."""
    digest = hashlib.sha256()
    for name, tensor in params.items():
        digest.update(name.encode())
        digest.update(repr(tensor.data.shape).encode())
        digest.update(np.ascontiguousarray(tensor.data).tobytes())
    return digest.hexdigest()[:16]


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
        for name, tensor in m1.params.items():
            assert np.array_equal(tensor.data, m2.params[name].data), name

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


class TestFit:
    def test_no_parameter_copy_without_validation(self, traced_peak):
        """Without `validate` nothing restores a snapshot, so `fit` takes
        none: its traced peak is Adam's two moment arrays and no third copy
        of the parameters."""
        params = {"w": Tensor(np.zeros(1 << 16), requires_grad=True)}
        config = TrainConfig(batch_size=1, max_epochs=1)
        _, peak = traced_peak(lambda: fit(params, 1, lambda batch, rng: Tensor(0.0), config,
                                          np.random.default_rng(0)))
        assert peak < 2.5 * params["w"].data.nbytes, peak / params["w"].data.nbytes

    def test_f1_that_never_improves_restores_the_initial_parameters(self):
        w = Tensor(np.ones(4), requires_grad=True)
        config = TrainConfig(batch_size=1, max_epochs=2, patience=2)
        history = fit({"w": w}, 1, lambda batch, rng: (w * w).sum(), config,
                      np.random.default_rng(0), lambda: dict.fromkeys(TASKS, np.nan))
        assert history.stopped_epoch == 2 and history.best_epoch == 0
        assert np.array_equal(w.data, np.ones(4))


class TestOneGraphPerStep:
    """Backward frees the graph it consumed, so a training step holds one
    graph at a time."""

    @staticmethod
    def ragged_step(seed=1):
        """A model with dropout on and `train`'s loss on one ragged 32-row
        batch."""
        examples = ragged_corpus(32, seed=seed)
        vocab = build_vocab([e.tweet.text for e in examples])
        ids, mask = encode_batch([e.tweet.text for e in examples], vocab, 24)
        assert len(set(mask.sum(axis=1))) > 10
        targets, real = batch_targets(examples)
        cfg = EncoderConfig(d_model=32, n_layers=2, n_heads=2, d_ffn=64, max_len=24,
                            vocab_size=len(vocab), dropout_rate=0.1)
        model = MtlModel(cfg, HeadConfig(hidden=16), seed=0)

        def step_loss(batch, rng):
            logits = model.logits_mtl(ids[batch], mask[batch], rng)
            loss, _, _ = mtl_loss(logits, {t: targets[t][batch] for t in targets},
                                  LossWeights(), real[batch])
            return loss

        return model, step_loss

    def test_encoder_output_dies_with_backward(self, monkeypatch):
        """The encoder's output Tensor is freed by the step's backward. Tensor
        keeps no weakref slot, so the ref goes to its data array, which no
        other object holds (`lstm` gathers a copy of it)."""
        outputs, original = [], mtl.encoder_forward

        def encode(*args):
            out, lengths = original(*args)
            outputs.append(weakref.ref(out.data))
            return out, lengths

        monkeypatch.setattr(mtl, "encoder_forward", encode)
        model, step_loss = self.ragged_step()
        loss = step_loss(np.arange(32), np.random.default_rng(0))
        assert outputs[0]() is not None
        loss.backward()
        assert outputs[0]() is None
        assert loss._parents == () and loss.grad is None
        assert all(t.grad is not None for t in model.params.values())

    def test_two_step_fit_peaks_as_high_as_one_step(self, traced_peak):
        """The previous step's graph is gone before the next forward runs:
        the traced peak of a two-step `fit` stays within 10% of a one-step
        `fit`'s."""
        peaks = []
        for steps in (1, 2):
            model, step_loss = self.ragged_step()
            config = TrainConfig(batch_size=32, max_epochs=steps)
            peaks.append(traced_peak(lambda: fit(model.params, 32, step_loss, config,
                                                 np.random.default_rng(0)))[1])
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_encoder_graph_keeps_only_values_a_backward_reads(self, monkeypatch):
        """The encoder's training graph is built from fused nodes alone, each
        of which keeps only what its backward reads: one `rows` node, then
        per layer three q/k/v `affine` nodes, `attention`, a
        `residual_norm` tail, the feed-forward `affine` and `gelu`, and a
        second tail. No `+`, `dropout` or layer-norm node holds a value
        that no backward reads."""
        outputs, original = [], mtl.encoder_forward

        def encode(*args):
            out, lengths = original(*args)
            outputs.append(out)
            return out, lengths

        monkeypatch.setattr(mtl, "encoder_forward", encode)
        model, step_loss = self.ragged_step()
        loss = step_loss(np.arange(32), np.random.default_rng(0))
        nodes, stack = {}, [outputs[0]]
        while stack:
            node = stack.pop()
            if id(node) in nodes or node._backward is None:
                continue
            nodes[id(node)] = node
            stack.extend(node._parents)
        ops = sorted(op_of(node) for node in nodes.values())
        n_layers = model.encoder_config.n_layers
        assert len(ops) == 1 + 8 * n_layers
        assert ops == sorted(["rows"] + n_layers * (
            ["affine"] * 4 + ["attention", "gelu"] + ["residual_norm"] * 2))
        loss.backward()

    def test_step_peaks_below_the_composed_step(self, traced_peak, monkeypatch):
        """The fused embedding and tails and GELU's recomputed tanh take a
        training step's traced peak below 80% of the same step built from
        the composed references (`composed_rows`, `composed_residual_norm`)
        with tanh kept (about 52% here)."""
        def step_peak():
            _, step_loss = self.ragged_step()
            return traced_peak(lambda: step_loss(np.arange(32),
                                                 np.random.default_rng(0)).backward())[1]

        lean = step_peak()
        monkeypatch.setattr(encoder, "rows", composed_rows)
        monkeypatch.setattr(encoder, "residual_norm", composed_residual_norm)
        monkeypatch.setattr(Tensor, "gelu", kept_tanh_gelu)
        composed = step_peak()
        assert lean < 0.8 * composed, lean / composed

    def test_ragged_seeded_run_matches_composed_ops(self, monkeypatch):
        """A seeded `train` run with dropout on ragged 1-20 word tweets gives
        the loss history and parameter bytes, in the same process, that the
        composed ops give: `x @ w + b` for `affine`, `composed_rows` and
        `composed_residual_norm` (single-table gathers, `x * Tensor(mask)`
        with a float mask for dropout, `+` and the composed layer norm), the
        kept-tanh GELU, and a backward that frees nothing."""
        self.check_matches_composed_ops(monkeypatch, 0.1)

    def test_ragged_seeded_run_without_dropout_matches_composed_ops(self, monkeypatch):
        """As above with `dropout_rate` 0.0: the fused nodes and their
        compositions draw no mask."""
        self.check_matches_composed_ops(monkeypatch, 0.0)

    @staticmethod
    def check_matches_composed_ops(monkeypatch, rate):
        examples = ragged_corpus(48, seed=3)
        vocab = build_vocab([e.tweet.text for e in examples])
        cfg = EncoderConfig(d_model=16, n_layers=2, n_heads=2, d_ffn=32, max_len=24,
                            vocab_size=len(vocab), dropout_rate=rate)
        config = TrainConfig(learning_rate=3e-3, batch_size=16, max_epochs=2, patience=2,
                             seed=9)

        def run():
            model, history = train(MtlModel(cfg, HeadConfig(hidden=8), seed=7), vocab,
                                   examples[:32], examples[32:], config)
            return [x.hex() for x in history.train_loss], param_digest(model.params)

        def composed_affine(x, w, b):
            return x @ w + b

        def keeping_backward(self):
            topo, seen, stack = [], set(), [(self, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    topo.append(node)
                elif id(node) not in seen and node.requires_grad:
                    seen.add(id(node))
                    stack.append((node, True))
                    stack.extend((p, False) for p in node._parents)
            self.grad = np.ones_like(self.data)
            for node in reversed(topo):
                if node._backward is not None:
                    node._backward(node.grad)

        lean = run()
        monkeypatch.setattr(encoder, "affine", composed_affine)
        monkeypatch.setattr(mtl, "affine", composed_affine)
        monkeypatch.setattr(encoder, "rows", composed_rows)
        monkeypatch.setattr(encoder, "residual_norm", composed_residual_norm)
        monkeypatch.setattr(Tensor, "backward", keeping_backward)
        monkeypatch.setattr(Tensor, "gelu", kept_tanh_gelu)
        assert run() == lean


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
        before = param_arrays(model)
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
        before = param_arrays(model)
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


@pytest.mark.parametrize("head", ["logits_mtl", "cls_head"])
def test_mask_is_checked_once_per_forward(monkeypatch, head):
    """Past `encoder.encode` a batch is packed rows plus lengths: every
    module that can reach `prefix_lengths` counts into one tally, and one
    forward of either head runs it once."""
    calls = []
    for module in (autodiff, encoder, mtl, training):
        if hasattr(module, "prefix_lengths"):
            original = module.prefix_lengths
            monkeypatch.setattr(module, "prefix_lengths",
                                lambda mask, original=original: calls.append(1) or original(mask))
    examples, vocab = small_setup(n=6)
    ids, mask = encode_batch([e.tweet.text for e in examples], vocab, 12)
    model = tiny_model(len(vocab))
    forward = model.logits_mtl if head == "logits_mtl" else _cls_head(
        model, np.random.default_rng(0), 2)[0]
    forward(ids, mask, np.random.default_rng(1))
    assert len(calls) == 1


@pytest.mark.parametrize("head", ["logits_mtl", "cls_head"])
@pytest.mark.parametrize("lengths", [[2, 0, 3], [2, 0]])
def test_row_without_real_token_is_rejected(head, lengths):
    """An all-PAD row has no CLS row: neither head may read another row's
    (unchecked, `_cls_head` gave row 1 the logits of row 2 for lengths
    [2, 0, 3] and raised IndexError for [2, 0]), nor the bare output bias."""
    model = tiny_model(8)
    mask = (np.arange(4) < np.array(lengths)[:, None]).astype(np.int64)
    ids = np.where(mask, 3, 0)
    forward = model.logits_mtl if head == "logits_mtl" else _cls_head(
        model, np.random.default_rng(0), 2)[0]
    with pytest.raises(ValueError, match="mask row 1 has no real token"):
        forward(ids, mask)


def test_baseline_validation_runs_in_chunks(monkeypatch):
    """`train_baseline` validates through the inference chunk loop: its
    40-row validation set reaches the encoder as 32 rows, then 8."""
    examples, vocab = small_setup(n=50)
    model = tiny_model(len(vocab))
    sizes = []
    encode = model.encode
    monkeypatch.setattr(model, "encode", lambda ids, *rest: sizes.append(len(ids))
                        or encode(ids, *rest))
    train_baseline(model, vocab, examples[:10], examples[10:],
                   TrainConfig(batch_size=10, max_epochs=1))
    assert sizes == [10, mtl.CHUNK_ROWS, 40 - mtl.CHUNK_ROWS]


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
