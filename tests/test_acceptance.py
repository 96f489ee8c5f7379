"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The full suite takes a few minutes; the heavy items (memorization, the
MTL-vs-baseline trend) are at the end.
"""

import itertools
import json
import time
from collections import Counter

import numpy as np

from offlang.cli import dispatch
from offlang.corpus import (
    ScoredExample,
    TaskLabelA,
    TaskLabelB,
    TaskLabelC,
    binarize,
    save_labeled,
    split,
)
from offlang.checkpoint import load_checkpoint, save_checkpoint
from offlang.encoder import EncoderConfig
from offlang.evaluation import macro_f1, majority_vote
from offlang.mtl import (
    HeadConfig,
    LossWeights,
    MtlModel,
    PredictionTriple,
    TASK_CLASSES,
    batch_targets,
)
from offlang.synth import make_hierarchical_corpus, make_scored_corpus
from offlang.textnorm import (
    NormalizedTweet,
    RawTweet,
    UnigramTable,
    bundled_emoji_table,
    bundled_unigram_table,
    normalize,
    segment_hashtag,
)
from offlang.tokenizer import build_vocab, encode_batch
from offlang.training import (
    Adam,
    EarlyStopper,
    TrainConfig,
    check_gradients,
    pretrain_regression,
    train,
    train_baseline,
    _minibatches,
)
from offlang.mtl import mtl_loss

from test_corpus import is_consistent
from test_evaluation import batch_of
from test_segmentation import brute_force_segment


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def train_accuracy(model, ids, mask, targets):
    """Per-task argmax accuracy over an encoded batch."""
    preds = model.forward_mtl(ids, mask)
    out = {}
    for task in ("a", "b", "c"):
        hit = sum(
            1
            for p, t in zip(preds, targets[task])
            if np.argmax(p.probs(task)) == t
        )
        out[task] = hit / len(preds)
    return out


def small_encoder(vocab_size, **overrides):
    base = dict(d_model=8, n_layers=1, n_heads=2, d_ffn=16, max_len=8,
                vocab_size=vocab_size, dropout_rate=0.0)
    base.update(overrides)
    return EncoderConfig(**base)


def test_01_gradient_exactness():
    examples = make_hierarchical_corpus(4, seed=1)
    vocab = build_vocab([e.tweet.text for e in examples])
    model = MtlModel(small_encoder(len(vocab)), HeadConfig(hidden=8), seed=1)
    assert model.n_params() <= 10_000
    start = time.time()
    error = check_gradients(model, examples, vocab, LossWeights(), epsilon=1e-4)
    elapsed = time.time() - start
    report(1, "gradient exactness", error <= 1e-3 and elapsed < 60,
           f"max_rel_err={error:.2e}, {model.n_params()} params, {elapsed:.0f}s")


def test_02_memorization():
    start = time.time()
    examples = make_hierarchical_corpus(64, seed=10)
    vocab = build_vocab([e.tweet.text for e in examples])
    cfg = small_encoder(len(vocab), d_model=32, d_ffn=64, max_len=10)
    model = MtlModel(cfg, HeadConfig(hidden=32), seed=10)
    ids, mask = encode_batch([e.tweet.text for e in examples], vocab, 10)
    targets, real = batch_targets(examples)
    weights = LossWeights(0.4, 0.3, 0.3)
    optimizer = Adam(model.params, 3e-3)
    rng = np.random.default_rng(10)
    memorized_at = None
    for epoch in range(1, 301):
        for batch in _minibatches(64, 32, rng):
            logits = model.logits_mtl(ids[batch], mask[batch])
            loss, _, _ = mtl_loss(logits, {t: targets[t][batch] for t in targets},
                                  weights, real[batch])
            model.zero_grad()
            loss.backward()
            optimizer.step()
        accuracy = train_accuracy(model, ids, mask, targets)
        if all(v == 1.0 for v in accuracy.values()):
            memorized_at = epoch
            break
    elapsed = time.time() - start
    report(2, "memorization", memorized_at is not None and elapsed < 300,
           f"100% on all tasks at epoch {memorized_at}, {elapsed:.0f}s")


def test_03_mtl_trend():
    examples = make_hierarchical_corpus(2000, seed=100, noise_a=0.15)
    train_ex, val_ex = split(examples, (0.8, 0.2), seed=100)
    vocab = build_vocab([e.tweet.text for e in train_ex])
    enc = small_encoder(len(vocab), d_model=32, d_ffn=64, max_len=10)
    mtl_scores, base_scores = [], []
    for seed in range(5):
        config = TrainConfig(learning_rate=2e-3, batch_size=64, max_epochs=4,
                             patience=4, seed=seed)
        model, history = train(
            MtlModel(enc, HeadConfig(hidden=32), seed=seed),
            vocab, train_ex, val_ex, config,
        )
        mtl_scores.append(max(history.val_f1["a"]))
        baseline, base_history = train_baseline(
            MtlModel(enc, HeadConfig(hidden=32), seed=seed),
            vocab, train_ex, val_ex, config,
        )
        base_scores.append(max(base_history.val_f1["a"]))
    mtl_mean, base_mean = np.mean(mtl_scores), np.mean(base_scores)
    report(3, "MTL trend", mtl_mean >= base_mean - 0.01,
           f"mean F1(A): mtl={mtl_mean:.4f} baseline={base_mean:.4f}")


def test_04_macro_f1_oracle():
    def brute(golds, preds, classes):
        f1s = []
        for c in classes:
            tp = sum(g == c and p == c for g, p in zip(golds, preds))
            fp = sum(g != c and p == c for g, p in zip(golds, preds))
            fn = sum(g == c and p != c for g, p in zip(golds, preds))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * precision * recall / (precision + recall)
                       if precision + recall else 0.0)
        return sum(f1s) / len(f1s)

    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        classes = [f"c{i}" for i in range(k)]
        n = int(rng.integers(1, 201))
        golds = [classes[i] for i in rng.integers(0, k, n)]
        preds = [classes[i] for i in rng.integers(0, k, n)]
        worst = max(worst, abs(macro_f1(golds, preds, classes)
                               - brute(golds, preds, classes)))
    hand = macro_f1(["OFF", "OFF", "NOT", "NOT"], ["OFF", "NOT", "NOT", "NOT"],
                    ["OFF", "NOT"])
    ok = worst <= 1e-12 and abs(hand - (2 / 3 + 4 / 5) / 2) < 1e-12
    report(4, "macro-F1 oracle", ok, f"max_diff={worst:.1e}, hand case={hand:.6f}")


def test_05_segmentation_oracle():
    vocab20 = UnigramTable({
        "this": 3228469771, "is": 4705743816, "a": 9081174698, "test": 187971480,
        "keith": 19184385, "ellison": 3878349, "abuse": 69641980, "maga": 1500000,
        "the": 23135851162, "cat": 9000000, "at": 1620850295, "on": 3750423199,
        "in": 8469404971, "sat": 2500000, "hat": 2200000, "an": 1011346347,
        "it": 2813163874, "his": 402346494, "to": 12136980858, "he": 495914991,
    })
    words = list(vocab20.counts)
    cases = set(words)
    for combo in itertools.product(words, repeat=2):
        s = "".join(combo)
        if len(s) <= 12:
            cases.add(s)
    rng = np.random.default_rng(50)
    for combo in itertools.product(words, repeat=3):
        s = "".join(combo)
        if len(s) <= 12 and rng.random() < 0.05:
            cases.add(s)
    letters = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(200):
        n = int(rng.integers(1, 13))
        cases.add("".join(letters[i] for i in rng.integers(0, 26, n)))

    mismatches = [
        s for s in sorted(cases)
        if segment_hashtag(s, vocab20) != " ".join(brute_force_segment(s, vocab20))
    ]
    camel = segment_hashtag("KeithEllisonAbuse", vocab20)
    ok = not mismatches and camel == "keith ellison abuse"
    report(5, "segmentation oracle", ok,
           f"{len(cases)} strings, {len(mismatches)} mismatches, "
           f"KeithEllisonAbuse -> {camel!r}")


def test_06_preprocessing_golden(tmp_path):
    emoji = bundled_emoji_table()
    unigrams = bundled_unigram_table()
    golden = [
        ("I \U0001F44D this", "i thumbs up this"),
        ("@USER @USER you did this", "@users you did this"),
        ("see URL for info", "see http for info"),
        ("@USER @USER URL #KeithEllisonAbuse", "@users http keith ellison abuse"),
    ]
    failures = []
    for raw, expected in golden:
        got = normalize(RawTweet(id="g", text=raw), emoji, unigrams).text
        if got != expected:
            failures.append((raw, got, expected))
    vocab = build_vocab(["w"])
    ids, mask = encode_batch([" ".join(["w"] * 100)], vocab, 64)
    truncated = ids.shape == (1, 64) and mask.sum() == 64
    report(6, "preprocessing golden suite", not failures and truncated,
           f"{len(golden)} transforms exact, truncation to 64")


def test_07_hierarchy_validation():
    accepted = {
        (a.value, b.value, c.value)
        for a, b, c in itertools.product(TaskLabelA, TaskLabelB, TaskLabelC)
        if is_consistent(a, b, c)
    }
    expected = {
        ("NOT", "NULL", "NULL"), ("OFF", "UNT", "NULL"),
        ("OFF", "TIN", "IND"), ("OFF", "TIN", "GRP"), ("OFF", "TIN", "OTH"),
    }
    report(7, "hierarchy validation", accepted == expected,
           f"{len(accepted)}/24 triples accepted")


def test_08_ensemble_oracle():
    def random_prediction(rng):
        def probs(k):
            p = rng.random(k) + 1e-6
            return p / p.sum()
        return PredictionTriple(probs(2), probs(3), probs(4))

    def brute(members, i, task):
        classes = TASK_CLASSES[task]
        counts = Counter(m[i].label(task) for m in members)
        top = max(counts.values())
        tied = [c for c in classes if counts.get(c, 0) == top]
        if len(tied) > 1:
            sums = {c: sum(m[i].probs(task)[classes.index(c)] for m in members)
                    for c in tied}
            best = max(sums.values())
            tied = [c for c in tied if sums[c] == best]
        return tied[0]

    rng = np.random.default_rng(80)
    mismatches = 0
    for trial in range(1000):
        k = [1, 3, 5, 7][trial % 4] if trial % 2 else int(rng.choice([2, 4, 6]))
        n = int(rng.integers(1, 4))
        members = [batch_of([random_prediction(rng) for _ in range(n)]) for _ in range(k)]
        for task in ("a", "b", "c"):
            got = majority_vote(members, task)
            want = [brute(members, i, task) for i in range(n)]
            mismatches += got != want
    report(8, "ensemble oracle", mismatches == 0,
           f"1000 random prediction sets, {mismatches} mismatches")


def test_09_early_stopping():
    rng = np.random.default_rng(90)
    checked = 0
    for _ in range(500):
        stopper = EarlyStopper(patience=3)
        for epoch in range(1, 30):
            if stopper.update(float(rng.integers(0, 8)) / 10, epoch):
                assert epoch - stopper.best_epoch == 3
                checked += 1
                break
    trace = EarlyStopper(patience=3)
    stops = [trace.update(f, e)
             for e, f in enumerate([0.5, 0.6, 0.6, 0.6, 0.6], start=1)]
    ok = checked > 400 and stops == [False] * 4 + [True] and trace.best_epoch == 2
    report(9, "early stopping", ok,
           f"{checked} stopping traces, gap == patience == 3")


def test_10_binarization():
    rng = np.random.default_rng(101)
    scored = [
        ScoredExample(tweet=NormalizedTweet(id=str(i), text="x", steps_applied=()),
                      avg_conf=float(s), std_conf=0.0)
        for i, s in enumerate(rng.random(300))
    ]
    monotone = True
    previous = None
    for threshold in np.linspace(0.02, 0.98, 25):
        off = {e.tweet.id for e in binarize(scored, threshold)
               if e.labels.a is TaskLabelA.OFF}
        if previous is not None and not off <= previous:
            monotone = False
        previous = off
    boundary = binarize(
        [ScoredExample(tweet=NormalizedTweet(id="b", text="x", steps_applied=()),
                       avg_conf=0.3, std_conf=0.0)], 0.3,
    )[0].labels.a is TaskLabelA.OFF
    report(10, "binarization", monotone and boundary,
           "monotone over 300 random scores; 0.3 @ 0.3 -> OFF")


def test_11_reproducibility(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "encoder": {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ffn": 32,
                    "max_len": 12, "dropout_rate": 0.1},
        "head": {"hidden": 16},
        "train": {"learning_rate": 3e-3, "batch_size": 16, "max_epochs": 2,
                  "patience": 3, "seed": 7},
    }), encoding="utf-8")
    raw = tmp_path / "raw.tsv"
    save_labeled(raw, make_hierarchical_corpus(24, seed=7))
    val = tmp_path / "val.tsv"
    save_labeled(val, make_hierarchical_corpus(12, seed=8))

    outputs = []
    for run in ("one", "two"):
        norm = tmp_path / f"norm_{run}.tsv"
        ckpt = tmp_path / f"model_{run}.ckpt"
        preds = tmp_path / f"preds_{run}.tsv"
        report_file = tmp_path / f"report_{run}.txt"
        assert dispatch(["preprocess", "--input", str(raw), "--output", str(norm)]) == 0
        assert dispatch(["train", "--config", str(config_path), "--train", str(norm),
                         "--val", str(val), "--out", str(ckpt)]) == 0
        assert dispatch(["evaluate", "--model", str(ckpt), "--data", str(val),
                         "--report", str(report_file)]) == 0
        assert dispatch(["ensemble", "--models", str(ckpt), "--data", str(val),
                         "--out", str(preds)]) == 0
        outputs.append((norm.read_bytes(),
                        (tmp_path / f"model_{run}.ckpt.metrics.txt").read_bytes(),
                        report_file.read_bytes(), preds.read_bytes()))
    byte_identical = outputs[0] == outputs[1]

    model, vocab, weights = load_checkpoint(tmp_path / "model_one.ckpt")
    roundtrip = tmp_path / "roundtrip.ckpt"
    save_checkpoint(roundtrip, model, vocab, weights)
    reloaded, _, _ = load_checkpoint(roundtrip)
    examples = make_hierarchical_corpus(12, seed=8)
    ids, mask = encode_batch([e.tweet.text for e in examples], vocab, 12)
    before = model.forward_mtl(ids, mask)
    after = reloaded.forward_mtl(ids, mask)
    same_preds = all(
        np.array_equal(x.probs_a, y.probs_a)
        and np.array_equal(x.probs_b, y.probs_b)
        and np.array_equal(x.probs_c, y.probs_c)
        for x, y in zip(before, after)
    )
    report(11, "reproducibility", byte_identical and same_preds,
           "two end-to-end runs byte-identical; checkpoint round-trip exact")


def test_12_regression_pretraining_smoke():
    scored = make_scored_corpus(500, seed=12)
    vocab = build_vocab([e.tweet.text for e in scored])
    enc = small_encoder(len(vocab), d_model=16, d_ffn=32, max_len=10)
    model = MtlModel(enc, HeadConfig(hidden=16), seed=12)
    config = TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=3,
                         seed=12)
    _, epoch_mse = pretrain_regression(model, vocab, scored, config)
    monotone = epoch_mse[0] > epoch_mse[1] > epoch_mse[2]
    report(12, "regression pre-training smoke", monotone,
           "epoch MSE " + " > ".join(f"{m:.5f}" for m in epoch_mse))
