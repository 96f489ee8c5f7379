"""Ensemble voting and confidence-threshold binarization.

Trains five models that differ only in their random seed, combines their
predictions by majority vote, then shows how the threshold that turns
crowd confidence scores into OFF/NOT labels is picked by grid search.
Each member's predictions are one `forward_mtl` batch: per-task (N, C)
probability arrays, voted on per task without splitting them into rows.
"""

import numpy as np

from offlang.corpus import TaskLabelA, binarize, split
from offlang.encoder import EncoderConfig
from offlang.evaluation import macro_f1, majority_vote, threshold_search
from offlang.mtl import HeadConfig, MtlModel
from offlang.synth import make_hierarchical_corpus, make_scored_corpus
from offlang.tokenizer import build_vocab, encode_batch
from offlang.training import TrainConfig, train

examples = make_hierarchical_corpus(600, seed=4, noise_a=0.2)
train_ex, val_ex = split(examples, (0.8, 0.2), seed=4)
vocab = build_vocab([e.tweet.text for e in train_ex])
encoder = EncoderConfig(d_model=32, n_layers=1, n_heads=2, d_ffn=64,
                        max_len=10, vocab_size=len(vocab), dropout_rate=0.0)

ids, mask = encode_batch([e.tweet.text for e in val_ex], vocab, 10)
golds = [e.labels.a.value for e in val_ex]
members = []
for seed in range(5):
    config = TrainConfig(learning_rate=2e-3, batch_size=32, max_epochs=4,
                         patience=4, seed=seed)
    model, _ = train(MtlModel(encoder, HeadConfig(hidden=32), seed=seed),
                     vocab, train_ex, val_ex, config)
    preds = model.forward_mtl(ids, mask)  # (N, C) probabilities per task
    members.append(preds)
    solo = macro_f1(golds, preds.label("a"), ["OFF", "NOT"])
    print(f"member seed={seed}: macro-F1(A) = {solo:.4f}")

voted = majority_vote(members, "a")
print(f"5-member vote:  macro-F1(A) = {macro_f1(golds, voted, ['OFF', 'NOT']):.4f}")

# Threshold search: crowd scores above the threshold become OFF. The grid
# winner is the threshold whose binarized labels best match the gold ones.
scored = make_scored_corpus(400, seed=4)
score_golds = ["OFF" if ex.avg_conf >= 0.45 else "NOT" for ex in scored]
grid = [round(t, 1) for t in np.arange(0.1, 1.0, 0.1)]
best, degenerate = threshold_search(scored, score_golds, grid)
print(f"\nbest threshold on the grid: {best}"
      + (" (degenerate: one class empty)" if degenerate else ""))
labeled = binarize(scored, best)
off = sum(ex.labels.a is TaskLabelA.OFF for ex in labeled)
print(f"binarize at {best}: {off}/{len(labeled)} labeled OFF, "
      "B/C carry placeholders and are flagged synthetic")
