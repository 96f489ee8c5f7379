"""Train a tiny multi-task model on a synthetic corpus and evaluate it.

The synthetic generator plants category indicator words, so a small
encoder memorizes the mapping quickly. Watch the per-epoch validation
macro-F1 on sub-task A and the early-stopping bookkeeping.
"""

from offlang.corpus import split
from offlang.encoder import EncoderConfig
from offlang.evaluation import evaluate
from offlang.mtl import HeadConfig, MtlModel
from offlang.synth import make_hierarchical_corpus
from offlang.tokenizer import build_vocab
from offlang.training import TrainConfig, train

examples = make_hierarchical_corpus(400, seed=3, noise_a=0.05)
train_ex, val_ex = split(examples, (0.8, 0.2), seed=3)
vocab = build_vocab([e.tweet.text for e in train_ex])
print(f"{len(train_ex)} train / {len(val_ex)} val examples, vocab={len(vocab)}")

encoder = EncoderConfig(d_model=32, n_layers=1, n_heads=2, d_ffn=64,
                        max_len=10, vocab_size=len(vocab), dropout_rate=0.0)
model = MtlModel(encoder, HeadConfig(hidden=32), seed=3)
config = TrainConfig(learning_rate=2e-3, batch_size=32, max_epochs=10,
                     patience=3, seed=3)

model, history = train(model, vocab, train_ex, val_ex, config)
for i, loss in enumerate(history.train_loss, start=1):
    f1s = " ".join(f"F1({t})={history.val_f1[t][i - 1]:.3f}" for t in ("a", "b", "c"))
    print(f"epoch {i:2d}  loss={loss:.4f}  {f1s}")
print(f"best epoch {history.best_epoch}, stopped at {history.stopped_epoch}")

report = evaluate(model, vocab, val_ex)
print()
for line in report.to_lines():
    print(line)
