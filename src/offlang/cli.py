"""Command-line entry point exposing the full pipeline as subcommands.

Exit codes: 0 success, 1 runtime failure, 2 usage error. All randomness
flows from the seed in the config file; every run that produces outputs
also writes the fully-resolved config next to them.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import typing

from . import checkpoint, corpus, evaluation, mtl, textnorm, tokenizer, training
from .encoder import EncoderConfig


def _encoder_section(config: EncoderConfig) -> dict:
    """`config` as the config file's encoder section: every field but
    vocab_size, which the vocabulary sets."""
    section = config.to_dict()
    del section["vocab_size"]
    return section


# each section's defaults, read from the dataclass or function it configures;
# the JSON round trip makes them JSON values (lists, not tuples)
DEFAULT_CONFIG = json.loads(json.dumps({
    "encoder": _encoder_section(EncoderConfig()),
    "head": mtl.HeadConfig().to_dict(),
    "train": training.TrainConfig().to_dict(),
    "vocab": {name: p.default
              for name, p in inspect.signature(tokenizer.build_vocab).parameters.items()
              if p.default is not p.empty},
}))


# each section's keys and their types, from the same owners
CONFIG_FIELDS = {
    section: {name: typing.get_type_hints(owner)[name] for name in DEFAULT_CONFIG[section]}
    for section, owner in (("encoder", EncoderConfig), ("head", mtl.HeadConfig),
                           ("train", training.TrainConfig),
                           ("vocab", tokenizer.build_vocab))
}


def load_config(path: str | None) -> dict:
    """DEFAULT_CONFIG with the sections of the JSON file at `path` merged
    in, key by key. A file that is not a JSON object of known sections, or
    a key or value that does not fit its section, raises one ValueError."""
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        with open(path, encoding="utf-8") as handle:
            overrides = json.load(handle)
        if not isinstance(overrides, dict) or not set(overrides) <= set(config):
            raise ValueError(f"config {path} must be a JSON object with sections "
                             f"from {sorted(config)}")
        for section, values in overrides.items():
            if not isinstance(values, dict):
                raise ValueError(f"config section {section!r} must be a JSON object")
            config[section].update(values)
    for section, hints in CONFIG_FIELDS.items():
        checkpoint.check_section(config[section], hints, f"config section {section!r}")
    return config


def _norm_context(args) -> corpus.NormContext:
    emoji = (
        textnorm.EmojiTable.load(args.emoji)
        if getattr(args, "emoji", None)
        else textnorm.bundled_emoji_table()
    )
    unigrams = (
        textnorm.UnigramTable.load(args.unigrams)
        if getattr(args, "unigrams", None)
        else textnorm.bundled_unigram_table()
    )
    return corpus.NormContext(emoji=emoji, unigrams=unigrams)


def _train_config(config: dict) -> training.TrainConfig:
    section = dict(config["train"])
    section["loss_weights"] = mtl.LossWeights(*section["loss_weights"])
    return training.TrainConfig(**section)


def _build_model(config: dict, vocab_size: int, seed: int) -> mtl.MtlModel:
    enc = EncoderConfig(vocab_size=vocab_size, **config["encoder"])
    return mtl.MtlModel(enc, mtl.HeadConfig(**config["head"]), seed=seed)


def _echo_config(config: dict, out_path: str) -> None:
    with open(out_path + ".config.json", "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


# -- subcommands ----------------------------------------------------------------


def cmd_preprocess(args) -> int:
    context = _norm_context(args)
    examples = corpus.load_labeled(args.input, context)
    corpus.save_labeled(args.output, examples)
    print(f"preprocessed {len(examples)} tweets -> {args.output}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    context = _norm_context(args)
    train_examples = corpus.load_labeled(args.train, context)
    val_examples = corpus.load_labeled(args.val, context)
    train_cfg = _train_config(config)
    print("train: " + json.dumps(train_cfg.to_dict(), sort_keys=True))
    if args.init_from:
        model, vocab, _ = checkpoint.load_checkpoint(args.init_from)
        # echo the architecture that is trained, not the config's
        config["encoder"] = _encoder_section(model.encoder_config)
        config["head"] = model.head_config.to_dict()
        print(f"vocabulary and architecture from {args.init_from}")
    else:
        vocab = tokenizer.build_vocab([ex.tweet.text for ex in train_examples],
                                      **config["vocab"])
        model = _build_model(config, len(vocab), train_cfg.seed)
    model, history = training.train(model, vocab, train_examples, val_examples,
                                    train_cfg)
    checkpoint.save_checkpoint(args.out, model, vocab, train_cfg.loss_weights)
    _write_lines(args.out + ".metrics.txt", history.to_lines())
    _echo_config(config, args.out)
    print(f"best_epoch={history.best_epoch} stopped_epoch={history.stopped_epoch} "
          f"best_val_f1_a={max(history.val_f1['a']):.4f}")
    return 0


def cmd_pretrain(args) -> int:
    config = load_config(args.config)
    context = _norm_context(args)
    scored = corpus.load_scored(args.scored, context)
    vocab = tokenizer.build_vocab([ex.tweet.text for ex in scored], **config["vocab"])
    train_cfg = _train_config(config)
    model = _build_model(config, len(vocab), train_cfg.seed)
    model, epoch_mse = training.pretrain_regression(model, vocab, scored, train_cfg)
    checkpoint.save_checkpoint(args.out, model, vocab, train_cfg.loss_weights)
    _write_lines(args.out + ".metrics.txt",
                 [f"{i + 1}\t{mse:.6f}" for i, mse in enumerate(epoch_mse)])
    _echo_config(config, args.out)
    print(f"pretrained {len(scored)} scored examples, "
          f"final_mse={epoch_mse[-1]:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    model, vocab, _ = checkpoint.load_checkpoint(args.model)
    context = _norm_context(args)
    examples = corpus.load_labeled(args.data, context)
    report = evaluation.evaluate(model, vocab, examples)
    _write_lines(args.report, report.to_lines())
    print(f"macro_f1_a={report.tasks['a'].macro_f1:.6f}")
    return 0


def cmd_predict(args) -> int:
    model, vocab, _ = checkpoint.load_checkpoint(args.model)
    context = _norm_context(args)
    pred = mtl.predict(model, vocab, context, args.text)
    print("\t".join(pred.label(task) for task in mtl.TASKS))
    return 0


def cmd_ensemble(args) -> int:
    paths = args.models.split(",")
    context = _norm_context(args)
    members = []
    vocab = None
    examples = None
    for path in paths:
        model, member_vocab, _ = checkpoint.load_checkpoint(path)
        if vocab is None:
            vocab = member_vocab
            examples = corpus.load_labeled(args.data, context)
            if not examples:
                raise ValueError("cannot evaluate an empty corpus")
        elif member_vocab.token_to_id != vocab.token_to_id:
            raise ValueError("ensemble members must share one vocabulary")
        # each member reads the data at its own max_len
        ids, mask = tokenizer.encode_batch(
            [ex.tweet.text for ex in examples], vocab, model.encoder_config.max_len)
        members.append(model.forward_mtl(ids, mask))
    triples = evaluation.vote_triples(members)
    lines = [
        f"{ex.tweet.id}\t{a}\t{b}\t{c}"
        for ex, (a, b, c) in zip(examples, triples)
    ]
    _write_lines(args.out, lines)
    golds = [ex.labels.a.value for ex in examples]
    f1 = evaluation.macro_f1(golds, [t[0] for t in triples], mtl.TASK_CLASSES["a"])
    print(f"ensemble of {len(paths)}: macro_f1_a={f1:.6f}")
    return 0


GRADCHECK_CONFIG = {
    "encoder": {"d_model": 8, "n_layers": 1, "n_heads": 2, "d_ffn": 16,
                "max_len": 8, "dropout_rate": 0.0},
    "head": {"hidden": 8},
}


def cmd_gradcheck(args) -> int:
    config = load_config(args.config)
    if args.config is None:
        # finite differences over every parameter; only tractable tiny
        for section, values in GRADCHECK_CONFIG.items():
            config[section].update(values)
    from .synth import make_hierarchical_corpus

    examples = make_hierarchical_corpus(args.batch, seed=config["train"]["seed"])
    weights = mtl.LossWeights(*config["train"]["loss_weights"])
    vocab = tokenizer.build_vocab([ex.tweet.text for ex in examples], **config["vocab"])
    model = _build_model(config, len(vocab), config["train"]["seed"])
    error = training.check_gradients(model, examples, vocab, weights,
                                     epsilon=args.epsilon)
    ok = error <= 1e-3
    print(f"params={model.n_params()} max_relative_error={error:.3e} "
          f"{'PASS' if ok else 'FAIL'} (tolerance 1e-3)")
    return 0 if ok else 1


def cmd_threshold_search(args) -> int:
    context = _norm_context(args)
    scored = corpus.load_scored(args.scored, context)
    labeled = corpus.load_labeled(args.labels, context)
    by_id = {ex.tweet.id: ex.labels.a.value for ex in labeled}
    missing = [ex.tweet.id for ex in scored if ex.tweet.id not in by_id]
    if missing:
        raise ValueError(f"{len(missing)} scored ids have no label in {args.labels}, "
                         f"e.g. {missing[0]!r}")
    golds = [by_id[ex.tweet.id] for ex in scored]
    grid = [float(x) for x in args.grid.split(",")]
    best, degenerate = evaluation.threshold_search(scored, golds, grid)
    suffix = " (degenerate: constant F1 across grid)" if degenerate else ""
    print(f"best_threshold={best}{suffix}")
    return 0


# -- dispatch --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offlang",
        description="Hierarchical multi-task offensive-language pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def norm_flags(p):
        p.add_argument("--emoji", help="emoji table TSV (default: bundled)")
        p.add_argument("--unigrams", help="unigram table TSV (default: bundled)")

    p = sub.add_parser("preprocess", help="normalize a labeled TSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    norm_flags(p)
    p.set_defaults(handler=cmd_preprocess)

    p = sub.add_parser("train", help="train the MTL model")
    p.add_argument("--config")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init-from", help="warm-start checkpoint (e.g. pretrained)")
    norm_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("pretrain", help="MSE regression pre-training on scores")
    p.add_argument("--config")
    p.add_argument("--scored", required=True)
    p.add_argument("--out", required=True)
    norm_flags(p)
    p.set_defaults(handler=cmd_pretrain)

    p = sub.add_parser("evaluate", help="macro-F1 report on a labeled TSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    norm_flags(p)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("predict", help="classify one text")
    p.add_argument("--model", required=True)
    p.add_argument("--text", required=True)
    norm_flags(p)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("ensemble", help="majority-vote over member checkpoints")
    p.add_argument("--models", required=True, help="comma-separated checkpoints")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    norm_flags(p)
    p.set_defaults(handler=cmd_ensemble)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--config")
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--batch", type=int, default=4)
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("threshold-search", help="grid-search the score threshold")
    p.add_argument("--scored", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--grid", default=",".join(f"{x / 10:.1f}" for x in range(1, 10)))
    norm_flags(p)
    p.set_defaults(handler=cmd_threshold_search)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (OSError, ValueError, RuntimeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
