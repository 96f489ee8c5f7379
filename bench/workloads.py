"""The benchmark workloads and the session they share.

Every workload drives the public offlang API the way the CLI does: set-up
writes the generated tweets to TSVs, loads them through
`corpus.load_labeled`, builds the vocabulary and the CLI's default model,
and saves and reloads it as a checkpoint. A workload then measures only
its own path: `training.train` on `train_short` and `train_long`; on
`infer`, `offlang evaluate` (`corpus.load_labeled` on a TSV plus one
`evaluation.evaluate` call) and a closed loop of one client calling
`mtl.predict` on raw tweets. Every output is checked, and a failed check
counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import statistics
import time
from pathlib import Path
from typing import Callable

import numpy as np

from offlang import checkpoint, cli, corpus, evaluation, mtl, textnorm, tokenizer, training
from offlang.encoder import EncoderConfig

import inputs
from tracer import Tracer, layer_metrics

EPOCHS = 3
MIN_TRAIN_CALLS = 2          # the parameter digests of two calls are compared
MIN_EVALUATE_CALLS = 3
MIN_PREDICT_REQUESTS = 200   # at least 10 requests beyond p95
SETUP_REPEATS = 15
PROB_TOLERANCE = 1e-9


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    max_len: int
    make_inputs: Callable[[int, inputs.Decorations], inputs.Splits]
    phases: tuple[str, ...]     # the measured phases, run in plain alternation
    unit: str                   # per-layer metrics are given per this unit


WORKLOADS = {
    w.name: w for w in (
        Workload("train_short", 16, inputs.train_short, ("train",), "step"),
        Workload("train_long", 64, inputs.train_long, ("train",), "step"),
        Workload("infer", 64, inputs.infer, ("evaluate", "predict"), "tweet"),
    )
}


@dataclasses.dataclass
class Session:
    workload: Workload
    seed: int
    context: corpus.NormContext
    train: list
    val: list                   # empty on infer
    vocab: tokenizer.Vocabulary
    model: mtl.MtlModel         # as loaded from the checkpoint
    train_config: training.TrainConfig
    eval_tsv: Path | None       # infer only
    eval_n: int                 # tweets in the evaluate set; infer only
    pool: list[str]             # raw tweets for the predict loop; infer only


def setup(workload: Workload, seed: int, workdir: Path) -> Session:
    """Build inputs, tables, vocabulary and model, then save and reload it."""
    context = corpus.NormContext(emoji=textnorm.bundled_emoji_table(),
                                 unigrams=textnorm.bundled_unigram_table())
    splits = workload.make_inputs(seed, inputs.Decorations(context.emoji, context.unigrams))
    paths = {name: workdir / f"{name}.tsv" for name in ("train", "val", "eval") if name in splits}
    for name, path in paths.items():
        corpus.save_labeled(path, splits[name])
    train = corpus.load_labeled(paths["train"], context)
    val = corpus.load_labeled(paths["val"], context) if "val" in paths else []
    vocab = tokenizer.build_vocab([ex.tweet.text for ex in train])

    defaults = cli.DEFAULT_CONFIG
    encoder_config = EncoderConfig(
        vocab_size=len(vocab), **{**defaults["encoder"], "max_len": workload.max_len})
    head_config = mtl.HeadConfig(**defaults["head"])
    train_section = {**defaults["train"], "max_epochs": EPOCHS,
                     "patience": EPOCHS, "seed": seed}
    train_section["loss_weights"] = mtl.LossWeights(*train_section["loss_weights"])
    train_config = training.TrainConfig(**train_section)

    model = mtl.MtlModel(encoder_config, head_config, seed=seed)
    ckpt = workdir / "model.ckpt"
    checkpoint.save_checkpoint(ckpt, model, vocab, train_config.loss_weights)
    model, vocab, _ = checkpoint.load_checkpoint(ckpt)
    return Session(workload, seed, context, train, val, vocab, model, train_config,
                   paths.get("eval"), len(splits.get("eval", [])),
                   [ex.tweet.text for ex in splits.get("predict", [])])


def param_digest(model: mtl.MtlModel) -> str:
    digest = hashlib.sha256()
    for name in sorted(model.params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(model.params[name].data).tobytes())
    return digest.hexdigest()[:16]


# -- operations ----------------------------------------------------------------


def train_once(s: Session) -> dict:
    """One `training.train` call from the seeded initial model."""
    model = mtl.MtlModel(s.model.encoder_config, s.model.head_config, seed=s.seed)
    steps = math.ceil(len(s.train) / s.train_config.batch_size) * EPOCHS
    start = time.perf_counter()
    try:
        model, history = training.train(model, s.vocab, s.train, s.val, s.train_config)
    except training.NonFiniteLossError as err:
        return {"wall": time.perf_counter() - start, "steps": steps, "ok": False,
                "error": str(err), "loss": [], "digest": None, "examples": 0}
    wall = time.perf_counter() - start
    loss = history.train_loss
    ok = (history.stopped_epoch == EPOCHS
          and all(math.isfinite(x) for x in loss) and loss[-1] < loss[0])
    return {"wall": wall, "steps": steps, "ok": ok, "loss": loss,
            "digest": param_digest(model),
            "examples": len(s.train) * history.stopped_epoch}


def evaluate_once(s: Session) -> dict:
    """`offlang evaluate`: read and normalize the TSV, then one evaluate call."""
    start = time.perf_counter()
    examples = corpus.load_labeled(s.eval_tsv, s.context)
    report = evaluation.evaluate(s.model, s.vocab, examples)
    wall = time.perf_counter() - start
    ok = all(int(r.confusion.sum()) == len(examples) for r in report.tasks.values())
    return {"wall": wall, "n": len(examples), "ok": ok, "lines": report.to_lines()}


def predict_once(s: Session, index: int) -> tuple:
    """One request of a closed loop with one client: the next request is
    sent when this one returns. Returns (pool index, seconds, prediction)."""
    start = time.perf_counter()
    pred = mtl.predict(s.model, s.vocab, s.context, s.pool[index])
    return index, time.perf_counter() - start, pred


def warm_up(s: Session) -> None:
    """Fill allocator and BLAS state on the workload's own path before
    anything is timed."""
    if "train" in s.workload.phases:
        config = dataclasses.replace(s.train_config, max_epochs=1, patience=1)
        model = mtl.MtlModel(s.model.encoder_config, s.model.head_config, seed=s.seed)
        training.train(model, s.vocab, s.train[:32], s.val[:8], config)
    if "evaluate" in s.workload.phases:
        evaluate_once(s)
    for text in s.pool[:8]:
        mtl.predict(s.model, s.vocab, s.context, text)


def cycle(s: Session, order, first_request: int, tracer: Tracer | None = None) -> dict:
    """One call of each measured phase, in turn, each inside a
    `bench.<phase>` span if traced. On infer the predict phase is as many
    requests as the evaluate set has tweets, so each cycle sends the same
    number of tweets down both paths."""
    calls = {
        "train": lambda: [train_once(s)],
        "evaluate": lambda: [evaluate_once(s)],
        "predict": lambda: [predict_once(s, int(order[(first_request + i) % len(order)]))
                            for i in range(s.eval_n)],
    }
    out = {}
    for phase in s.workload.phases:
        with tracer.phase(phase) if tracer else contextlib.nullcontext():
            out[phase] = calls[phase]()
    return out


# -- checks ----------------------------------------------------------------------


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = dataclasses.field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def check_train(runs: list[dict], tally: Tally) -> None:
    """Finite, falling losses; identical parameters from identical seeds."""
    first = runs[0]["digest"]
    for run in runs:
        ok = run["ok"] and run["digest"] == first
        tally.add(run["steps"], 0 if ok else run["steps"],
                  f"train: ok={run['ok']} loss={run['loss']} digest={run['digest']}")


def check_evaluate(runs: list[dict], tally: Tally) -> None:
    """Confusion matrices sum to N; every call gives the same report."""
    for run in runs:
        ok = run["ok"] and run["lines"] == runs[0]["lines"]
        tally.add(1, 0 if ok else 1, "evaluate: bad confusion sums or differing report")


def check_predict(s: Session, requests: list[tuple], tally: Tally) -> None:
    """Each prediction matches the batched forward on the same normalized
    text: same labels, probabilities within PROB_TOLERANCE."""
    used = sorted({index for index, _, _ in requests})
    texts = [s.context.normalize(textnorm.RawTweet(id="query", text=s.pool[i])).text
             for i in used]
    reference = {}
    for start in range(0, len(used), 64):
        ids, mask = tokenizer.encode_batch(texts[start:start + 64], s.vocab,
                                           s.model.encoder_config.max_len)
        for index, triple in zip(used[start:start + 64], s.model.forward_mtl(ids, mask)):
            reference[index] = triple
    bad = 0
    for index, _, pred in requests:
        ref = reference[index]
        for task in mtl.TASKS:
            if (pred.label(task) != ref.label(task)
                    or np.max(np.abs(pred.probs(task) - ref.probs(task))) > PROB_TOLERANCE):
                bad += 1
                break
    tally.add(len(requests), bad, f"predict: {bad} results differ from the batched forward")


# -- runs ------------------------------------------------------------------------


def run_untraced(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Set up, warm up, then run cycles of the measured phases for
    `seconds`, and until each phase has its minimum count. One more set-up,
    timed and thrown away, starts each cycle until there are
    SETUP_REPEATS, so set-up time is sampled across the run too. Returns
    the end-to-end metric values plus what the record keeps."""
    def timed_setup(directory):
        start = time.perf_counter()
        session = setup(workload, seed, directory)
        return time.perf_counter() - start, session

    first_setup_s, s = timed_setup(workdir)
    warm_up(s)
    (workdir / "again").mkdir()
    order = np.random.default_rng(seed).permutation(len(s.pool))
    setup_s = [first_setup_s]
    runs: dict[str, list] = {"train": [], "evaluate": [], "predict": []}
    minimum = {"train": MIN_TRAIN_CALLS, "evaluate": MIN_EVALUATE_CALLS,
               "predict": MIN_PREDICT_REQUESTS}
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or any(len(runs[p]) < minimum[p] for p in workload.phases)):
        if len(setup_s) < SETUP_REPEATS:
            setup_s.append(timed_setup(workdir / "again")[0])
        for phase, results in cycle(s, order, len(runs["predict"])).items():
            runs[phase] += results
    while len(setup_s) < SETUP_REPEATS:
        setup_s.append(timed_setup(workdir / "again")[0])

    tally = Tally()
    if "train" in workload.phases:
        trains = runs["train"]
        check_train(trains, tally)
        # the user of a training workload waits for one `training.train` call
        examples_per_s = statistics.median(r["examples"] / r["wall"] for r in trains)
        latency_ms = np.array([r["wall"] for r in trains]) * 1e3
        path_metrics = {"train.examples_per_s": examples_per_s}
    else:
        check_evaluate(runs["evaluate"], tally)
        check_predict(s, runs["predict"], tally)
        examples_per_s = statistics.median(r["n"] / r["wall"] for r in runs["evaluate"])
        latency_ms = np.array([sec for _, sec, _ in runs["predict"]]) * 1e3
        path_metrics = {"evaluate.examples_per_s": examples_per_s,
                       "predict.ms_p50": float(np.percentile(latency_ms, 50)),
                       "predict.ms_p95": float(np.percentile(latency_ms, 95))}
    metrics = {
        "setup_s": statistics.median(setup_s),
        "examples_per_s": examples_per_s,
        "latency_ms_p50": float(np.percentile(latency_ms, 50)),
        "latency_ms_p95": float(np.percentile(latency_ms, 95)),
    }
    record = {"samples": {"setup": len(setup_s), "latency": len(latency_ms),
                          **{f"{p}_calls": len(runs[p]) for p in workload.phases}},
              "path_metrics": path_metrics,
              "setup_s": setup_s}
    if "train" in workload.phases:
        record.update(loss_history=runs["train"][0]["loss"],
                      param_digest=runs["train"][0]["digest"],
                      train_wall_s=[r["wall"] for r in runs["train"]])
    else:
        record["evaluate_wall_s"] = [r["wall"] for r in runs["evaluate"]]
    return {"metrics": metrics, "tally": tally, **record}


def _traced_cycle(workload: Workload, seed: int, workdir: Path, ops: bool):
    """Set-up and one cycle under a new tracer; returns the tracer, the
    cycle's results, the cycle's wall time and the session."""
    tracer = Tracer()
    with tracer.installed(ops=ops):
        with tracer.phase("setup"):
            s = setup(workload, seed, workdir)
        order = np.random.default_rng(seed).permutation(len(s.pool))
        start = time.perf_counter()
        results = cycle(s, order, 0, tracer)
        return tracer, results, time.perf_counter() - start, s


def run_traced(workload: Workload, seed: int, workdir: Path) -> dict:
    """One untraced cycle, then set-up and the same cycle traced twice: once
    with module spans only, which give the layer self times, and once with
    every op wrapped too, which gives the op times and op counters. The
    difference between a traced cycle and the untraced one is that
    tracing's overhead."""
    s = setup(workload, seed, workdir)
    warm_up(s)
    order = np.random.default_rng(seed).permutation(len(s.pool))
    start = time.perf_counter()
    plain = cycle(s, order, 0)
    plain_s = time.perf_counter() - start

    layers, layer_runs, layers_s, _ = _traced_cycle(workload, seed, workdir, ops=False)
    ops, op_runs, ops_s, s = _traced_cycle(workload, seed, workdir, ops=True)

    # the same checks, across all three cycles: tracing must not change results
    tally = Tally()
    runs = [plain, layer_runs, op_runs]
    if "train" in workload.phases:
        check_train([r["train"][0] for r in runs], tally)
        units = plain["train"][0]["steps"]
    else:
        check_evaluate([r["evaluate"][0] for r in runs], tally)
        check_predict(s, [q for r in runs for q in r["predict"]], tally)
        units = plain["evaluate"][0]["n"] + len(plain["predict"])
    record = {}
    if "train" in workload.phases:
        record = {"loss_history": op_runs["train"][0]["loss"],
                  "param_digest": op_runs["train"][0]["digest"]}
    return {
        "layers": layers,
        "ops": ops,
        "units": units,
        "tally": tally,
        "untraced_cycle_s": plain_s,
        "layers_cycle_s": layers_s,
        "ops_cycle_s": ops_s,
        "overhead_pct": 100.0 * (layers_s - plain_s) / plain_s,
        "op_overhead_pct": 100.0 * (ops_s - plain_s) / plain_s,
        **record,
    }


def layer_values(traced: dict, names: list[str], phases) -> dict[str, float]:
    """Every per-layer metric of a traced run. Op spans and op counters come
    from the cycle with ops wrapped, everything else from the cycle with
    module spans only; both per unit of work in the measured phases.
    `checkpoint.load_checkpoint` runs only in set-up, and is given per
    set-up."""
    op_names = [n for n in names if n.startswith("autodiff.op.") or n == "autodiff.graph_nodes"]
    values = layer_metrics(traced["ops"], op_names, phases, traced["units"])
    values.update(layer_metrics(traced["layers"], [n for n in names if n not in op_names],
                                phases, traced["units"]))
    values.update(layer_metrics(traced["layers"], ["checkpoint.load_checkpoint.self_ms"],
                                ("setup",), 1))
    values["trace.overhead_pct"] = traced["overhead_pct"]
    values["trace.op_overhead_pct"] = traced["op_overhead_pct"]
    return values
