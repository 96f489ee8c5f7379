"""The benchmark's tracer still finds every name it wraps in `src/`, and a
tiny run still calls each module target through it.

`bench/tracer.py` wraps module functions and `Tensor` ops at fixed names;
a refactor that moves or renames one breaks the benchmark, and one that
stops calling a wrapped name zeroes its per-layer metric. This runs in the
main suite so such a break shows without `python3 -m pytest bench`.
"""

import importlib.util
import json
from pathlib import Path

from offlang.cli import GRADCHECK_CONFIG, dispatch

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_wrapped_and_restored():
    tracer = load_tracer()
    targets = [(owner, attr) for owner, attr, *_ in tracer.SPAN_TARGETS + tracer.OP_TARGETS]
    originals = [vars(owner)[attr] for owner, attr in targets]
    with tracer.Tracer().installed(ops=True):
        for owner, attr in targets:
            assert getattr(vars(owner)[attr], tracer._MARK, False), (owner, attr)
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner)[attr] is original, (owner, attr)


def test_a_tiny_run_enters_every_span(tmp_path, capsys):
    """Training, evaluation, prediction and a checkpoint's save and load on
    tweets with hashtags and emoji reach every module target, so a refactor
    that stops calling a wrapped name fails here, not as a per-layer metric
    that reads zero."""
    tracer = load_tracer()
    rows = [("MondayMood", "fool", "OFF\tTIN\tIND"), ("lovelife", "star", "NOT\tNULL\tNULL"),
            ("StopHate", "idiot", "OFF\tUNT\tNULL"), ("goodmorning", "pal", "NOT\tNULL\tNULL")]
    data = tmp_path / "data.tsv"
    data.write_text("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n" + "".join(
        f"{i}\t@USER #{tag} you {word} \U0001F600\t{labels}\n"
        for i, (tag, word, labels) in enumerate(rows * 2)), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**GRADCHECK_CONFIG, "train": {"max_epochs": 1}}),
                      encoding="utf-8")
    ckpt = str(tmp_path / "m.ckpt")
    trace = tracer.Tracer()
    with trace.installed(ops=False):
        assert dispatch(["train", "--config", str(config), "--train", str(data),
                         "--val", str(data), "--out", ckpt]) == 0
        assert dispatch(["evaluate", "--model", ckpt, "--data", str(data),
                         "--report", str(tmp_path / "report.txt")]) == 0
        assert dispatch(["predict", "--model", ckpt, "--text", "#GoodVibes \U0001F600"]) == 0
    entered = set(trace.names)
    assert [name for *_, name, _ in tracer.SPAN_TARGETS if name not in entered] == []
