"""The benchmark's tracer still finds every name it wraps in `src/`.

`bench/tracer.py` wraps module functions and `Tensor` ops at fixed names;
a refactor that moves or renames one breaks the benchmark. This runs in the
main suite so such a break shows without `python3 -m pytest bench`.
"""

import importlib.util
from pathlib import Path

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
