"""Seeded runs give the same bytes: the benchmark's training, `evaluate` and
`predict` outputs and the checkpoint members of one trained model, pinned as
digests, and the line the default `offlang gradcheck` prints.

The pins hold for one environment, recorded in ENVIRONMENT, at one BLAS
thread: OpenBLAS orders a product's sums by its thread count and picks its
kernels per CPU. On another environment the test fails and says that the
environment differs; it does not pass. A change that moves these bytes on
purpose updates the pins in the same commit and states the tolerance of
its differential tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Python, NumPy and the BLAS that `bench/run.py`'s `blas_info` reports
ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6",
               "blas": {"name": "scipy-openblas", "version": "0.3.31.188.0", "threads": 1}}

# workload -> the digest for seeds 1 and 2
PINNED = {
    "train_short": ["2ec0fc200f2026c5", "073b99adab6b61a3"],
    "train_long": ["9e8583f70034ed7d", "d3d0df750119444e"],
    "infer_report": ["533d267f4c1c7e04", "f1f3cf7119a45a23"],
    "infer_predict": ["d3818e29ad543e50", "1599df8c45214a37"],
}
SEEDS = (1, 2)
PREDICTIONS = 50
# the sha256 of each member `checkpoint.save_checkpoint` writes for the
# seed-1 train_short model after `train_once`
CHECKPOINT_MEMBERS = {
    "params.npy": "fa91d000de4ae4ccc304211af7cd848e8f987687f0ac29490bb7e2848b35c647",
    "meta.npy": "321b312560782cbf8a5ad11176f7ce2a8690333e69f3e886244e59ba55344ee8",
}
GRADCHECK_LINE = "params=2625 max_relative_error=9.763e-05 PASS (tolerance 1e-3)"

# run in a fresh process, so that the BLAS thread count is set before NumPy loads
SCRIPT = """
import contextlib, hashlib, io, json, platform, sys, tempfile, zipfile
from pathlib import Path

root, seeds, predictions = Path(sys.argv[1]), json.loads(sys.argv[2]), int(sys.argv[3])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import numpy as np
import run, workloads
from offlang import checkpoint, cli, training

trained, train = [], training.train


def keep_trained(*args, **kwargs):
    # training.train, keeping the (model, history) that train_once drops
    trained.append(train(*args, **kwargs))
    return trained[-1]


training.train = keep_trained


def sha(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()[:16]


digests = {key: [] for key in ("train_short", "train_long", "infer_report", "infer_predict")}
for seed in seeds:
    for name in ("train_short", "train_long", "infer"):
        with tempfile.TemporaryDirectory() as workdir:
            s = workloads.setup(workloads.WORKLOADS[name], seed, Path(workdir))
            if name != "infer":
                digests[name].append(workloads.train_once(s)["digest"])
                if (name, seed) == ("train_short", 1):
                    path = Path(workdir) / "trained.ckpt"
                    checkpoint.save_checkpoint(path, trained[-1][0], s.vocab,
                                               s.train_config.loss_weights)
                    with zipfile.ZipFile(path) as archive:
                        members = {member: hashlib.sha256(archive.read(member)).hexdigest()
                                   for member in archive.namelist()}
                continue
            lines = workloads.evaluate_once(s)["lines"]
            digests["infer_report"].append(sha(["\\n".join(lines).encode()]))
            preds = [workloads.predict_once(s, i)[2] for i in range(predictions)]
            digests["infer_predict"].append(sha(
                pred.probs(task).tobytes() for pred in preds for task in "abc"))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.dispatch(["gradcheck"])
env = {"python": platform.python_version(), "numpy": np.__version__,
       "blas": run.blas_info()}
print(json.dumps({"environment": env, "digests": digests, "checkpoint": members,
                  "gradcheck": [code, out.getvalue()]}))
"""


def test_seeded_outputs_match_the_pinned_digests():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), json.dumps(SEEDS),
                          str(PREDICTIONS)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    if result["environment"] != ENVIRONMENT:
        pytest.fail(f"the digests are pinned for {ENVIRONMENT}, and this environment "
                    f"differs: {result['environment']}")
    assert result["digests"] == PINNED
    assert result["checkpoint"] == CHECKPOINT_MEMBERS
    assert result["gradcheck"] == [0, GRADCHECK_LINE + "\n"]
