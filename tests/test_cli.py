import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from offlang import training
from offlang.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from offlang.cli import GRADCHECK_CONFIG, dispatch
from offlang.corpus import save_labeled
from offlang.encoder import EncoderConfig
from offlang.mtl import HeadConfig, LossWeights, MtlModel, parameter_layout
from offlang.synth import make_hierarchical_corpus, make_scored_corpus
from offlang.tokenizer import build_vocab

from test_mtl import flat_parameters, rewrite_checkpoint, write_per_name_checkpoint

TINY_CONFIG = {
    "encoder": {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ffn": 32,
                "max_len": 12, "dropout_rate": 0.0},
    "head": {"hidden": 16},
    "train": {"learning_rate": 3e-3, "batch_size": 16, "max_epochs": 2,
              "patience": 3, "loss_weights": [0.4, 0.3, 0.3], "seed": 0},
}


def write_config(tmp_path, **overrides):
    config = json.loads(json.dumps(TINY_CONFIG))
    for k, v in overrides.items():
        config[k].update(v)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def write_labeled(tmp_path, name, n, seed):
    path = tmp_path / name
    save_labeled(path, make_hierarchical_corpus(n, seed=seed))
    return str(path)


def write_scored(tmp_path, name, n, seed):
    path = tmp_path / name
    examples = make_scored_corpus(n, seed=seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id\ttext\taverage\tstd\n")
        for ex in examples:
            handle.write(f"{ex.tweet.id}\t{ex.tweet.text}\t{ex.avg_conf}\t{ex.std_conf}\n")
    return str(path)


class TestDispatch:
    def test_no_arguments_is_usage_error(self, capsys):
        assert dispatch([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_missing_flag(self, capsys):
        assert dispatch(["train"]) == 2

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = dispatch([
            "preprocess", "--input", str(tmp_path / "nope.tsv"),
            "--output", str(tmp_path / "out.tsv"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("module", ["offlang", "offlang.cli"])
def test_python_m_runs_the_cli(module):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stdout.startswith("usage: offlang")
    run = subprocess.run([sys.executable, "-m", module], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 2 and "usage: offlang" in run.stderr


# ROADMAP item 5's probes; each must end in one error line and exit code 1
BAD_CONFIGS = {
    "unknown_key": ({"train": {"lr": 1}}, "unknown: ['lr']"),
    "string_for_int": ({"encoder": {"d_model": "64"}}, 'd_model must be an integer, not "64"'),
    "float_for_int": ({"train": {"batch_size": 1e9}}, "batch_size must be an integer"),
    "top_level_list": ([{"train": {}}], "must be a JSON object"),
    # dropout follows encoder.dropout_rate alone
    "use_dropout": ({"train": {"use_dropout": False}}, "unknown: ['use_dropout']"),
    # JSON reads the literals NaN and Infinity
    "nan_learning_rate": ({"train": {"learning_rate": float("nan"), "max_epochs": 1}},
                          "learning_rate must be a finite positive number"),
    "infinite_learning_rate": ({"train": {"learning_rate": float("inf"), "max_epochs": 1}},
                               "learning_rate must be a finite positive number"),
    "nan_loss_weight": ({"train": {"loss_weights": [float("nan"), 0.5, 0.5],
                                   "max_epochs": 1}},
                        "loss weights must be finite and nonnegative"),
    "zero_heads": ({"encoder": {"n_heads": 0}}, "all encoder dimensions must be >= 1"),
    "zero_hidden": ({"head": {"hidden": 0}}, "head hidden size must be >= 1, not 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_is_one_error_line(tmp_path, capsys, case):
    config, message = BAD_CONFIGS[case]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = dispatch(["train", "--config", str(path),
                     "--train", write_labeled(tmp_path, "train.tsv", 8, seed=1),
                     "--val", write_labeled(tmp_path, "val.tsv", 4, seed=2),
                     "--out", str(tmp_path / "m.ckpt")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "m.ckpt").exists()


def checkpoint_meta(**overrides):
    meta = {"version": FORMAT_VERSION, "encoder": EncoderConfig(vocab_size=8).to_dict(),
            "head": HeadConfig().to_dict(), "loss_weights": [0.4, 0.3, 0.3],
            "vocab": []}
    meta.update(overrides)
    return json.dumps(meta).encode("utf-8")


BAD_CHECKPOINTS = {
    "not_a_zip": None,
    "no_meta": {},
    "undecodable_meta": {"meta": b"\xff\xfe{"},
    "unknown_encoder_key": {"meta": checkpoint_meta(
        encoder={**EncoderConfig(vocab_size=8).to_dict(), "colour": "red"})},
    "missing_head_key": {"meta": checkpoint_meta(head={})},
    "missing_meta_keys": {"meta": json.dumps({"version": FORMAT_VERSION}).encode("utf-8")},
    "zero_heads": {"meta": checkpoint_meta(
        encoder={**EncoderConfig(vocab_size=8).to_dict(), "n_heads": 0})},
}


class TestBadCheckpoint:
    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
    def test_predict_names_invalid_file(self, tmp_path, capsys, case):
        path = tmp_path / f"{case}.ckpt"
        entries = BAD_CHECKPOINTS[case]
        if entries is None:
            path.write_text("id\ttweet\n", encoding="utf-8")
        else:
            with open(path, "wb") as handle:
                np.savez(handle, x=np.zeros(1), **{
                    k: np.frombuffer(v, dtype=np.uint8) for k, v in entries.items()})
        assert dispatch(["predict", "--model", str(path), "--text", "hi"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not a valid checkpoint") and err.count("\n") == 1

    @staticmethod
    def rewritten_checkpoint(tmp_path, **meta_changes):
        """A tiny model's checkpoint with `meta_changes` written over its metadata."""
        vocab = build_vocab(["a b c"])
        model = MtlModel(EncoderConfig(d_model=8, n_layers=1, n_heads=2, d_ffn=16,
                                       max_len=8, vocab_size=len(vocab)),
                         HeadConfig(hidden=4), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab, LossWeights())
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = {**json.loads(bytes(arrays["meta"]).decode("utf-8")), **meta_changes}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        return path

    def test_nan_loss_weights(self, tmp_path, capsys):
        path = self.rewritten_checkpoint(tmp_path, loss_weights=[float("nan"), 0.5, 0.5])
        assert dispatch(["predict", "--model", str(path), "--text", "a b"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path} is not a valid checkpoint: "
                       "loss weights must be finite and nonnegative\n")

    @pytest.mark.parametrize("version", [True, 3.0, "3"], ids=repr)
    def test_version_that_is_not_an_int(self, tmp_path, capsys, version):
        # true == 1 and 3.0 == 3, so a membership test alone read these as
        # formats 1 and 3
        path = self.rewritten_checkpoint(tmp_path, version=version)
        assert dispatch(["predict", "--model", str(path), "--text", "a b"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path} is not a valid checkpoint: "
                       f"unsupported checkpoint version {json.dumps(version)}\n")

    def test_non_string_vocabulary_entry(self, tmp_path, capsys):
        path = self.rewritten_checkpoint(tmp_path, vocab=[1, 2, 3])
        assert dispatch(["predict", "--model", str(path), "--text", "a b"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path} is not a valid checkpoint: "
                       "vocabulary entry 0 is int, not a string\n")


    @pytest.mark.parametrize("dtype", [np.complex128, np.int32])
    def test_non_real_float_parameter(self, tmp_path, capsys, dtype):
        vocab = build_vocab(["a b c"])
        model = MtlModel(EncoderConfig(d_model=8, n_layers=1, n_heads=2, d_ffn=16,
                                       max_len=8, vocab_size=len(vocab)),
                         HeadConfig(hidden=4), seed=0)
        path = tmp_path / "m.ckpt"
        write_per_name_checkpoint(path, model, vocab, extra={
            "head_a.out.b": model.params["head_a.out.b"].data.astype(dtype)})
        assert dispatch(["predict", "--model", str(path), "--text", "a b"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path} is not a valid checkpoint: parameter head_a.out.b "
                       f"holds {np.dtype(dtype)} values, not real floating point\n")


class TestBadFormat3Checkpoint:
    """Each damage to a format-3 file's parameter vector is one error line."""

    @staticmethod
    def saved(tmp_path):
        vocab = build_vocab(["a b c"])
        model = MtlModel(EncoderConfig(d_model=8, n_layers=1, n_heads=2, d_ffn=16,
                                       max_len=8, vocab_size=len(vocab)),
                         HeadConfig(hidden=4), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, vocab, LossWeights())
        return path, model, flat_parameters(model)

    @staticmethod
    def predict_error(path, capsys) -> str:
        assert dispatch(["predict", "--model", str(path), "--text", "a b"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        prefix = f"error: {path} is not a valid checkpoint: "
        assert err.startswith(prefix)
        return err[len(prefix):-1]

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("index", [0, 7, -1])
    def test_non_finite_value_names_its_parameter(self, tmp_path, capsys, index, where):
        path, model, vector = self.saved(tmp_path)
        layout = parameter_layout(model.encoder_config, model.head_config)
        name = list(layout)[index]
        start = sum(int(np.prod(shape)) for shape in list(layout.values())[:index % len(layout)])
        end = start + int(np.prod(layout[name]))
        vector[start if where == "first" else end - 1] = np.nan
        rewrite_checkpoint(path, path, members={"params": vector})
        assert self.predict_error(path, capsys) == f"parameter {name} holds a non-finite value"

    def test_vector_not_float64(self, tmp_path, capsys):
        path, _, vector = self.saved(tmp_path)
        rewrite_checkpoint(path, path, members={"params": vector.astype(np.float32)})
        assert self.predict_error(path, capsys) == (
            "the parameter vector holds float32 values, not float64")

    @pytest.mark.parametrize("change", ["short", "long", "2-d"])
    def test_vector_of_the_wrong_length(self, tmp_path, capsys, change):
        path, _, vector = self.saved(tmp_path)
        stored = {"short": vector[:-1], "long": np.append(vector, 0.0),
                  "2-d": vector.reshape(1, -1)}[change]
        rewrite_checkpoint(path, path, members={"params": stored})
        assert self.predict_error(path, capsys) == (
            f"the parameter vector has shape {stored.shape}, "
            f"expected ({vector.size},) for this model")

    def test_missing_vector(self, tmp_path, capsys):
        path, _, _ = self.saved(tmp_path)
        rewrite_checkpoint(path, path, members={"params": None})
        assert self.predict_error(path, capsys) == "no parameter vector entry 'params'"

    def test_flipped_byte_in_the_vector(self, tmp_path, capsys):
        path, _, vector = self.saved(tmp_path)
        raw = bytearray(path.read_bytes())
        offset = raw.find(vector.tobytes())
        assert offset >= 0
        raw[offset + vector.nbytes // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        assert self.predict_error(path, capsys) == "Bad CRC-32 for file 'params.npy'"


class TestPreprocess:
    def test_normalizes_file(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_text(
            "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
            "1\t@USER @USER URL #KeithEllisonAbuse\tOFF\tTIN\tGRP\n",
            encoding="utf-8",
        )
        out = tmp_path / "norm.tsv"
        assert dispatch(["preprocess", "--input", str(raw), "--output", str(out)]) == 0
        assert "@users http keith ellison abuse" in out.read_text(encoding="utf-8")

    def test_reads_a_file_with_a_byte_order_mark(self, tmp_path, capsys):
        raw = tmp_path / "excel.tsv"
        raw.write_text("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
                       "7\tgood morning\tNOT\tNULL\tNULL\n", encoding="utf-8-sig")
        out = tmp_path / "norm.tsv"
        assert dispatch(["preprocess", "--input", str(raw), "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text(encoding="utf-8").splitlines()[1].split("\t")[:2] == [
            "7", "good morning"]

    @pytest.mark.parametrize("option, content, message", [
        ("--emoji", "\U0001F44D\tthumbs up\n\U0001F602\n", "2: expected key<TAB>value"),
        ("--emoji", "# c\n\U0001F44D\tThumbs Up\n", "2: emoji name 'Thumbs Up' not clean"),
        ("--emoji", "\U0001F44D\tthumbs up\n\tjoy\n", "2: empty emoji key"),
        ("--unigrams", "good\t5\nmorning\tlots\n", "2: count 'lots' is not an integer"),
        ("--unigrams", "good\t5\n\nmorning\t0\n", "3: bad unigram entry 'morning': 0"),
        ("--unigrams", "good\t5\nMorning\t3\n", "2: bad unigram entry 'Morning': 3"),
    ])
    def test_malformed_table_is_one_error_line(self, tmp_path, capsys, option, content,
                                               message):
        raw = tmp_path / "raw.tsv"
        raw.write_text("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
                       "7\tgood morning\tNOT\tNULL\tNULL\n", encoding="utf-8")
        table = tmp_path / "table.tsv"
        table.write_text(content, encoding="utf-8")
        out = tmp_path / "norm.tsv"
        assert dispatch(["preprocess", "--input", str(raw), "--output", str(out),
                         option, str(table)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}:{message}") and err.count("\n") == 1
        assert not out.exists()

    def test_tables_with_a_byte_order_mark(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_text("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
                       "7\thi \U0001F600 #goodmorning\tNOT\tNULL\tNULL\n", encoding="utf-8")
        emoji, unigrams = tmp_path / "emoji.tsv", tmp_path / "unigrams.tsv"
        emoji.write_text("\U0001F600\tgrinning face\n", encoding="utf-8-sig")
        unigrams.write_text("good\t5\nmorning\t3\n", encoding="utf-8-sig")
        out = tmp_path / "norm.tsv"
        assert dispatch(["preprocess", "--input", str(raw), "--output", str(out),
                         "--emoji", str(emoji), "--unigrams", str(unigrams)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text(encoding="utf-8").splitlines()[1].split("\t")[1] == (
            "hi grinning face good morning")


class TestTrainEvaluate:
    def test_end_to_end_reproducible(self, tmp_path, capsys):
        config = write_config(tmp_path)
        train_tsv = write_labeled(tmp_path, "train.tsv", 32, seed=1)
        val_tsv = write_labeled(tmp_path, "val.tsv", 12, seed=2)

        outputs = []
        for run in ("a", "b"):
            ckpt = tmp_path / f"model_{run}.ckpt"
            report = tmp_path / f"report_{run}.txt"
            preds = tmp_path / f"preds_{run}.tsv"
            assert dispatch(["train", "--config", config, "--train", train_tsv,
                             "--val", val_tsv, "--out", str(ckpt)]) == 0
            assert dispatch(["evaluate", "--model", str(ckpt), "--data", val_tsv,
                             "--report", str(report)]) == 0
            assert dispatch(["ensemble", "--models", str(ckpt), "--data", val_tsv,
                             "--out", str(preds)]) == 0
            outputs.append((
                (tmp_path / f"model_{run}.ckpt.metrics.txt").read_bytes(),
                report.read_bytes(),
                preds.read_bytes(),
            ))
        assert outputs[0] == outputs[1]

    def test_ensemble_of_members_with_different_max_len(self, tmp_path, capsys):
        train_tsv = write_labeled(tmp_path, "train.tsv", 24, seed=1)
        val_tsv = write_labeled(tmp_path, "val.tsv", 12, seed=2)
        ckpts = []
        for max_len in (8, 16):
            ckpt = tmp_path / f"len{max_len}.ckpt"
            assert dispatch(["train", "--config",
                             write_config(tmp_path, encoder={"max_len": max_len},
                                          train={"max_epochs": 1}),
                             "--train", train_tsv, "--val", val_tsv,
                             "--out", str(ckpt)]) == 0
            ckpts.append(str(ckpt))
        outputs = []
        for members in (ckpts, ckpts[::-1]):
            out = tmp_path / "preds.tsv"
            assert dispatch(["ensemble", "--models", ",".join(members),
                             "--data", val_tsv, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 12

    def test_header_only_tsv_is_an_empty_corpus(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert dispatch(["train", "--config", write_config(tmp_path, train={"max_epochs": 1}),
                         "--train", write_labeled(tmp_path, "train.tsv", 16, seed=1),
                         "--val", write_labeled(tmp_path, "val.tsv", 8, seed=2),
                         "--out", str(ckpt)]) == 0
        empty = tmp_path / "empty.tsv"
        save_labeled(empty, [])
        capsys.readouterr()
        for command in (["evaluate", "--report", str(tmp_path / "report.txt")],
                        ["ensemble", "--out", str(tmp_path / "preds.tsv")]):
            flag = "--models" if command[0] == "ensemble" else "--model"
            assert dispatch(command + [flag, str(ckpt), "--data", str(empty)]) == 1
            assert capsys.readouterr().err == "error: cannot evaluate an empty corpus\n"

    def test_config_echoed(self, tmp_path, capsys):
        config = write_config(tmp_path)
        train_tsv = write_labeled(tmp_path, "train.tsv", 16, seed=1)
        val_tsv = write_labeled(tmp_path, "val.tsv", 8, seed=2)
        ckpt = tmp_path / "m.ckpt"
        assert dispatch(["train", "--config", config, "--train", train_tsv,
                         "--val", val_tsv, "--out", str(ckpt)]) == 0
        echoed = json.loads((tmp_path / "m.ckpt.config.json").read_text())
        assert echoed["train"]["batch_size"] == 16
        assert echoed["vocab"] == {"min_freq": 1, "max_size": None}  # defaults filled in

    def test_paper_hyperparameters_accepted_and_echoed(self, tmp_path, capsys):
        config = write_config(tmp_path, train={
            "learning_rate": 3e-6, "batch_size": 32, "max_epochs": 20,
            "patience": 3, "loss_weights": [0.4, 0.3, 0.3], "seed": 0,
            "max_epochs": 1,
        })
        train_tsv = write_labeled(tmp_path, "train.tsv", 16, seed=1)
        val_tsv = write_labeled(tmp_path, "val.tsv", 8, seed=2)
        ckpt = tmp_path / "m.ckpt"
        assert dispatch(["train", "--config", config, "--train", train_tsv,
                         "--val", val_tsv, "--out", str(ckpt)]) == 0
        header = capsys.readouterr().out
        assert '"learning_rate": 3e-06' in header
        assert '"batch_size": 32' in header

    def test_init_from_echoes_the_checkpoint_architecture(self, tmp_path, capsys):
        warm = tmp_path / "warm.ckpt"
        assert dispatch(["pretrain", "--config", write_config(tmp_path), "--scored",
                         write_scored(tmp_path, "scored.tsv", 24, seed=3),
                         "--out", str(warm)]) == 0
        config = write_config(tmp_path, encoder={"d_model": 32, "d_ffn": 64},
                              head={"hidden": 8})
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        assert dispatch(["train", "--config", config, "--init-from", str(warm),
                         "--train", write_labeled(tmp_path, "train.tsv", 16, seed=1),
                         "--val", write_labeled(tmp_path, "val.tsv", 8, seed=2),
                         "--out", str(ckpt)]) == 0
        assert f"vocabulary and architecture from {warm}" in capsys.readouterr().out
        model, vocab, _ = load_checkpoint(ckpt)
        _, warm_vocab, _ = load_checkpoint(warm)
        echoed = json.loads((tmp_path / "m.ckpt.config.json").read_text())
        assert echoed["encoder"]["d_model"] == model.encoder_config.d_model == 16
        assert echoed["encoder"] == {k: v for k, v in model.encoder_config.to_dict().items()
                                     if k != "vocab_size"}
        assert echoed["head"] == model.head_config.to_dict() == {"hidden": 16}
        assert vocab.token_to_id == warm_vocab.token_to_id

    def test_train_on_a_tweet_spelling_a_reserved_name(self, tmp_path, capsys):
        # normalization lowercases <PAD> to the PAD token's name
        train_tsv = write_labeled(tmp_path, "train.tsv", 16, seed=1)
        with open(train_tsv, "a", encoding="utf-8") as handle:
            handle.write("pad1\t<PAD> you fool <UNK>\tOFF\tTIN\tIND\n")
        ckpt = tmp_path / "m.ckpt"
        assert dispatch(["train", "--config", write_config(tmp_path, train={"max_epochs": 1}),
                         "--train", train_tsv,
                         "--val", write_labeled(tmp_path, "val.tsv", 8, seed=2),
                         "--out", str(ckpt)]) == 0
        _, vocab, _ = load_checkpoint(ckpt)
        assert [vocab.token_to_id[name] for name in ("<pad>", "<unk>", "<cls>")] == [0, 1, 2]
        assert "fool" in vocab.token_to_id

    def test_predict(self, tmp_path, capsys):
        config = write_config(tmp_path)
        train_tsv = write_labeled(tmp_path, "train.tsv", 16, seed=1)
        val_tsv = write_labeled(tmp_path, "val.tsv", 8, seed=2)
        ckpt = tmp_path / "m.ckpt"
        dispatch(["train", "--config", config, "--train", train_tsv,
                  "--val", val_tsv, "--out", str(ckpt)])
        capsys.readouterr()
        assert dispatch(["predict", "--model", str(ckpt),
                         "--text", "you absolute fool"]) == 0
        out = capsys.readouterr().out.strip().split("\t")
        assert out[0] in ("OFF", "NOT")
        assert len(out) == 3


class TestPretrainAndThreshold:
    def test_pretrain_writes_checkpoint(self, tmp_path, capsys):
        config = write_config(tmp_path)
        scored = write_scored(tmp_path, "scored.tsv", 24, seed=4)
        ckpt = tmp_path / "warm.ckpt"
        assert dispatch(["pretrain", "--config", config, "--scored", scored,
                         "--out", str(ckpt)]) == 0
        assert ckpt.exists()
        assert (tmp_path / "warm.ckpt.metrics.txt").exists()

    @staticmethod
    def write_threshold_inputs(tmp_path, labeled_ids):
        scored_path = tmp_path / "scored.tsv"
        labels_path = tmp_path / "labels.tsv"
        rows = [("1", "aa", 0.8, "OFF"), ("2", "bb", 0.7, "OFF"),
                ("3", "cc", 0.2, "NOT"), ("4", "dd", 0.1, "NOT")]
        with open(scored_path, "w") as f:
            f.write("id\ttext\taverage\tstd\n")
            for i, t, s, _ in rows:
                f.write(f"{i}\t{t}\t{s}\t0.0\n")
        with open(labels_path, "w") as f:
            f.write("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n")
            for i, t, _, a in rows:
                if i in labeled_ids:
                    b, c = ("UNT", "NULL") if a == "OFF" else ("NULL", "NULL")
                    f.write(f"{i}\t{t}\t{a}\t{b}\t{c}\n")
        return str(scored_path), str(labels_path)

    def test_threshold_search(self, tmp_path, capsys):
        scored, labels = self.write_threshold_inputs(tmp_path, "1234")
        assert dispatch(["threshold-search", "--scored", scored,
                         "--labels", labels, "--grid", "0.3,0.5,0.75"]) == 0
        assert "best_threshold=0.3" in capsys.readouterr().out

    def test_threshold_search_unlabeled_ids(self, tmp_path, capsys):
        scored, labels = self.write_threshold_inputs(tmp_path, "13")
        assert dispatch(["threshold-search", "--scored", scored,
                         "--labels", labels]) == 1
        err = capsys.readouterr().err
        assert f"2 scored ids have no label in {labels}, e.g. '2'" in err


class TestGradcheck:
    def test_default_tiny_model_passes(self, capsys):
        assert dispatch(["gradcheck", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max_relative_error" in out

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-0.5"])
    def test_bad_epsilon_is_one_error_line(self, capsys, epsilon):
        assert dispatch(["gradcheck", "--batch", "2", "--epsilon", epsilon]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: epsilon must be a finite positive number, "
                                f"not {float(epsilon)}\n")
        assert "PASS" not in captured.out

    def test_config_vocab_section_is_used(self, tmp_path, capsys, monkeypatch):
        """`max_size` caps the vocabulary, so the embedding table and the
        parameter count shrink, as they do for `train` and `pretrain`. The
        finite differences themselves are skipped."""
        monkeypatch.setattr(training, "check_gradients", lambda *args, **kwargs: 0.0)
        counts = []
        for vocab in ({}, {"max_size": 4}):
            config = tmp_path / f"config{len(counts)}.json"
            config.write_text(json.dumps({**GRADCHECK_CONFIG, "vocab": vocab}), encoding="utf-8")
            assert dispatch(["gradcheck", "--batch", "2", "--config", str(config)]) == 0
            counts.append(int(capsys.readouterr().out.split()[0].removeprefix("params=")))
        d_model = GRADCHECK_CONFIG["encoder"]["d_model"]
        assert counts[0] - counts[1] >= d_model      # at least one embedding row fewer
