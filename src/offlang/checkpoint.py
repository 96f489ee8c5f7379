"""Versioned model checkpoint container.

A single .npz holding named parameter arrays plus a JSON metadata blob with
the encoder config, head config, loss weights, and the vocabulary. Save/load
round-trips bit-exactly (arrays are float64 end to end).
Version 2 holds exactly the model's parameters; version 1 files, which also
carry a head the model no longer has, still load without it.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile

import numpy as np

from .encoder import EncoderConfig
from .mtl import HeadConfig, LossWeights, MtlModel
from .tokenizer import Vocabulary

FORMAT_VERSION = 2


def save_checkpoint(path, model: MtlModel, vocab: Vocabulary,
                    loss_weights: LossWeights) -> None:
    meta = {
        "version": FORMAT_VERSION,
        "encoder": model.encoder_config.to_dict(),
        "head": model.head_config.to_dict(),
        "loss_weights": loss_weights.as_tuple(),
        "vocab": vocab.to_lines(),
    }
    arrays = {f"param/{name}": arr for name, arr in model.state_arrays().items()}
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _config(cls, section):
    """Build a config dataclass from a metadata section with exactly its keys."""
    names = {f.name for f in dataclasses.fields(cls)}
    if not isinstance(section, dict) or set(section) != names:
        raise ValueError(f"{cls.__name__} metadata must have exactly the keys "
                         f"{sorted(names)}")
    return cls(**section)


def load_checkpoint(path) -> tuple[MtlModel, Vocabulary, LossWeights]:
    """Read a checkpoint written by `save_checkpoint`.

    A missing or unreadable file raises OSError. Any other file that is not
    a valid checkpoint raises one ValueError that names the path.
    """
    if not zipfile.is_zipfile(path):
        with open(path, "rb"):  # a missing or unreadable file raises OSError here
            pass
        raise ValueError(f"{path} is not a valid checkpoint: not a zip archive")
    try:
        with np.load(path) as data:
            if "meta" not in data.files:
                raise ValueError("no metadata entry")
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            arrays = {
                key[len("param/"):]: data[key]
                for key in data.files
                if key.startswith("param/")
            }
        if meta["version"] not in (1, FORMAT_VERSION):
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        if meta["version"] == 1:
            arrays.pop("baseline.out.w", None)
            arrays.pop("baseline.out.b", None)
        model = MtlModel(_config(EncoderConfig, meta["encoder"]),
                         _config(HeadConfig, meta["head"]), seed=0)
        model.load_state_arrays(arrays)
        vocab = Vocabulary.from_lines(meta["vocab"])
        weights = LossWeights(*meta["loss_weights"])
    except KeyError as err:
        raise ValueError(f"{path} is not a valid checkpoint: no metadata key {err}") from err
    except (TypeError, ValueError, zipfile.BadZipFile) as err:
        raise ValueError(f"{path} is not a valid checkpoint: {err}") from err
    return model, vocab, weights
