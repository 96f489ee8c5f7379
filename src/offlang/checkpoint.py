"""Versioned model checkpoint container.

A single .npz of two members: `params`, every parameter of the model
flattened into one float64 vector in `mtl.parameter_layout` order, and
`meta`, a JSON blob with the encoder config, head config, loss weights and
the vocabulary. Save/load round-trips bit-exactly (float64 end to end).
That is format 3. Formats 1 and 2 stored one `param/<name>` member per
parameter and still load; a version 1 file also carries a head the model
no longer has, which is dropped.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import types
import typing
import zipfile

import numpy as np

from .encoder import EncoderConfig
from .mtl import HeadConfig, LossWeights, MtlModel, parameter_layout
from .tokenizer import Vocabulary

FORMAT_VERSION = 3


def save_checkpoint(path, model: MtlModel, vocab: Vocabulary,
                    loss_weights: LossWeights) -> None:
    meta = {
        "version": FORMAT_VERSION,
        "encoder": model.encoder_config.to_dict(),
        "head": model.head_config.to_dict(),
        "loss_weights": loss_weights.as_tuple(),
        "vocab": vocab.to_lines(),
    }
    layout = parameter_layout(model.encoder_config, model.head_config)
    params = np.concatenate([model.params[name].data.ravel() for name in layout])
    meta_bytes = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                               dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, params=params, meta=meta_bytes)


def _unflatten(params: np.ndarray, layout: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Per-name views of a format-3 parameter vector, cut in `layout` order,
    once its dtype and length are checked."""
    ends = list(itertools.accumulate(math.prod(shape) for shape in layout.values()))
    if params.dtype.type is not np.float64:     # either byte order
        raise ValueError(f"the parameter vector holds {params.dtype} values, not float64")
    if params.shape != (ends[-1],):
        raise ValueError(f"the parameter vector has shape {params.shape}, "
                         f"expected ({ends[-1]},) for this model")
    starts = [0] + ends[:-1]
    return {name: params[start:end].reshape(shape)
            for (name, shape), start, end in zip(layout.items(), starts, ends)}


def _fits(value, hint) -> bool:
    """Whether a JSON value can stand for a field annotated `hint`. A float
    field takes an int, an int field no float and neither a bool; a
    dataclass field takes a list with one value per field."""
    if hint is bool:
        return isinstance(value, bool)
    if hint is int or hint is float:
        numbers = (int,) if hint is int else (int, float)
        return isinstance(value, numbers) and not isinstance(value, bool)
    if hint is type(None):
        return value is None
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, option) for option in typing.get_args(hint))
    if dataclasses.is_dataclass(hint):
        parts = list(typing.get_type_hints(hint).values())
        return (isinstance(value, list) and len(value) == len(parts)
                and all(_fits(v, part) for v, part in zip(value, parts)))
    raise TypeError(f"no JSON form for {hint}")


def check_section(section, hints: dict, where: str) -> dict:
    """Return `section` if it is a dict with exactly the keys of `hints`,
    each holding a value of the type `hints` gives it (see `_fits`);
    otherwise raise one ValueError that starts with `where`."""
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(section).__name__}")
    unknown, missing = sorted(set(section) - set(hints)), sorted(set(hints) - set(section))
    if unknown or missing:
        raise ValueError(f"{where} must have exactly the keys {sorted(hints)}"
                         + (f"; unknown: {unknown}" if unknown else "")
                         + (f"; missing: {missing}" if missing else ""))
    for name, value in section.items():
        if not _fits(value, hints[name]):
            raise ValueError(f"{where}: {name} must be {_describe(hints[name])}, "
                             f"not {json.dumps(value)}")
    return section


def _describe(hint) -> str:
    if dataclasses.is_dataclass(hint):
        return f"a list of {len(dataclasses.fields(hint))} numbers"
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return " or ".join(_describe(option) for option in typing.get_args(hint))
    return {int: "an integer", float: "a number", bool: "true or false",
            type(None): "null"}[hint]


def _config(cls, section):
    """Build a config dataclass from a metadata section with exactly its keys."""
    return cls(**check_section(section, typing.get_type_hints(cls),
                               f"{cls.__name__} metadata"))


def load_checkpoint(path) -> tuple[MtlModel, Vocabulary, LossWeights]:
    """Read a checkpoint written by `save_checkpoint`, of format 1, 2 or 3.
    The model is built straight from the stored arrays, checked against
    `mtl.parameter_layout`; no parameters are drawn.

    A missing or unreadable file raises OSError. Any other file that is not
    a valid checkpoint raises one ValueError that names the path: among
    them a file whose parameters hold NaN or infinity, or whose vocabulary
    has more entries than the encoder's embedding table has rows.
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
            version = meta["version"]
            if version not in (1, 2, FORMAT_VERSION):
                raise ValueError(f"unsupported checkpoint version {version}")
            encoder_config = _config(EncoderConfig, meta["encoder"])
            head_config = _config(HeadConfig, meta["head"])
            if version == FORMAT_VERSION:
                if "params" not in data.files:
                    raise ValueError("no parameter vector entry 'params'")
                arrays = _unflatten(data["params"],
                                    parameter_layout(encoder_config, head_config))
            else:
                arrays = {key[len("param/"):]: data[key]
                          for key in data.files if key.startswith("param/")}
        if version == 1:
            arrays.pop("baseline.out.w", None)
            arrays.pop("baseline.out.b", None)
        model = MtlModel.from_arrays(encoder_config, head_config, arrays)
        for name, tensor in model.params.items():
            if not np.isfinite(tensor.data).all():
                raise ValueError(f"parameter {name} holds a non-finite value")
        vocab = Vocabulary.from_lines(meta["vocab"])
        if len(vocab) > model.encoder_config.vocab_size:
            raise ValueError(f"the vocabulary has {len(vocab)} entries, more than the "
                             f"encoder's vocab_size {model.encoder_config.vocab_size}")
        weights = LossWeights(*meta["loss_weights"])
    except KeyError as err:
        raise ValueError(f"{path} is not a valid checkpoint: no metadata key {err}") from err
    except (TypeError, ValueError, zipfile.BadZipFile) as err:
        raise ValueError(f"{path} is not a valid checkpoint: {err}") from err
    return model, vocab, weights
