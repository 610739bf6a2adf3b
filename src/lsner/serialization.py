"""Binary checkpoint and label-cache files.

Checkpoint layout: magic "LSNER1", u32 format version, length-prefixed
JSON header (config echo, vocabulary, taxonomy, seed), then
length-prefixed named parameter sections of little-endian float64.
Loading then re-saving is byte-identical.
"""

import json
import struct

import numpy as np

from .corpus import LabelTaxonomy
from .encoders import Vocabulary
from .matcher import LabelCache, ModelState, init_model

MAGIC = b"LSNER1"
CACHE_MAGIC = b"LSNERC"
VERSION = 1


def _write_json(f, obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    f.write(struct.pack("<I", len(blob)))
    f.write(blob)


def _read_json(f):
    (n,) = struct.unpack("<I", f.read(4))
    return json.loads(f.read(n).decode("utf-8"))


def _write_matrix(f, name, data):
    blob = name.encode("utf-8")
    f.write(struct.pack("<I", len(blob)))
    f.write(blob)
    arr = np.ascontiguousarray(data, dtype="<f8")
    rows, cols = (arr.shape if arr.ndim == 2 else (1, arr.shape[0]))
    f.write(struct.pack("<II", rows, cols))
    f.write(arr.tobytes())


def _read_matrix(f):
    (n,) = struct.unpack("<I", f.read(4))
    name = f.read(n).decode("utf-8")
    rows, cols = struct.unpack("<II", f.read(8))
    data = np.frombuffer(f.read(rows * cols * 8), dtype="<f8").reshape(rows, cols)
    return name, data.astype(np.float64)


def save_checkpoint(model, path):
    groups = model.param_groups()
    header = {
        "config": model.config,
        "seed": model.seed,
        "vocab": model.vocab.tokens,
        "taxonomy": list(model.taxonomy.types) if model.taxonomy else [],
        "params": [g.name for g in groups],
    }
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        _write_json(f, header)
        for g in groups:
            _write_matrix(f, g.name, g.values)


def load_checkpoint(path):
    with open(path, "rb") as f:
        if f.read(6) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", f.read(4))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        header = _read_json(f)
        arrays = {}
        for _ in header["params"]:
            name, data = _read_matrix(f)
            arrays[name] = data

    cfg = header["config"]
    # headers written while case-sensitive lookup was an option carry
    # "lowercase"; every model now lowercases
    if cfg.get("lowercase", True) is not True:
        raise ValueError(f"{path}: case-sensitive checkpoints are not supported")
    vocab = Vocabulary(list(header["vocab"]))
    taxonomy = LabelTaxonomy([tuple(t) for t in header["taxonomy"]])
    model = init_model(
        vocab, taxonomy, dim=cfg["dim"], seed=header["seed"],
        token_ctx=cfg["token_ctx"], label_ctx=cfg["label_ctx"],
        label_pool=cfg["label_pool"], tie_embeddings=cfg["tie_embeddings"],
        caps_feature=cfg["caps_feature"], window=cfg["window"], config=cfg)
    by_name = {g.name: g for g in model.param_groups()}
    for name, data in arrays.items():
        target = by_name[name]
        if target.values.shape != data.shape:
            raise ValueError(f"{path}: shape mismatch for {name}")
        target.values[...] = data
    return model


def save_label_cache(cache, path):
    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<I", VERSION))
        _write_json(f, {"taxonomy_hash": cache.taxonomy_hash, "meta": cache.meta})
        _write_matrix(f, "labels", cache.matrix)


def load_label_cache(path):
    with open(path, "rb") as f:
        if f.read(6) != CACHE_MAGIC:
            raise ValueError(f"{path}: not a label cache file")
        (version,) = struct.unpack("<I", f.read(4))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        header = _read_json(f)
        _, matrix = _read_matrix(f)
    return LabelCache(header["taxonomy_hash"], matrix, header["meta"])
