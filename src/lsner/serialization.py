"""Binary checkpoint and label-cache files.

Checkpoint layout: magic "LSNER1", u32 format version, length-prefixed
JSON header (config echo, vocabulary, taxonomy, seed), then
length-prefixed named parameter sections of little-endian float64.
Loading then re-saving is byte-identical. A file cut short, or one whose
parameter names differ from the model its header describes, is refused
with a ValueError that names the file.
"""

import io
import json
import os
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


def _read_exact(f, n, path, section):
    """The next `n` bytes of `f`; fewer left means the file was cut.

    A read longer than one buffer allocates `n` bytes before reading, so a
    corrupt length field is checked against the bytes left in the file.
    """
    if n > io.DEFAULT_BUFFER_SIZE and n > os.fstat(f.fileno()).st_size - f.tell():
        raise ValueError(f"{path}: truncated {section}")
    blob = f.read(n)
    if len(blob) != n:
        raise ValueError(f"{path}: truncated {section}")
    return blob


def _read_u32(f, path, section):
    return struct.unpack("<I", _read_exact(f, 4, path, section))[0]


def _read_json(f, path):
    blob = _read_exact(f, _read_u32(f, path, "header"), path, "header")
    try:
        return json.loads(blob.decode("utf-8"))
    except ValueError:
        raise ValueError(f"{path}: malformed header") from None


def _write_matrix(f, name, data):
    blob = name.encode("utf-8")
    f.write(struct.pack("<I", len(blob)))
    f.write(blob)
    arr = np.ascontiguousarray(data, dtype="<f8")
    rows, cols = (arr.shape if arr.ndim == 2 else (1, arr.shape[0]))
    f.write(struct.pack("<II", rows, cols))
    f.write(arr.tobytes())


def _read_matrix(f, path):
    name = _read_exact(f, _read_u32(f, path, "section name"), path,
                       "section name").decode("utf-8", errors="replace")
    section = f"section {name}"
    rows, cols = struct.unpack("<II", _read_exact(f, 8, path, section))
    blob = _read_exact(f, rows * cols * 8, path, section)
    return name, np.frombuffer(blob, dtype="<f8").reshape(rows, cols).astype(np.float64)


def _read_preamble(f, path, magic, what):
    if f.read(len(magic)) != magic:
        raise ValueError(f"{path}: not a {what} file")
    version = _read_u32(f, path, "version")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    return _read_json(f, path)


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
        header = _read_preamble(f, path, MAGIC, "checkpoint")
        arrays = dict(_read_matrix(f, path) for _ in header["params"])

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
    if arrays.keys() != by_name.keys():
        raise ValueError(f"{path}: unknown parameters {sorted(arrays.keys() - by_name.keys())}, "
                         f"missing parameters {sorted(by_name.keys() - arrays.keys())}")
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
        header = _read_preamble(f, path, CACHE_MAGIC, "label cache")
        _, matrix = _read_matrix(f, path)
    return LabelCache(header["taxonomy_hash"], matrix, header["meta"])
