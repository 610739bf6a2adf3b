"""Binary checkpoint and label-cache files.

Checkpoint layout: magic "LSNER1", u32 format version, length-prefixed
JSON header (config echo, vocabulary, taxonomy, seed), then
length-prefixed named parameter sections of little-endian float64.
A load builds the model from the file's arrays (`model_from_arrays`):
each section is read straight into the array its parameter keeps, and
nothing is drawn at random. Loading then re-saving is byte-identical. A
file cut short, a header missing a key or holding a value of the wrong
type, or parameter names and shapes that differ from the model the header
describes, is refused with a ValueError that names the file.
"""

import io
import json
import os
import struct

import numpy as np

from .corpus import CorpusError, LabelTaxonomy
from .encoders import UNK_TOKEN, Vocabulary
# init_model is not called here: perfbench's tracer wraps this name to show a load draws none
from .matcher import LabelCache, init_model, model_from_arrays  # noqa: F401
from .numeric import CONTEXTUALIZER_KINDS, POOL_STRATEGIES

MAGIC = b"LSNER1"
CACHE_MAGIC = b"LSNERC"
VERSION = 1


def _write_json(f, obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    f.write(struct.pack("<I", len(blob)))
    f.write(blob)


def _check_left(f, n, path, section):
    """Refuse a read of `n` bytes that the rest of `f` cannot hold.

    A read longer than one buffer allocates `n` bytes before reading, so a
    corrupt length field is checked against the bytes left in the file.
    """
    if n > io.DEFAULT_BUFFER_SIZE and n > os.fstat(f.fileno()).st_size - f.tell():
        raise ValueError(f"{path}: truncated {section}")


def _read_exact(f, n, path, section):
    """The next `n` bytes of `f`; fewer left means the file was cut."""
    _check_left(f, n, path, section)
    blob = f.read(n)
    if len(blob) != n:
        raise ValueError(f"{path}: truncated {section}")
    return blob


def _read_u32(f, path, section):
    return struct.unpack("<I", _read_exact(f, 4, path, section))[0]


def _read_json(f, path):
    blob = _read_exact(f, _read_u32(f, path, "header"), path, "header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError:
        raise ValueError(f"{path}: malformed header") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: malformed header")
    return header


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value):
    return isinstance(value, list) and set(map(type, value)) <= {str}


# dotted header key -> (test of its value, what the value must be)
CHECKPOINT_HEADER = {
    "config.dim": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "config.token_ctx": (lambda v: v in CONTEXTUALIZER_KINDS,
                         "one of " + ", ".join(CONTEXTUALIZER_KINDS)),
    "config.label_ctx": (lambda v: v in CONTEXTUALIZER_KINDS,
                         "one of " + ", ".join(CONTEXTUALIZER_KINDS)),
    "config.label_pool": (lambda v: v in POOL_STRATEGIES, "one of " + ", ".join(POOL_STRATEGIES)),
    "config.tie_embeddings": (lambda v: isinstance(v, bool), "true or false"),
    "config.caps_feature": (lambda v: isinstance(v, bool), "true or false"),
    "config.window": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "seed": (_is_int, "an integer"),
    "vocab": (lambda v: _is_str_list(v) and UNK_TOKEN in v,
              f"a list of strings holding {UNK_TOKEN}"),
    "taxonomy": (lambda v: isinstance(v, list) and all(
        _is_str_list(t) and len(t) == 2 for t in v), "a list of [type, name] string pairs"),
    "params": (_is_str_list, "a list of strings"),
}
CACHE_HEADER = {
    "taxonomy_hash": (lambda v: isinstance(v, str), "a string"),
    "meta": (lambda v: isinstance(v, dict), "an object"),
}


def _check_header(header, spec, path):
    """Raise ValueError("<path>: header ...") unless every key of `spec` is
    present and passes its test."""
    for key, (ok, what) in spec.items():
        value = header
        for part in key.split("."):
            if not isinstance(value, dict) or part not in value:
                raise ValueError(f"{path}: header has no {key}")
            value = value[part]
        if not ok(value):
            raise ValueError(f"{path}: header {key} must be {what}")


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
    _check_left(f, rows * cols * 8, path, section)
    # a fresh, aligned, writable array that the model keeps as it is
    data = np.empty((rows, cols), dtype="<f8")
    if f.readinto(data) != data.nbytes:
        raise ValueError(f"{path}: truncated {section}")
    return name, data


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
        _check_header(header, CHECKPOINT_HEADER, path)
        arrays = dict(_read_matrix(f, path) for _ in header["params"])

    cfg = header["config"]
    # headers written while case-sensitive lookup was an option carry
    # "lowercase"; every model now lowercases
    if cfg.get("lowercase", True) is not True:
        raise ValueError(f"{path}: case-sensitive checkpoints are not supported")
    try:
        taxonomy = LabelTaxonomy([tuple(t) for t in header["taxonomy"]])
    except CorpusError as exc:
        raise ValueError(f"{path}: header taxonomy: {exc}") from None
    try:
        return model_from_arrays(Vocabulary(header["vocab"]), taxonomy, cfg,
                                 header["seed"], arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_label_cache(cache, path):
    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<I", VERSION))
        _write_json(f, {"taxonomy_hash": cache.taxonomy_hash, "meta": cache.meta})
        _write_matrix(f, "labels", cache.matrix)


def load_label_cache(path):
    with open(path, "rb") as f:
        header = _read_preamble(f, path, CACHE_MAGIC, "label cache")
        _check_header(header, CACHE_HEADER, path)
        _, matrix = _read_matrix(f, path)
    return LabelCache(header["taxonomy_hash"], matrix, header["meta"])
