"""Checkpoint and label-cache binary files: round trips, byte identity."""

import itertools
import json
import struct
import tracemalloc

import numpy as np
import pytest

from lsner import serialization
from lsner.autodiff import Tensor
from lsner.cli import main
from lsner.encoders import EncoderParams, build_vocabulary
from lsner.matcher import (ModelState, build_label_cache, init_model, predict_tags,
                           train_stage, TrainingConfig)
from lsner.numeric import CONTEXTUALIZER_KINDS, ParamGroup
from lsner.serialization import (load_checkpoint, load_label_cache,
                                 save_checkpoint, save_label_cache)


@pytest.fixture
def trained_model(tiny_dataset, small_model):
    train_stage(small_model, tiny_dataset, TrainingConfig(finetune_epochs=2))
    return small_model


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, trained_model, tiny_dataset,
                                             tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(trained_model, path)
        back = load_checkpoint(path)

        assert back.vocab.tokens == trained_model.vocab.tokens
        assert back.taxonomy.types == trained_model.taxonomy.types
        assert back.config == trained_model.config
        for a, b in zip(trained_model.param_groups(), back.param_groups()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.values, b.values)
        for s in tiny_dataset.sentences:
            assert predict_tags(back, s) == predict_tags(trained_model, s)

    def test_resave_is_byte_identical(self, trained_model, tmp_path):
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(trained_model, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_tied_table_stored_once(self, trained_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(trained_model, path)
        back = load_checkpoint(path)
        assert back.tied

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTLSN" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_lowercase_key_from_older_headers_round_trips(self, trained_model,
                                                         tmp_path):
        trained_model.config["lowercase"] = True
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(trained_model, first)
        save_checkpoint(load_checkpoint(first), second)
        assert b'"lowercase":true' in first.read_bytes()
        assert first.read_bytes() == second.read_bytes()

    def test_case_sensitive_checkpoint_rejected(self, trained_model, tmp_path):
        trained_model.config["lowercase"] = False
        path = tmp_path / "cased.ckpt"
        save_checkpoint(trained_model, path)
        with pytest.raises(ValueError, match="cased.ckpt: case-sensitive"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, trained_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(trained_model, path)
        blob = bytearray(path.read_bytes())
        blob[6:10] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)


class TestLabelCacheFile:
    def test_round_trip(self, trained_model, tmp_path):
        cache = build_label_cache(trained_model)
        path = tmp_path / "labels.bin"
        save_label_cache(cache, path)
        back = load_label_cache(path)
        assert back.taxonomy_hash == cache.taxonomy_hash
        assert back.meta == cache.meta
        np.testing.assert_array_equal(back.matrix, cache.matrix)

    def test_resave_is_byte_identical(self, trained_model, tmp_path):
        cache = build_label_cache(trained_model)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_label_cache(cache, a)
        save_label_cache(load_label_cache(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"LSNER1" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a label cache"):
            load_label_cache(path)


class TestMalformedFiles:
    @pytest.fixture
    def files(self, trained_model, tmp_path):
        ckpt, cache = tmp_path / "m.ckpt", tmp_path / "labels.bin"
        save_checkpoint(trained_model, ckpt)
        save_label_cache(build_label_cache(trained_model), cache)
        return {"checkpoint": (ckpt, load_checkpoint),
                "label cache": (cache, load_label_cache)}

    @pytest.mark.parametrize("kind", ["checkpoint", "label cache"])
    def test_every_truncation_names_the_file(self, files, tmp_path, kind):
        path, load = files[kind]
        blob = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(ValueError) as err:
                load(cut)
            message = str(err.value)
            # a cut inside the magic cannot be told from another file type
            expected = f"not a {kind} file" if n < 6 else "truncated "
            assert message.startswith(f"{cut}: {expected}"), (n, message)

    @pytest.mark.parametrize("kind, n, section", [
        ("checkpoint", 8, "version"), ("checkpoint", 40, "header"),
        ("checkpoint", -1, "section embedding"),
        ("label cache", 12, "header"), ("label cache", -9, "section labels")])
    def test_predict_exits_2_on_a_truncated_file(self, files, trained_model, tmp_path,
                                                 capsys, kind, n, section):
        ckpt = files["checkpoint"][0]
        path = files[kind][0]
        cut = tmp_path / f"cut-{path.name}"
        cut.write_bytes(path.read_bytes()[:n])
        sentences = tmp_path / "in.conll"
        sentences.write_text("John O\nlives O\n")
        argv = (["predict", "--checkpoint", str(cut)] if kind == "checkpoint" else
                ["predict", "--checkpoint", str(ckpt), "--cache", str(cut)])
        assert main(argv + [str(sentences), str(tmp_path / "out.conll")]) == 2
        assert capsys.readouterr().err == f"error: {cut}: truncated {section}\n"

    def test_oversized_length_field_is_refused_before_reading(self, files, tmp_path):
        # a section claiming 32 MB in a file of a few KB: refused as truncated
        # without allocating the claimed size first
        path = files["checkpoint"][0]
        blob = bytearray(path.read_bytes())
        at = blob.rindex(b"embedding") + len(b"embedding")
        blob[at:at + 8] = struct.pack("<II", 1 << 12, 1 << 10)
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="m.ckpt: truncated section embedding"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 << 22)

    def test_unknown_and_missing_parameter_names_rejected(self, trained_model, tmp_path):
        trained_model.param_groups()[0].name = "bogus"
        path = tmp_path / "renamed.ckpt"
        save_checkpoint(trained_model, path)
        with pytest.raises(ValueError, match=(
                r"renamed.ckpt: unknown parameters \['bogus'\], "
                r"missing parameters \['embedding'\]")):
            load_checkpoint(path)


def reference_init_contextualizer(kind, dim, rng, prefix="ctx"):
    """`init_contextualizer` before loads built models from arrays, verbatim."""
    if kind not in CONTEXTUALIZER_KINDS:
        raise ValueError(f"unknown contextualizer kind {kind!r}")
    params = {}

    def group(name, shape, std):
        t = Tensor(rng.normal(0.0, std, size=shape))
        params[name] = ParamGroup(f"{prefix}.{name}", t)

    if kind == "window-mixer":
        # identity on the token block keeps the embedding prior at init
        mix = np.zeros((3 * dim, dim))
        mix[:dim] = np.eye(dim)
        mix[dim:] = rng.normal(0.0, 0.1 / np.sqrt(dim), size=(2 * dim, dim))
        params["mix"] = ParamGroup(f"{prefix}.mix", Tensor(mix))
    elif kind == "self-attention":
        std = 1.0 / np.sqrt(dim)
        group("wq", (dim, dim), std)
        group("wk", (dim, dim), std)
        group("wv", (dim, dim), std)
        # small output map keeps the residual branch dominant at init
        group("wo", (dim, dim), 0.1 * std)
    return params


def reference_init_model(vocab, taxonomy, dim=32, seed=0, token_ctx="self-attention",
                         label_ctx="identity", label_pool=None, tie_embeddings=True,
                         caps_feature=True, window=2, static_table=None, config=None):
    """`init_model` before loads built models from arrays, verbatim."""
    rng = np.random.default_rng(seed)
    if static_table is not None:
        table = np.asarray(static_table, dtype=float)
        if table.shape != (len(vocab), dim):
            raise ValueError(f"static table shape {table.shape} != {(len(vocab), dim)}")
    else:
        table = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(len(vocab), dim))
    embedding = ParamGroup("embedding", Tensor(table))

    token_params = EncoderParams(
        embedding=embedding,
        ctx_kind=token_ctx,
        ctx_params=reference_init_contextualizer(token_ctx, dim, rng, prefix="tok"),
        caps=ParamGroup("caps", Tensor(np.zeros((4, dim)))) if caps_feature else None,
        window=window)

    if tie_embeddings:
        label_embedding = embedding
    else:
        label_embedding = ParamGroup(
            "label_embedding",
            Tensor(rng.normal(0.0, 1.0 / np.sqrt(dim), size=(len(vocab), dim))))
    if label_pool is None:
        label_pool = "max" if label_ctx == "identity" else "first"
    label_params = EncoderParams(
        embedding=label_embedding,
        ctx_kind=label_ctx,
        ctx_params=reference_init_contextualizer(label_ctx, dim, rng, prefix="lab"),
        pool=label_pool, window=window)

    model = ModelState(vocab, token_params, label_params, seed=seed,
                       config=dict(config or {}))
    model.config.setdefault("dim", dim)
    model.config.setdefault("token_ctx", token_ctx)
    model.config.setdefault("label_ctx", label_ctx)
    model.config.setdefault("label_pool", label_pool)
    model.config.setdefault("tie_embeddings", tie_embeddings)
    model.config.setdefault("caps_feature", caps_feature)
    model.config.setdefault("window", window)
    model.set_taxonomy(taxonomy)
    return model


MODEL_KINDS = [dict(token_ctx=t, label_ctx=lab, tie_embeddings=tie, caps_feature=caps)
               for t, lab, tie, caps in itertools.product(
                   CONTEXTUALIZER_KINDS, CONTEXTUALIZER_KINDS, (True, False), (True, False))]


def kind_id(kind):
    return "{token_ctx}/{label_ctx}/{tie}/{caps}".format(
        tie="tied" if kind["tie_embeddings"] else "untied",
        caps="caps" if kind["caps_feature"] else "nocaps", **kind)


def param_bytes(model):
    return [(g.name, g.values.tobytes()) for g in model.param_groups()]


class TestDirectLoad:
    """A load wraps the file's arrays in a model; nothing is drawn and thrown away."""

    @pytest.fixture
    def vocab(self, tiny_dataset):
        return build_vocabulary(tiny_dataset.sentences,
                                extra_tokens=["begin", "inside", "other", "person", "location"])

    @pytest.mark.parametrize("kind", MODEL_KINDS, ids=kind_id)
    def test_init_model_matches_reference(self, vocab, tiny_dataset, kind):
        model = init_model(vocab, tiny_dataset.taxonomy, dim=6, seed=11, window=1, **kind)
        ref = reference_init_model(vocab, tiny_dataset.taxonomy, dim=6, seed=11, window=1,
                                   **kind)
        assert param_bytes(model) == param_bytes(ref)
        assert model.config == ref.config
        assert model.tied == ref.tied
        for side in ("token_params", "label_params"):
            new, old = getattr(model, side), getattr(ref, side)
            assert list(new.ctx_params) == list(old.ctx_params)
            assert [g.name for g in new.groups()] == [g.name for g in old.groups()]
            assert (new.ctx_kind, new.window) == (old.ctx_kind, old.window)
        assert model.label_params.pool == ref.label_params.pool

    @pytest.mark.parametrize("kind", MODEL_KINDS, ids=kind_id)
    def test_load_keeps_arrays_and_bytes(self, vocab, tiny_dataset, kind, tmp_path):
        model = init_model(vocab, tiny_dataset.taxonomy, dim=6, seed=11, window=1, **kind)
        train_stage(model, tiny_dataset, TrainingConfig(finetune_epochs=1))
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, first)
        back = load_checkpoint(first)
        save_checkpoint(back, second)
        assert first.read_bytes() == second.read_bytes()
        assert param_bytes(back) == param_bytes(model)
        assert back.tied == kind["tie_embeddings"]
        groups = back.param_groups()
        for g in groups:
            flags = g.values.flags
            assert flags.c_contiguous and flags.aligned and flags.writeable, g.name
            assert g.values.dtype == np.float64
        for a, b in itertools.combinations(groups, 2):
            assert not np.shares_memory(a.values, b.values), (a.name, b.name)

    def test_load_draws_no_model(self, trained_model, tmp_path, monkeypatch):
        calls = []

        def counting_init_model(*args, **kwargs):
            calls.append(args)
            return init_model(*args, **kwargs)
        monkeypatch.setattr(serialization, "init_model", counting_init_model)
        path = tmp_path / "m.ckpt"
        save_checkpoint(trained_model, path)
        load_checkpoint(path)
        assert calls == []

    @pytest.mark.parametrize("kind", [MODEL_KINDS[0], MODEL_KINDS[-1]], ids=kind_id)
    def test_finetuning_a_loaded_model_matches_the_saved_one(self, vocab, tiny_dataset,
                                                             kind, tmp_path):
        model = init_model(vocab, tiny_dataset.taxonomy, dim=8, seed=4, **kind)
        train_stage(model, tiny_dataset, TrainingConfig(finetune_epochs=2, seed=1))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        config = TrainingConfig(finetune_epochs=4, batch_size=2, seed=2)
        in_memory = [v.hex() for v in train_stage(model, tiny_dataset, config)]
        from_file = [v.hex() for v in train_stage(loaded, tiny_dataset, config)]
        assert from_file == in_memory
        assert param_bytes(loaded) == param_bytes(model)


def rewrite_header(path, edit):
    """Replace the JSON header of a checkpoint or label cache by `edit(header)`."""
    blob = path.read_bytes()
    n = struct.unpack("<I", blob[10:14])[0]
    header = edit(json.loads(blob[14:14 + n]))
    new = json.dumps(header).encode()
    path.write_bytes(blob[:10] + struct.pack("<I", len(new)) + new + blob[14 + n:])


MISSING = object()


def setting(value, *keys):
    """A header edit that sets the value under `keys`, or deletes it when
    `value` is MISSING."""
    def edit(header):
        node = header
        for k in keys[:-1]:
            node = node[k]
        if value is MISSING:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        return header
    return edit


def without(*keys):
    return setting(MISSING, *keys)


KINDS = "one of identity, window-mixer, self-attention"
BAD_CHECKPOINT_HEADERS = [
    (without("config", "dim"), "header has no config.dim"),
    (setting("x", "config"), "header has no config.dim"),
    (setting("8", "config", "dim"), "header config.dim must be a positive integer"),
    (setting(0, "config", "dim"), "header config.dim must be a positive integer"),
    (setting("lstm", "config", "token_ctx"), f"header config.token_ctx must be {KINDS}"),
    (without("config", "label_ctx"), "header has no config.label_ctx"),
    (setting("sum", "config", "label_pool"),
     "header config.label_pool must be one of max, mean, first"),
    (setting(1, "config", "tie_embeddings"), "header config.tie_embeddings must be true or false"),
    (without("config", "caps_feature"), "header has no config.caps_feature"),
    (setting(0, "config", "window"), "header config.window must be a positive integer"),
    (setting("3", "seed"), "header seed must be an integer"),
    (without("seed"), "header has no seed"),
    (setting(5, "vocab"), "header vocab must be a list of strings holding <unk>"),
    (lambda h: setting([t for t in h["vocab"] if t != "<unk>"], "vocab")(h),
     "header vocab must be a list of strings holding <unk>"),
    (setting([["PER"]], "taxonomy"), "header taxonomy must be a list of [type, name] string pairs"),
    (setting([["PER", "person"], ["PER", "people"]], "taxonomy"),
     "header taxonomy: duplicate label 'PER'"),
    (setting("embedding", "params"), "header params must be a list of strings"),
    (lambda h: [h], "malformed header"),
]


class TestMalformedHeaders:
    @pytest.mark.parametrize("edit, message", BAD_CHECKPOINT_HEADERS,
                             ids=[m for _, m in BAD_CHECKPOINT_HEADERS])
    def test_checkpoint_header_refused_naming_the_file(self, trained_model, tmp_path,
                                                       capsys, edit, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(trained_model, path)
        rewrite_header(path, edit)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {message}"

        sentences = tmp_path / "in.conll"
        sentences.write_text("John O\nlives O\n")
        argv = ["predict", "--checkpoint", str(path), str(sentences), str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (without("taxonomy_hash"), "header has no taxonomy_hash"),
        (setting(7, "taxonomy_hash"), "header taxonomy_hash must be a string"),
        (setting([], "meta"), "header meta must be an object"),
    ])
    def test_label_cache_header_refused_naming_the_file(self, trained_model, tmp_path,
                                                        capsys, edit, message):
        ckpt, path = tmp_path / "m.ckpt", tmp_path / "labels.bin"
        save_checkpoint(trained_model, ckpt)
        save_label_cache(build_label_cache(trained_model), path)
        rewrite_header(path, edit)
        with pytest.raises(ValueError) as err:
            load_label_cache(path)
        assert str(err.value) == f"{path}: {message}"

        sentences = tmp_path / "in.conll"
        sentences.write_text("John O\nlives O\n")
        argv = ["predict", "--checkpoint", str(ckpt), "--cache", str(path),
                str(sentences), str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
