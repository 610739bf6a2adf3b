"""Checkpoint and label-cache binary files: round trips, byte identity."""

import struct
import tracemalloc

import numpy as np
import pytest

from lsner.cli import main
from lsner.matcher import build_label_cache, predict_tags, train_stage, TrainingConfig
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
