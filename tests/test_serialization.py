"""Checkpoint and label-cache binary files: round trips, byte identity."""

import numpy as np
import pytest

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
