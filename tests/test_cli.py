"""Command-line driver: sampling, training, evaluation, prediction, caching."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from lsner import cli
from lsner.cli import RunConfig, main, read_config, sha256_file
from lsner.corpus import load_conll, serialize_conll, serialize_taxonomy
from lsner.sampler import load_support, verify_kshot
from lsner.serialization import load_checkpoint, load_label_cache
from lsner.synthetic import make_task


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small on-disk corpora plus a config file pointing at them."""
    root = tmp_path_factory.mktemp("cli")
    task = make_task(seed=1, dim=8, n_source=40, n_target_train=30, n_test=10,
                     words_per_family=3, n_fillers=20)
    (root / "source.conll").write_text(serialize_conll(task.source))
    (root / "target_train.conll").write_text(serialize_conll(task.target_train))
    (root / "target_test.conll").write_text(serialize_conll(task.target_test))
    (root / "taxonomy.txt").write_text(serialize_taxonomy(task.target_train.taxonomy))
    (root / "source_taxonomy.txt").write_text(serialize_taxonomy(task.source.taxonomy))
    (root / "synonyms.txt").write_text(
        "".join(f"{t}\t{n}\n" for t, n in task.synonym_map.items()))
    (root / "run.cfg").write_text(
        f"source_corpus = {root/'source.conll'}\n"
        f"source_taxonomy = {root/'source_taxonomy.txt'}\n"
        f"target_train = {root/'target_train.conll'}\n"
        f"target_test = {root/'target_test.conll'}\n"
        f"taxonomy = {root/'taxonomy.txt'}\n"
        "dim = 8\n"
        "token_ctx = identity\n"
        "k = 1\n"
        "repeats = 1\n"
        "prefinetune_epochs = 1\n"
        "finetune_epochs = 3\n")
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace / "trained"
    rc = main(["train", "--config", str(workspace / "run.cfg"),
               "--out", str(out)])
    assert rc == 0
    return out


class TestConfig:
    def test_read_config_strips_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# top\nk = 5  # inline\n\nlr = 1e-4\n")
        assert read_config(path) == {"k": "5", "lr": "1e-4"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(Exception, match="key = value"):
            read_config(path)

    def test_missing_input_returns_error_code(self, tmp_path):
        rc = main(["eval", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("line, flags, message", [
        ("finetune_epoch = 500", [], "finetune_epoch: unknown key"),
        ("tie_embeddings = ture", [],
         "tie_embeddings: expected true or false, got 'ture'"),
        ("lr = 1e-3x", [], "lr: expected a number, got '1e-3x'"),
        ("eval_split = tst", [], "eval_split: expected one of dev, test, got 'tst'"),
        ("label_pool = mean", [], "label_pool: unknown key"),
        ("token_ctx = lstm", [], "token_ctx: expected one of identity, "
         "window-mixer, self-attention, got 'lstm'"),
        ("k = one", [], "k: expected integers, got 'one'"),
        (None, ["--rename", "shuffled"], "rename: expected one of original, "
         "meaningless, misleading, map:<file>, got 'shuffled'"),
        ("repeats = 0", [], "repeats: expected an integer >= 1, got '0'"),
        ("repeats = -1", [], "repeats: expected an integer >= 1, got '-1'"),
        ("dim = 0", [], "dim: expected an integer >= 1, got '0'"),
        ("k = 1 0", [], "k: expected integers >= 1, got '1 0'"),
        (None, ["--repeats", "0"], "repeats: expected an integer >= 1, got '0'"),
    ], ids=["typo-key", "bool", "float", "eval-split", "unreachable-key",
            "contextualizer", "k-list", "flag-value", "repeats-zero",
            "repeats-negative", "dim-zero", "k-zero", "repeats-flag"])
    def test_bad_config_rejected_before_any_corpus_loads(self, tmp_path, capsys,
                                                         line, flags, message):
        # target_train does not exist: reaching the corpus would fail with a
        # file error instead of naming the key
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"target_train = {tmp_path / 'missing.conll'}\n"
                       "k = 1\n" + (f"{line}\n" if line else ""))
        out = tmp_path / "out"
        rc = main(["train", "--config", str(cfg), "--out", str(out)] + flags)
        assert rc == 2
        where = f"{cfg}:3" if line else "command line"
        assert f"error: {where}: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_table_matches_run_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:4] for line in section.splitlines()
                if line.startswith("| `")]
        documented = {key.strip(" `"): default.strip() for key, _, default in rows}
        defaults = RunConfig().record()
        assert documented == {
            f.name: f"`{defaults[f.name]}`" if f.name in defaults else "unset"
            for f in dataclasses.fields(RunConfig)}


class TestSample:
    def test_outputs_and_manifest(self, workspace):
        out = workspace / "sampled"
        rc = main(["sample", "--config", str(workspace / "run.cfg"),
                   "--out", str(out), "--repeats", "2"])
        assert rc == 0
        target = load_conll(workspace / "target_train.conll")
        for i in range(2):
            support = load_support(out / f"support_k1_run{i}.txt")
            assert verify_kshot(target, support, 1).ok
            assert support.seed == i  # run i uses base_seed + i
        assert (out / "sample_stats.txt").read_text().startswith("k=1 runs=2")
        manifest = json.loads((out / "manifest_sample.json").read_text())
        assert manifest["command"] == "sample"
        assert str(out / "support_k1_run0.txt") in manifest["outputs"]
        assert all(len(d) == 64 for d in manifest["inputs"].values())

    def test_rerun_is_byte_identical(self, workspace):
        digests = []
        for name in ("det_a", "det_b"):
            out = workspace / name
            main(["sample", "--config", str(workspace / "run.cfg"),
                  "--out", str(out)])
            digests.append(sha256_file(out / "support_k1_run0.txt"))
        assert digests[0] == digests[1]

    def test_impossible_k_reports_failure(self, workspace):
        out = workspace / "failed"
        rc = main(["sample", "--config", str(workspace / "run.cfg"),
                   "--out", str(out), "--k", "500"])
        assert rc == 1
        assert "500" in (out / "failures.txt").read_text()


class TestTrain:
    def test_artifacts(self, workspace, trained):
        assert (trained / "support_k1_run0.txt").exists()
        assert (trained / "loss_k1_run0.txt").exists()
        model = load_checkpoint(trained / "model_k1_run0.ckpt")
        assert model.taxonomy.originals() == ["TGT3", "TGT4"]
        trace = (trained / "loss_k1_run0.txt").read_text().splitlines()
        assert sum(l.startswith("prefinetune") for l in trace) == 1
        assert sum(l.startswith("finetune") for l in trace) == 3
        manifest = json.loads((trained / "manifest_train.json").read_text())
        assert manifest["seeds"]["train_seed_offset"] == 10000

    def test_existing_support_file_reused(self, workspace, trained):
        before = sha256_file(trained / "support_k1_run0.txt")
        out2 = workspace / "train_again"
        out2.mkdir()
        (out2 / "support_k1_run0.txt").write_bytes(
            (trained / "support_k1_run0.txt").read_bytes())
        rc = main(["train", "--config", str(workspace / "run.cfg"),
                   "--out", str(out2)])
        assert rc == 0
        assert sha256_file(out2 / "support_k1_run0.txt") == before
        # same inputs and seeds => identical checkpoint bytes
        assert sha256_file(out2 / "model_k1_run0.ckpt") == \
            sha256_file(trained / "model_k1_run0.ckpt")

    def test_support_file_from_another_corpus_is_a_named_failure(self, workspace, tmp_path):
        out = tmp_path / "stale"
        assert main(["sample", "--config", str(workspace / "run.cfg"),
                     "--out", str(out)]) == 0
        rc = main(["train", "--config", str(workspace / "run.cfg"), "--out", str(out),
                   "--target-train", str(workspace / "target_test.conll")])
        assert rc == 1
        assert (out / "failures.txt").read_text() == \
            "k=1 run=0: support_k1_run0.txt: index 21 out of range (10 sentences)\n"
        assert not (out / "model_k1_run0.ckpt").exists()

    @pytest.mark.parametrize("header_k, indices, reason", [
        (2, None, "header k=2, run needs k=1"),
        (1, list(range(10)), "failed criterion2_failed"),
    ], ids=["header-k", "not-minimal"])
    def test_invalid_support_file_is_a_named_failure(self, workspace, trained, tmp_path,
                                                     header_k, indices, reason):
        sampled = load_support(trained / "support_k1_run0.txt")
        lines = [f"# dataset={sampled.dataset_name}", f"# k={header_k}", "# seed=0"]
        out = tmp_path / "invalid"
        out.mkdir()
        (out / "support_k1_run0.txt").write_text(
            "\n".join(lines + [str(i) for i in indices or sampled.indices]) + "\n")
        rc = main(["train", "--config", str(workspace / "run.cfg"), "--out", str(out)])
        assert rc == 1
        assert (out / "failures.txt").read_text() == \
            f"k=1 run=0: support_k1_run0.txt: {reason}\n"

    def test_no_prefinetune_recorded(self, workspace):
        out = workspace / "no_stage1"
        rc = main(["train", "--config", str(workspace / "run.cfg"),
                   "--out", str(out), "--no-prefinetune"])
        assert rc == 0
        manifest = json.loads((out / "manifest_train.json").read_text())
        assert manifest["config"]["prefinetune_epochs"] == "0"
        assert manifest["config"]["no_prefinetune"] == "true"

    def test_dim_flag_sets_checkpoint_dim(self, workspace):
        out = workspace / "dim16"
        rc = main(["train", "--config", str(workspace / "run.cfg"),
                   "--out", str(out), "--dim", "16"])
        assert rc == 0
        model = load_checkpoint(out / "model_k1_run0.ckpt")
        assert model.token_params.embedding.values.shape[1] == 16
        manifest = json.loads((out / "manifest_train.json").read_text())
        assert manifest["config"]["dim"] == "16"

    def test_flag_overrides_config(self, workspace):
        out = workspace / "override"
        rc = main(["train", "--config", str(workspace / "run.cfg"),
                   "--out", str(out), "--finetune-epochs", "1"])
        assert rc == 0
        trace = (out / "loss_k1_run0.txt").read_text().splitlines()
        assert sum(l.startswith("finetune") for l in trace) == 1


class TestEval:
    def test_metrics_and_summary(self, workspace, trained):
        rc = main(["eval", "--config", str(workspace / "run.cfg"),
                   "--out", str(trained)])
        assert rc == 0
        record = (trained / "metrics_k1.txt").read_text().strip()
        assert "f1=" in record and "violations=" in record
        assert "f1[TGT3]=" in record
        summary = (trained / "summary.txt").read_text()
        assert "k=1 runs=1" in summary

    def test_zero_shot_rename_leaves_checkpoint_intact(self, workspace, trained):
        ckpt = trained / "model_k1_run0.ckpt"
        before = sha256_file(ckpt)
        out = workspace / "zeroshot"
        rc = main(["eval", "--config", str(workspace / "run.cfg"),
                   "--out", str(out), "--checkpoint", str(ckpt),
                   "--zero-shot", "--rename",
                   f"map:{workspace / 'synonyms.txt'}"])
        assert rc == 0
        assert sha256_file(ckpt) == before
        assert (out / "summary.txt").read_text().strip()


class TestPredict:
    def test_tags_every_token(self, workspace, trained, tmp_path):
        out_file = tmp_path / "pred.conll"
        rc = main(["predict", "--checkpoint",
                   str(trained / "model_k1_run0.ckpt"),
                   str(workspace / "target_test.conll"), str(out_file)])
        assert rc == 0
        pred = load_conll(out_file)
        gold = load_conll(workspace / "target_test.conll")
        assert [len(s) for s in pred.sentences] == [len(s) for s in gold.sentences]
        assert [s.tokens for s in pred.sentences] == \
            [s.tokens for s in gold.sentences]

    def test_cache_round_trip_is_byte_identical(self, workspace, trained, tmp_path):
        ckpt = str(trained / "model_k1_run0.ckpt")
        inp = str(workspace / "target_test.conll")
        fresh, cached = tmp_path / "fresh.conll", tmp_path / "cached.conll"
        cache_path = tmp_path / "labels.bin"
        main(["predict", "--checkpoint", ckpt, "--cache-out", str(cache_path),
              inp, str(fresh)])
        main(["predict", "--checkpoint", ckpt, "--cache", str(cache_path),
              inp, str(cached)])
        assert fresh.read_bytes() == cached.read_bytes()

    def test_tokens_only_input(self, workspace, trained, tmp_path):
        inp = tmp_path / "raw.txt"
        inp.write_text("ent3x0\nfill1\n\nfill2\n")
        out_file = tmp_path / "out.conll"
        rc = main(["predict", "--checkpoint",
                   str(trained / "model_k1_run0.ckpt"), str(inp),
                   str(out_file)])
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert len([l for l in lines if l]) == 3

    def test_handler_patched_after_first_call_is_reached(self, workspace, trained,
                                                         tmp_path, monkeypatch):
        # the parser is built once per process; the handler must be looked up
        # on every call, not captured when the parser was built
        argv = ["predict", "--checkpoint", str(trained / "model_k1_run0.ckpt"),
                str(workspace / "target_test.conll"), str(tmp_path / "out.conll")]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_predict", lambda args: seen.append(args) or 7)
        assert main(argv) == 7
        assert len(seen) == 1 and seen[0].output == argv[-1]

    def test_empty_input_gives_empty_output(self, workspace, trained, tmp_path):
        inp = tmp_path / "empty.txt"
        inp.write_text("")
        out_file = tmp_path / "out.conll"
        rc = main(["predict", "--checkpoint",
                   str(trained / "model_k1_run0.ckpt"), str(inp),
                   str(out_file)])
        assert rc == 0
        assert out_file.read_text() == ""


class TestCacheLabels:
    def test_writes_label_matrix(self, trained, tmp_path):
        out_file = tmp_path / "labels.bin"
        rc = main(["cache-labels", "--checkpoint",
                   str(trained / "model_k1_run0.ckpt"),
                   "--out", str(out_file)])
        assert rc == 0
        cache = load_label_cache(out_file)
        assert cache.matrix.shape[0] == 5  # two types -> 2*3 - 1 labels
