"""Command-line driver: sampling, training, evaluation, prediction, caching."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from lsner import cli
from lsner.cli import RunConfig, config_entries, main, sha256_file
from lsner.corpus import load_conll, serialize_conll, serialize_taxonomy
from lsner.matcher import LabelCache
from lsner.sampler import load_support, sample_support, verify_kshot
from lsner.serialization import load_checkpoint, load_label_cache, save_label_cache
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
        assert list(config_entries(path)) == [(2, "k", "5"), (4, "lr", "1e-4")]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(Exception, match="key = value"):
            list(config_entries(path))

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

    def test_unknown_scheme_rejected_before_any_corpus_loads(self, tmp_path, capsys):
        rc = main(["train", "--target-train", str(tmp_path / "missing.conll"),
                   "--scheme", "contextual:NOPE", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: command line: scheme: unknown contextual sub-scheme 'NOPE'\n"

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

    @pytest.mark.parametrize("command", ["sample", "train"])
    def test_fresh_draw_that_fails_verification_is_a_named_failure(self, workspace, tmp_path,
                                                                   monkeypatch, command):
        def padded_sample_support(dataset, k, rng):  # one sentence too many
            support = sample_support(dataset, k, rng)
            support.indices.append(min(set(range(len(dataset.sentences))) - set(support.indices)))
            return support
        monkeypatch.setattr(cli, "sample_support", padded_sample_support)
        out = tmp_path / command
        rc = main([command, "--config", str(workspace / "run.cfg"), "--out", str(out)])
        assert rc == 1
        assert (out / "failures.txt").read_text() == \
            "k=1 run=0: sampled set failed criterion2_failed\n"
        assert not (out / "support_k1_run0.txt").exists()
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

    @pytest.mark.parametrize("lines, lineno, error", [
        (["# dataset=d", "# k=1", "# seed=0", "abc"], 4,
         "invalid literal for int() with base 10: 'abc'"),
        (["# dataset=d", "# k=one", "# seed=0", "0"], 2,
         "invalid literal for int() with base 10: 'one'"),
    ], ids=["index", "header-k"])
    def test_unreadable_support_file_names_file_and_line(self, workspace, tmp_path,
                                                         lines, lineno, error):
        out = tmp_path / "unreadable"
        out.mkdir()
        (out / "support_k1_run0.txt").write_text("\n".join(lines) + "\n")
        rc = main(["train", "--config", str(workspace / "run.cfg"), "--out", str(out)])
        assert rc == 1
        assert (out / "failures.txt").read_text() == \
            f"k=1 run=0: {out / 'support_k1_run0.txt'}:{lineno}: {error}\n"

    def test_static_vectors_read_once_per_command(self, workspace, tmp_path, monkeypatch,
                                                  capsys):
        vectors = tmp_path / "vecs.txt"
        vectors.write_text("".join(f"{w} " + " ".join(["0.5"] * 8) + "\n"
                                   for w in ("begin", "inside", "other")))
        load, reads = cli.load_static_vectors, []
        monkeypatch.setattr(cli, "load_static_vectors",
                            lambda path, dim: reads.append(path) or load(path, dim))
        rc = main(["train", "--config", str(workspace / "run.cfg"), "--out",
                   str(tmp_path / "out"), "--repeats", "2", "--static-vectors", str(vectors)])
        assert rc == 0
        assert reads == [str(vectors)]
        assert capsys.readouterr().out.count("static vector coverage: ") == 2

    @pytest.mark.parametrize("text, error", [
        ("a " + " ".join(["1"] * 8) + "\nb 1 2 3 4 5 6 7 x\n",
         "vecs.txt:2: could not convert string to float: 'x'"),
        ("a 1 2\n", "vecs.txt:1: vector has 2 dims, expected 8"),
        (None, "No such file or directory: '"),
    ], ids=["non-number", "dims", "missing"])
    def test_bad_static_vectors_are_one_command_error(self, workspace, tmp_path, capsys,
                                                      text, error):
        vectors = tmp_path / "vecs.txt"
        if text is not None:
            vectors.write_text(text)
        out = tmp_path / "out"
        rc = main(["train", "--config", str(workspace / "run.cfg"), "--out", str(out),
                   "--repeats", "2", "--static-vectors", str(vectors)])
        assert rc == 2
        err = capsys.readouterr().err
        assert error in err and str(vectors) in err
        assert list(out.iterdir()) == []

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

    @pytest.mark.parametrize("rename", ["original", "misleading", "map"])
    def test_target_corpus_read_once_without_taxonomy_key(self, workspace, tmp_path,
                                                          monkeypatch, rename):
        if rename == "map":
            rename = f"map:{workspace / 'synonyms.txt'}"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in
                               (workspace / "run.cfg").read_text().splitlines()
                               if not line.startswith("taxonomy ")))
        argv = ["train", "--config", str(cfg), "--k", "1 2", "--repeats", "3",
                "--rename", rename]
        reads = []

        def counting_load_conll(path, taxonomy=None):
            reads.append(Path(path))
            return load_conll(path, taxonomy=taxonomy)

        monkeypatch.setattr(cli, "load_conll", counting_load_conll)
        assert main(argv + ["--out", str(tmp_path / "once")]) == 0
        assert reads.count(workspace / "target_train.conll") == 1

        # the per-run re-read this replaces, kept verbatim as the reference
        def reference_target_taxonomy(cfg, run_index=0):
            base = (cli.load_taxonomy(cfg.taxonomy) if cfg.taxonomy is not None
                    else cli._load_target(cfg, "train").taxonomy)
            if cfg.rename.startswith("map:"):
                mapping = dict(cli.load_taxonomy(cfg.rename[4:]).types)
                return cli.rename_taxonomy(base, "custom", mapping=mapping)
            rng = np.random.default_rng(cfg.base_seed + cli.RENAME_SEED_OFFSET + run_index)
            return cli.rename_taxonomy(base, cfg.rename, rng=rng)

        monkeypatch.setattr(cli, "_run_taxonomy", lambda cfg, base: (
            lambda run_index: reference_target_taxonomy(cfg, run_index)))
        assert main(argv + ["--out", str(tmp_path / "per_run")]) == 0
        assert reads.count(workspace / "target_train.conll") == 1 + 1 + 6
        files = sorted(p.name for p in (tmp_path / "once").iterdir()
                       if not p.name.startswith("manifest"))
        assert len(files) == 3 * 2 * 3
        for name in files:
            assert (tmp_path / "once" / name).read_bytes() == \
                (tmp_path / "per_run" / name).read_bytes()


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


def with_bad_byte(source, dest, line=2):
    """Copy `source` to `dest` with a byte that is not UTF-8 opening line `line`."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    dest.write_bytes(b"".join(lines))
    return dest


class TestInputErrors:
    @pytest.mark.parametrize("reader", ["config", "target_train", "taxonomy",
                                        "static_vectors", "support", "predict_input"])
    def test_text_that_is_not_utf8_names_file_and_line(self, workspace, trained, tmp_path,
                                                       capsys, reader):
        cfg, out = workspace / "run.cfg", tmp_path / "out"
        out.mkdir()
        argv = ["train", "--config", str(cfg), "--out", str(out)]
        if reader == "config":
            bad = with_bad_byte(cfg, tmp_path / "run.cfg")
            argv[2] = str(bad)
        elif reader in ("target_train", "taxonomy"):
            name = "target_train.conll" if reader == "target_train" else "taxonomy.txt"
            bad = with_bad_byte(workspace / name, tmp_path / name)
            argv += ["--" + reader.replace("_", "-"), str(bad)]
        elif reader == "static_vectors":
            bad = tmp_path / "vecs.txt"
            bad.write_text("".join(f"{w} " + " ".join(["0.5"] * 8) + "\n" for w in "ab"))
            with_bad_byte(bad, bad)
            argv += ["--static-vectors", str(bad)]
        elif reader == "support":
            bad = with_bad_byte(trained / "support_k1_run0.txt", out / "support_k1_run0.txt")
        else:
            bad = with_bad_byte(workspace / "target_test.conll", tmp_path / "in.conll")
            argv = ["predict", "--checkpoint", str(trained / "model_k1_run0.ckpt"),
                    str(bad), str(out / "pred.conll")]
        message = f"{bad}:2: not UTF-8 text"
        rc = main(argv)
        if reader == "support":  # a reused support file fails its run only
            assert rc == 1
            assert (out / "failures.txt").read_text() == f"k=1 run=0: {message}\n"
        else:
            assert rc == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_failed_predict_leaves_no_cache_and_no_output(self, workspace, trained, tmp_path,
                                                          capsys):
        bad = with_bad_byte(workspace / "target_test.conll", tmp_path / "in.conll")
        cache, pred = tmp_path / "labels.bin", tmp_path / "pred.conll"
        rc = main(["predict", "--checkpoint", str(trained / "model_k1_run0.ckpt"),
                   "--cache-out", str(cache), str(bad), str(pred)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}:2: not UTF-8 text\n"
        assert not cache.exists() and not pred.exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_directory_path_is_a_named_error(self, workspace, tmp_path, capsys, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        if command == "train":
            argv = ["train", "--config", str(folder), "--out", str(tmp_path / "out")]
        else:
            argv = ["predict", "--checkpoint", str(folder),
                    str(workspace / "target_test.conll"), str(tmp_path / "pred.conll")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err

    @pytest.mark.parametrize("edit, error", [
        (lambda c: LabelCache(c.taxonomy_hash, np.vstack([c.matrix, c.matrix[:2]])),
         "label matrix (7, 8), the model needs (5, 8)"),
        (lambda c: LabelCache(c.taxonomy_hash, c.matrix[:2]),
         "label matrix (2, 8), the model needs (5, 8)"),
        (lambda c: LabelCache(c.taxonomy_hash, c.matrix[:, :4]),
         "label matrix (5, 4), the model needs (5, 8)"),
        (lambda c: LabelCache("0" * 64, c.matrix),
         "label cache does not match the taxonomy"),
    ], ids=["extra-rows", "two-rows", "half-columns", "other-taxonomy"])
    def test_predict_refuses_a_cache_that_does_not_fit(self, workspace, trained, tmp_path,
                                                       capsys, edit, error):
        ckpt = str(trained / "model_k1_run0.ckpt")
        good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
        assert main(["cache-labels", "--checkpoint", ckpt, "--out", str(good)]) == 0
        save_label_cache(edit(load_label_cache(good)), bad)
        pred = tmp_path / "pred.conll"
        rc = main(["predict", "--checkpoint", ckpt, "--cache", str(bad),
                   str(workspace / "target_test.conll"), str(pred)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --cache {bad}: {error}\n"
        assert not pred.exists()
