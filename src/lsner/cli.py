"""Experiment driver: sampling, training, evaluation, caching, prediction.

Configuration is a flat ``key = value`` text file; the keys that have a
flag (see `build_parser`) can be overridden on the command line (flags
win). Run i of a command uses base_seed + i for sampling and
base_seed + 10000 + i for training, so the two are independently
reproducible.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (Sentence, conll_sentences, load_conll, load_taxonomy,
                     rename_taxonomy)
from .encoders import build_vocabulary, load_static_vectors
from .evaluation import aggregate_runs, evaluate_dataset, result_record
from .matcher import TrainingConfig, build_label_cache, init_model, predict_tags, run_two_stage
from .sampler import (load_support, sample_support, serialize_support,
                      support_dataset, verify_kshot)
from .serialization import (load_checkpoint, load_label_cache,
                            save_checkpoint, save_label_cache)

TRAIN_SEED_OFFSET = 10000
RENAME_SEED_OFFSET = 20000


class CliError(RuntimeError):
    pass


def read_config(path):
    cfg = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


DEFAULTS = {
    "k": "1", "repeats": "10", "base_seed": "0", "dim": "32",
    "lr": "1e-3", "batch_size": "10", "prefinetune_epochs": "3",
    "finetune_epochs": "200", "scheme": "name", "rename": "original",
    "tie_embeddings": "true", "caps_feature": "true",
    "token_ctx": "self-attention", "label_ctx": "identity",
    "min_freq": "1", "eval_split": "test",
}


def merged_config(args):
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(read_config(args.config))
    for key in ("k", "repeats", "base_seed", "out", "scheme", "rename",
                "rename_map", "static_vectors", "tie_embeddings", "seed",
                "eval_split", "finetune_epochs", "prefinetune_epochs"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            cfg[key] = str(value)
    if getattr(args, "no_prefinetune", False):
        cfg["prefinetune_epochs"] = "0"
        cfg["no_prefinetune"] = "true"
    if getattr(args, "seed", None) is not None:
        cfg["base_seed"] = str(args.seed)
    return cfg


def _bool(value):
    return str(value).lower() in ("1", "true", "yes", "on")


def _k_list(cfg):
    return [int(x) for x in str(cfg["k"]).replace(",", " ").split()]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command, cfg, seeds, inputs, outputs):
    manifest = {
        "command": command,
        "version": __version__,
        "config": cfg,
        "seeds": seeds,
        "inputs": {str(p): sha256_file(p) for p in inputs if Path(p).exists()},
        "outputs": {str(p): sha256_file(p) for p in outputs if Path(p).exists()},
    }
    path = Path(out_dir) / f"manifest_{command}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _load_target(cfg, split="train"):
    key = {"train": "target_train", "dev": "target_dev", "test": "target_test"}[split]
    if key not in cfg:
        raise CliError(f"config is missing {key}")
    taxonomy = load_taxonomy(cfg["taxonomy"]) if "taxonomy" in cfg else None
    return load_conll(cfg[key], taxonomy=taxonomy)


def _target_taxonomy(cfg, run_index=0):
    """Target taxonomy after the configured rename mode."""
    base = (load_taxonomy(cfg["taxonomy"]) if "taxonomy" in cfg
            else _load_target(cfg, "train").taxonomy)
    mode = cfg.get("rename", "original")
    if mode.startswith("map:"):
        cfg = dict(cfg, rename_map=mode[4:])
        mode = "custom"
    if mode == "custom":
        mapping = {o: n for o, n in load_taxonomy(cfg["rename_map"]).types}
        return rename_taxonomy(base, "custom", mapping=mapping)
    rng = np.random.default_rng(int(cfg["base_seed"]) + RENAME_SEED_OFFSET + run_index)
    return rename_taxonomy(base, mode, rng=rng)


def cmd_sample(args):
    cfg = merged_config(args)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    target = _load_target(cfg, "train")
    base_seed = int(cfg["base_seed"])
    repeats = int(cfg["repeats"])

    outputs = []
    stats_rows = []
    failures = []
    for k in _k_list(cfg):
        sizes = []
        for i in range(repeats):
            seed = base_seed + i
            try:
                rng = np.random.default_rng(seed)
                support = sample_support(target, k, rng)
                support.seed = seed
                verdict = verify_kshot(target, support, k)
                if not verdict.ok:
                    raise RuntimeError(f"sampled set failed {verdict.reason}")
            except Exception as exc:
                failures.append(f"k={k} run={i}: {exc}")
                continue
            path = out_dir / f"support_k{k}_run{i}.txt"
            path.write_text(serialize_support(support), encoding="utf-8")
            outputs.append(path)
            sizes.append(len(support.indices))
        if sizes:
            summary = aggregate_runs(sizes)
            stats_rows.append(f"k={k} runs={len(sizes)} "
                              f"mean_sentences={summary.mean:.2f} std={summary.std:.2f}")

    stats = out_dir / "sample_stats.txt"
    stats.write_text("\n".join(stats_rows) + "\n", encoding="utf-8")
    outputs.append(stats)
    _flush_failures(out_dir, failures)
    write_manifest(out_dir, "sample", cfg,
                   {"base_seed": base_seed, "repeats": repeats},
                   [cfg.get("target_train"), cfg.get("taxonomy")], outputs)
    print(stats.read_text(), end="")
    return 1 if failures else 0


def _build_model_for_run(cfg, source, target, taxonomy, train_seed):
    extra = ["begin", "inside", "other"]
    for tax in ([source.taxonomy] if source else []) + [taxonomy]:
        for _, natural in tax.types:
            extra.extend(natural.split())
    sentences = (source.sentences if source else []) + target.sentences
    vocab = build_vocabulary(sentences, min_freq=int(cfg["min_freq"]),
                             extra_tokens=extra)
    static_table = None
    if cfg.get("static_vectors"):
        rng = np.random.default_rng(train_seed)
        static_table, coverage = load_static_vectors(
            cfg["static_vectors"], vocab, int(cfg["dim"]), rng)
        print(f"static vector coverage: {coverage:.3f}")
    return init_model(vocab, taxonomy, dim=int(cfg["dim"]), seed=train_seed,
                      token_ctx=cfg["token_ctx"], label_ctx=cfg["label_ctx"],
                      tie_embeddings=_bool(cfg["tie_embeddings"]),
                      caps_feature=_bool(cfg["caps_feature"]),
                      static_table=static_table)


def cmd_train(args):
    cfg = merged_config(args)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    base_seed = int(cfg["base_seed"])
    repeats = int(cfg["repeats"])
    prefinetune = int(cfg["prefinetune_epochs"]) > 0 and "source_corpus" in cfg

    source = None
    if prefinetune:
        source_tax = (load_taxonomy(cfg["source_taxonomy"])
                      if "source_taxonomy" in cfg else None)
        source = load_conll(cfg["source_corpus"], taxonomy=source_tax)
        source.role = "source"
    target = _load_target(cfg, "train")

    outputs = []
    failures = []
    for k in _k_list(cfg):
        for i in range(repeats):
            sample_seed = base_seed + i
            train_seed = base_seed + TRAIN_SEED_OFFSET + i
            try:
                support_path = out_dir / f"support_k{k}_run{i}.txt"
                if support_path.exists():
                    support = load_support(support_path)
                else:
                    support = sample_support(target, k, np.random.default_rng(sample_seed))
                    support.seed = sample_seed
                    support_path.write_text(serialize_support(support), encoding="utf-8")
                    outputs.append(support_path)

                taxonomy = _target_taxonomy(cfg, run_index=i)
                renamed_target = type(target)(target.name, target.sentences,
                                              taxonomy, role=target.role)
                model = _build_model_for_run(cfg, source, target, taxonomy,
                                             train_seed)
                tconf = TrainingConfig(
                    learning_rate=float(cfg["lr"]),
                    batch_size=int(cfg["batch_size"]),
                    prefinetune_epochs=int(cfg["prefinetune_epochs"]),
                    finetune_epochs=int(cfg["finetune_epochs"]),
                    seed=train_seed, scheme=cfg["scheme"])
                _, traces = run_two_stage(
                    model, source, support_dataset(renamed_target, support), tconf)

                ckpt = out_dir / f"model_k{k}_run{i}.ckpt"
                save_checkpoint(model, ckpt)
                outputs.append(ckpt)
                trace_path = out_dir / f"loss_k{k}_run{i}.txt"
                lines = []
                for stage, trace in traces.items():
                    lines += [f"{stage} epoch={e} loss={v:.6f}"
                              for e, v in enumerate(trace)]
                trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                outputs.append(trace_path)
            except Exception as exc:
                failures.append(f"k={k} run={i}: {exc}")

    _flush_failures(out_dir, failures)
    inputs = [cfg.get("source_corpus"), cfg.get("target_train"),
              cfg.get("taxonomy"), cfg.get("source_taxonomy"),
              cfg.get("static_vectors")]
    write_manifest(out_dir, "train", cfg,
                   {"base_seed": base_seed, "repeats": repeats,
                    "train_seed_offset": TRAIN_SEED_OFFSET},
                   [p for p in inputs if p], outputs)
    return 1 if failures else 0


def cmd_eval(args):
    cfg = merged_config(args)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    repeats = int(cfg["repeats"])
    split = cfg.get("eval_split", "test")
    corpus = _load_target(cfg, split)

    outputs = []
    failures = []
    summary_rows = []
    for k in _k_list(cfg):
        records = []
        scores = []
        for i in range(repeats):
            ckpt = Path(args.checkpoint) if getattr(args, "checkpoint", None) \
                else out_dir / f"model_k{k}_run{i}.ckpt"
            try:
                model = load_checkpoint(ckpt)
                before = sha256_file(ckpt)
                if args.zero_shot:
                    model.set_taxonomy(_target_taxonomy(cfg, run_index=i))
                eval_corpus = type(corpus)(corpus.name, corpus.sentences,
                                           model.taxonomy, role=corpus.role)
                result = evaluate_dataset(model, eval_corpus)
                if sha256_file(ckpt) != before:
                    raise RuntimeError("checkpoint mutated during evaluation")
                records.append(result_record(result, dataset=corpus.name, k=k,
                                             seed=int(cfg["base_seed"]) + i))
                scores.append(result.overall.f1)
            except Exception as exc:
                failures.append(f"k={k} run={i}: {exc}")
        metrics_path = out_dir / f"metrics_k{k}.txt"
        metrics_path.write_text("\n".join(records) + "\n", encoding="utf-8")
        outputs.append(metrics_path)
        if scores:
            summary = aggregate_runs(scores)
            summary_rows.append(
                f"{corpus.name} k={k} runs={len(scores)} "
                f"f1={100 * summary.mean:.1f}+-{100 * summary.std:.1f}")

    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(summary_rows) + "\n", encoding="utf-8")
    outputs.append(summary_path)
    _flush_failures(out_dir, failures)
    write_manifest(out_dir, "eval", cfg, {"repeats": repeats},
                   [cfg.get(f"target_{split}"), cfg.get("taxonomy")], outputs)
    print(summary_path.read_text(), end="")
    return 1 if failures else 0


def cmd_predict(args):
    model = load_checkpoint(args.checkpoint)
    cache = None
    if args.cache:
        cache = load_label_cache(args.cache)
    else:
        cache = build_label_cache(model)
        if args.cache_out:
            save_label_cache(cache, args.cache_out)

    lines = []
    with open(args.input, encoding="utf-8") as f:
        for rows in conll_sentences(f):
            tokens = [cols[0] for _, cols in rows]
            sentence = Sentence(tokens, ["O"] * len(tokens))
            tags = predict_tags(model, sentence, cache=cache)
            lines += [f"{tok} {tag}" for tok, tag in zip(tokens, tags)]
            lines.append("")
    Path(args.output).write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return 0


def cmd_cache_labels(args):
    model = load_checkpoint(args.checkpoint)
    cache = build_label_cache(model)
    save_label_cache(cache, args.out)
    print(f"cached {cache.matrix.shape[0]} label vectors")
    return 0


def _flush_failures(out_dir, failures):
    if failures:
        (Path(out_dir) / "failures.txt").write_text(
            "\n".join(failures) + "\n", encoding="utf-8")
        for f in failures:
            print(f"FAILED {f}", file=sys.stderr)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lsner",
        description="Few-shot NER with label-name semantics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config")
        p.add_argument("--k")
        p.add_argument("--repeats", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--rename")
        p.add_argument("--rename-map", dest="rename_map")
        p.add_argument("--scheme")
        p.add_argument("--static-vectors", dest="static_vectors")
        p.add_argument("--tie-embeddings", dest="tie_embeddings")

    p = sub.add_parser("sample", help="sample K-shot support sets")
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", help="two-stage training per (K, repeat)")
    common(p)
    p.add_argument("--no-prefinetune", action="store_true")
    p.add_argument("--finetune-epochs", dest="finetune_epochs", type=int)
    p.add_argument("--prefinetune-epochs", dest="prefinetune_epochs", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints on dev/test")
    common(p)
    p.add_argument("--zero-shot", action="store_true")
    p.add_argument("--checkpoint")
    p.add_argument("--eval-split", dest="eval_split", choices=("dev", "test"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="tag a corpus with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cache")
    p.add_argument("--cache-out", dest="cache_out")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cache-labels", help="freeze label vectors to a file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cache_labels)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
