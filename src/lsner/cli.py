"""Experiment driver: sampling, training, evaluation, caching, prediction.

`sample`, `train` and `eval` read one `RunConfig`: defaults, then a flat
``key = value`` file (``--config``), then one flag per key (flags win),
all checked before any corpus loads. Run i of a command uses
base_seed + i for sampling and base_seed + 10000 + i for training, so
the two are independently reproducible.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (RENAME_MODES, Sentence, conll_sentences, load_conll,
                     load_taxonomy, rename_taxonomy, text_lines)
from .encoders import build_vocabulary, load_static_vectors, static_table
from .evaluation import aggregate_runs, evaluate_dataset, result_record
from .matcher import (TrainingConfig, build_label_cache, check_label_cache, init_model,
                      predict_tags, run_two_stage)
from .numeric import CONTEXTUALIZER_KINDS
from .sampler import (load_support, sample_support, serialize_support,
                      support_dataset, verify_kshot)
from .serialization import (load_checkpoint, load_label_cache,
                            save_checkpoint, save_label_cache)

TRAIN_SEED_OFFSET = 10000
RENAME_SEED_OFFSET = 20000


def config_entries(path):
    """Yield (line number, key, value) for each ``key = value`` line."""
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def _one_of(*choices):
    def check(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
    return check


def _positive(value):
    """Check an integer, or each of a tuple of integers, is at least 1."""
    if min(value if isinstance(value, tuple) else (value,)) < 1:
        _, text, expected = _TYPES[type(value)]
        raise ValueError(f"expected {expected} >= 1, got {text(value)!r}")


def _check_rename(mode):
    if not mode.startswith("map:"):
        _one_of(*(m for m in RENAME_MODES if m != "custom"), "map:<file>")(mode)


def _key(default, check=None, flag=None):
    return dataclasses.field(default=default, metadata={"check": check, "flag": flag})


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Every key `sample`, `train` and `eval` read; README lists them all."""

    source_corpus: str = None
    source_taxonomy: str = None
    target_train: str = None
    target_dev: str = None
    target_test: str = None
    taxonomy: str = None
    static_vectors: str = None
    out: str = None
    k: tuple = _key((1,), _positive)
    repeats: int = _key(10, _positive)
    base_seed: int = _key(0, flag="--seed")
    dim: int = _key(32, _positive)
    lr: float = _key(1e-3, lambda v: TrainingConfig(learning_rate=v))
    batch_size: int = _key(10, lambda v: TrainingConfig(batch_size=v))
    prefinetune_epochs: int = _key(3, lambda v: TrainingConfig(prefinetune_epochs=v))
    finetune_epochs: int = _key(200, lambda v: TrainingConfig(finetune_epochs=v))
    no_prefinetune: bool = False  # true forces prefinetune_epochs = 0
    scheme: str = _key("name", lambda v: TrainingConfig(scheme=v))
    rename: str = _key("original", _check_rename)
    tie_embeddings: bool = True
    caps_feature: bool = True
    token_ctx: str = _key("self-attention", _one_of(*CONTEXTUALIZER_KINDS))
    label_ctx: str = _key("identity", _one_of(*CONTEXTUALIZER_KINDS))
    min_freq: int = 1
    eval_split: str = _key("test", _one_of("dev", "test"))

    def record(self):
        """Each set key in the text form a config file gives it."""
        return {f.name: _TYPES[f.type][1](getattr(self, f.name))
                for f in dataclasses.fields(self) if getattr(self, f.name) is not None}


def _ints(text):
    """One or more integers, separated by spaces or commas."""
    return tuple(int(x) for x in text.replace(",", " ").split() or [text])


_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}
_TYPES = {  # field type -> (text to value, value to text, what the text must be)
    int: (int, str, "an integer"), float: (float, str, "a number"), str: (str, str, "text"),
    bool: (lambda text: _BOOLS[text.lower()], lambda v: str(v).lower(), "true or false"),
    tuple: (_ints, lambda v: " ".join(map(str, v)), "integers")}


def _parse(f, text):
    if f is None:
        raise ValueError("unknown key")
    parse, _, expected = _TYPES[f.type]
    try:
        value = parse(text)
    except (KeyError, ValueError):
        raise ValueError(f"expected {expected}, got {text!r}") from None
    if f.metadata.get("check"):
        f.metadata["check"](value)
    return value


def parse_run_config(args):
    """Defaults, then the ``--config`` file, then flags, as a RunConfig."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    entries = config_entries(args.config) if args.config else ()
    texts = {key: (f"{args.config}:{n}", text) for n, key, text in entries}
    texts.update((f.name, ("command line", getattr(args, f.name)))
                 for f in fields.values() if getattr(args, f.name) is not None)
    values = {}
    for key, (where, text) in texts.items():
        try:
            values[key] = _parse(fields.get(key), text)
        except ValueError as exc:
            raise ValueError(f"{where}: {key}: {exc}") from None
    if values.get("no_prefinetune"):
        values["prefinetune_epochs"] = 0
    if values.get("out") is None:
        raise ValueError(f"{args.config or 'command line'}: out: missing (key or --out)")
    return RunConfig(**values)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _finish(out_dir, command, cfg, seeds, inputs, outputs, failures):
    """Write failures.txt (if any run failed) and the manifest; return the exit code."""
    if failures:
        (out_dir / "failures.txt").write_text("\n".join(failures) + "\n", encoding="utf-8")
        print("\n".join(f"FAILED {f}" for f in failures), file=sys.stderr)
    digests = [{str(p): sha256_file(p) for p in paths if p is not None and Path(p).exists()}
               for paths in (inputs, outputs)]
    manifest = {"command": command, "version": __version__, "config": cfg.record(),
                "seeds": seeds, "inputs": digests[0], "outputs": digests[1]}
    (out_dir / f"manifest_{command}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failures else 0


def _load_target(cfg, split):
    path = getattr(cfg, f"target_{split}")
    if path is None:
        raise ValueError(f"config is missing target_{split}")
    taxonomy = load_taxonomy(cfg.taxonomy) if cfg.taxonomy is not None else None
    return load_conll(path, taxonomy=taxonomy)


def _run_taxonomy(cfg, base):
    """Return run index -> target taxonomy after the configured rename mode.

    `base` is the target taxonomy the caller loaded once; a ``map:<file>``
    is read here, once per command.
    """
    if cfg.rename.startswith("map:"):
        mapping = dict(load_taxonomy(cfg.rename[4:]).types)
        return lambda run_index: rename_taxonomy(base, "custom", mapping=mapping)

    def renamed(run_index):
        rng = np.random.default_rng(cfg.base_seed + RENAME_SEED_OFFSET + run_index)
        return rename_taxonomy(base, cfg.rename, rng=rng)
    return renamed


def _draw_support(target, k, seed):
    """A K-shot support set of `target` drawn at `seed` that `verify_kshot` passed."""
    support = sample_support(target, k, np.random.default_rng(seed))
    support.seed = seed
    verdict = verify_kshot(target, support, k)
    if not verdict.ok:
        raise RuntimeError(f"sampled set failed {verdict.reason}")
    return support


def cmd_sample(cfg, args):
    out_dir = Path(cfg.out)
    target = _load_target(cfg, "train")

    outputs, stats_rows, failures = [], [], []
    for k in cfg.k:
        sizes = []
        for i in range(cfg.repeats):
            try:
                support = _draw_support(target, k, cfg.base_seed + i)
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
    print(stats.read_text(), end="")
    return _finish(out_dir, "sample", cfg,
                   {"base_seed": cfg.base_seed, "repeats": cfg.repeats},
                   [cfg.target_train, cfg.taxonomy], outputs, failures)


def _build_model_for_run(cfg, source, target, taxonomy, train_seed, vectors):
    """A fresh model for one run; `vectors` (token -> vector, or None) seeds
    the embedding table."""
    extra = ["begin", "inside", "other"]
    for tax in ([source.taxonomy] if source else []) + [taxonomy]:
        for _, natural in tax.types:
            extra.extend(natural.split())
    sentences = (source.sentences if source else []) + target.sentences
    vocab = build_vocabulary(sentences, min_freq=cfg.min_freq, extra_tokens=extra)
    table = None
    if vectors is not None:
        table, coverage = static_table(vectors, vocab, cfg.dim, np.random.default_rng(train_seed))
        print(f"static vector coverage: {coverage:.3f}")
    return init_model(vocab, taxonomy, dim=cfg.dim, seed=train_seed,
                      token_ctx=cfg.token_ctx, label_ctx=cfg.label_ctx,
                      tie_embeddings=cfg.tie_embeddings,
                      caps_feature=cfg.caps_feature, static_table=table)


def _reused_support(path, target, k):
    """Load a support file left by an earlier run; raise unless it is a K-shot
    set of `target`."""
    support = load_support(path)
    if support.shot != k:
        raise RuntimeError(f"{path.name}: header k={support.shot}, run needs k={k}")
    for i in support.indices:
        if not 0 <= i < len(target.sentences):
            raise RuntimeError(f"{path.name}: index {i} out of range "
                               f"({len(target.sentences)} sentences)")
    verdict = verify_kshot(target, support, k)
    if not verdict.ok:
        raise RuntimeError(f"{path.name}: failed {verdict.reason}")
    return support


def cmd_train(cfg, args):
    out_dir = Path(cfg.out)
    source = None
    if cfg.prefinetune_epochs > 0 and cfg.source_corpus is not None:
        source_tax = (load_taxonomy(cfg.source_taxonomy)
                      if cfg.source_taxonomy is not None else None)
        source = load_conll(cfg.source_corpus, taxonomy=source_tax)
        source.role = "source"
    target = _load_target(cfg, "train")
    run_taxonomy = _run_taxonomy(cfg, target.taxonomy)
    vectors = load_static_vectors(cfg.static_vectors, cfg.dim) if cfg.static_vectors else None

    outputs, failures = [], []
    for k in cfg.k:
        for i in range(cfg.repeats):
            train_seed = cfg.base_seed + TRAIN_SEED_OFFSET + i
            try:
                support_path = out_dir / f"support_k{k}_run{i}.txt"
                if support_path.exists():
                    support = _reused_support(support_path, target, k)
                else:
                    support = _draw_support(target, k, cfg.base_seed + i)
                    support_path.write_text(serialize_support(support), encoding="utf-8")
                    outputs.append(support_path)
                taxonomy = run_taxonomy(i)
                renamed_target = dataclasses.replace(target, taxonomy=taxonomy)
                model = _build_model_for_run(cfg, source, target, taxonomy, train_seed, vectors)
                tconf = TrainingConfig(
                    learning_rate=cfg.lr, batch_size=cfg.batch_size, seed=train_seed,
                    prefinetune_epochs=cfg.prefinetune_epochs,
                    finetune_epochs=cfg.finetune_epochs, scheme=cfg.scheme)
                traces = run_two_stage(
                    model, source, support_dataset(renamed_target, support), tconf)
                ckpt = out_dir / f"model_k{k}_run{i}.ckpt"
                save_checkpoint(model, ckpt)
                outputs.append(ckpt)
                trace_path = out_dir / f"loss_k{k}_run{i}.txt"
                lines = [f"{stage} epoch={e} loss={v:.6f}"
                         for stage, trace in traces.items() for e, v in enumerate(trace)]
                trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                outputs.append(trace_path)
            except Exception as exc:
                failures.append(f"k={k} run={i}: {exc}")

    return _finish(out_dir, "train", cfg,
                   {"base_seed": cfg.base_seed, "repeats": cfg.repeats,
                    "train_seed_offset": TRAIN_SEED_OFFSET},
                   [cfg.source_corpus, cfg.target_train, cfg.taxonomy,
                    cfg.source_taxonomy, cfg.static_vectors], outputs, failures)


def cmd_eval(cfg, args):
    out_dir = Path(cfg.out)
    corpus = _load_target(cfg, cfg.eval_split)
    if args.zero_shot:
        base = (corpus.taxonomy if cfg.taxonomy is not None
                else _load_target(cfg, "train").taxonomy)
        run_taxonomy = _run_taxonomy(cfg, base)

    outputs, failures, summary_rows = [], [], []
    for k in cfg.k:
        records, scores = [], []
        for i in range(cfg.repeats):
            ckpt = Path(args.checkpoint or out_dir / f"model_k{k}_run{i}.ckpt")
            try:
                model = load_checkpoint(ckpt)
                before = sha256_file(ckpt)
                if args.zero_shot:
                    model.set_taxonomy(run_taxonomy(i))
                eval_corpus = dataclasses.replace(corpus, taxonomy=model.taxonomy)
                result = evaluate_dataset(model, eval_corpus)
                if sha256_file(ckpt) != before:
                    raise RuntimeError("checkpoint mutated during evaluation")
                records.append(result_record(result, dataset=corpus.name, k=k,
                                             seed=cfg.base_seed + i))
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
    print(summary_path.read_text(), end="")
    return _finish(out_dir, "eval", cfg, {"repeats": cfg.repeats},
                   [getattr(cfg, f"target_{cfg.eval_split}"), cfg.taxonomy],
                   outputs, failures)


def cmd_predict(args):
    model = load_checkpoint(args.checkpoint)
    if args.cache:
        cache = load_label_cache(args.cache)
        try:  # once per command and naming the file; an empty input is checked too
            check_label_cache(model, cache)
        except ValueError as exc:
            raise ValueError(f"--cache {args.cache}: {exc}") from None
    else:
        cache = build_label_cache(model)

    lines = []
    for rows in conll_sentences(text_lines(args.input)):
        tokens = [cols[0] for _, cols in rows]
        tags = predict_tags(model, Sentence(tokens, ["O"] * len(tokens)), cache=cache)
        lines += [f"{tok} {tag}" for tok, tag in zip(tokens, tags)]
        lines.append("")
    if args.cache_out and not args.cache:  # only once the whole input is tagged
        save_label_cache(cache, args.cache_out)
    Path(args.output).write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return 0


def cmd_cache_labels(args):
    cache = build_label_cache(load_checkpoint(args.checkpoint))
    save_label_cache(cache, args.out)
    print(f"cached {cache.matrix.shape[0]} label vectors")
    return 0


@functools.cache
def build_parser():
    """Build the parser once per process. Each subcommand stores its handler's
    name, which `main` looks up on every call, so a handler replaced later
    (a test double, perfbench's tracer) is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="lsner", description="Few-shot NER with label-name semantics")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text in (
            ("sample", "sample K-shot support sets"),
            ("train", "two-stage training per (K, repeat)"),
            ("eval", "evaluate checkpoints on dev/test")):
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=f"cmd_{command}")
        p.add_argument("--config")
        for f in dataclasses.fields(RunConfig):  # a bare boolean flag means true
            flag = f.metadata.get("flag") or "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name,
                           **({"nargs": "?", "const": "true"} if f.type is bool else {}))
    sub.choices["eval"].add_argument("--zero-shot", action="store_true")
    sub.choices["eval"].add_argument("--checkpoint")

    p = sub.add_parser("predict", help="tag a corpus with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cache")
    p.add_argument("--cache-out", dest="cache_out")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func="cmd_predict")

    p = sub.add_parser("cache-labels", help="freeze label vectors to a file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func="cmd_cache_labels")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    func = globals()[args.func]
    try:
        if args.func in ("cmd_sample", "cmd_train", "cmd_eval"):
            cfg = parse_run_config(args)
            Path(cfg.out).mkdir(parents=True, exist_ok=True)
            return func(cfg, args)
        return func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
