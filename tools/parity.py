"""Byte-level parity listing of the `lsner` command line's outputs.

Runs one fixed matrix of `lsner` commands in this process, against the
`lsner` package on the import path, in a fresh directory and with
relative paths, so that manifests compare byte for byte too. Then prints
one ``path sha256`` line per file in that directory, sorted by path:
the generated inputs, every output and each model's command log (what
each command printed, and its exit code).

A second section trains the benchmark's own models, which the command
line never builds: perfbench's desk model (window-mixer at window 1,
"mean" label pooling, a static table) and its 20k model (self-attention
at d=128 with caps), on inputs from `perfbench.data` at the sizes of
`perfbench.workloads.TINY`, at two seeds. Under ``bench/`` it writes each
stage's per-epoch losses as float hex and the sha256 of every parameter
array. Two source trees give equal listings when their outputs are
byte-identical:

    PYTHONPATH=a/src python tools/parity.py > a.txt
    PYTHONPATH=b/src python tools/parity.py > b.txt
    diff a.txt b.txt

The one optional argument is the directory to run in, which must not
exist yet; without it a temporary directory is used and removed. Exits 1
when a command of the matrix fails.
"""

import contextlib
import copy
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

# the repository root, for perfbench; lsner is the one on PYTHONPATH
sys.path.append(str(Path(__file__).resolve().parents[1]))

from lsner.cli import main as lsner  # noqa: E402
from lsner.corpus import serialize_conll, serialize_taxonomy  # noqa: E402
from lsner.matcher import TrainingConfig, train_stage  # noqa: E402
from lsner.sampler import sample_support, support_dataset  # noqa: E402
from lsner.synthetic import make_task  # noqa: E402
from perfbench.workloads import TINY, WORKLOADS  # noqa: E402

# the three model kinds: contextualizers, tying, caps and label scheme
MODELS = {
    "identity": "token_ctx = identity\nlabel_ctx = identity\ncaps_feature = false\n",
    "attention": "token_ctx = self-attention\nlabel_ctx = self-attention\n"
                 "tie_embeddings = false\n",
    "mixer": "token_ctx = window-mixer\nlabel_ctx = window-mixer\n"
             "scheme = contextual:BIOTAG_COLON_MASK\n",
}
CONFIG = """source_corpus = data/source.conll
source_taxonomy = data/source_taxonomy.txt
target_train = data/target_train.conll
target_test = data/target_test.conll
taxonomy = data/taxonomy.txt
dim = 8
k = 1 5
repeats = 2
prefinetune_epochs = 1
finetune_epochs = 10
"""


def write_inputs():
    """The corpora, taxonomies, synonym map, static vectors and one config
    per model kind, under the current directory."""
    task = make_task(seed=0, dim=8, n_source=100, n_target_train=40, n_test=30,
                     words_per_family=3, n_fillers=12)
    data = Path("data")
    data.mkdir()
    for name, corpus in (("source", task.source), ("target_train", task.target_train),
                         ("target_test", task.target_test)):
        (data / f"{name}.conll").write_text(serialize_conll(corpus), encoding="utf-8")
    (data / "source_taxonomy.txt").write_text(serialize_taxonomy(task.source.taxonomy),
                                             encoding="utf-8")
    (data / "taxonomy.txt").write_text(serialize_taxonomy(task.target_train.taxonomy),
                                       encoding="utf-8")
    (data / "synonyms.txt").write_text(
        "".join(f"{t}\t{name}\n" for t, name in task.synonym_map.items()), encoding="utf-8")
    (data / "vectors.txt").write_text("".join(
        f"{word} " + " ".join(repr(float(x)) for x in vec) + "\n"
        for word, vec in task.vectors.items()), encoding="utf-8")
    for model, keys in MODELS.items():
        Path(f"{model}.cfg").write_text(CONFIG + keys, encoding="utf-8")
        Path(model, "predict").mkdir(parents=True)


def commands(model):
    """The matrix for one model kind, in order: each command reads what the
    ones before it wrote."""
    cfg, ckpt = f"{model}.cfg", f"{model}/train/model_k5_run1.ckpt"
    return [
        ["sample", "--config", cfg, "--out", f"{model}/sample"],
        ["train", "--config", cfg, "--out", f"{model}/train"],
        ["train", "--config", cfg, "--out", f"{model}/static",
         "--static-vectors", "data/vectors.txt"],
        ["eval", "--config", cfg, "--out", f"{model}/train"],
        ["eval", "--config", cfg, "--out", f"{model}/zeroshot", "--k", "1",
         "--checkpoint", f"{model}/train/model_k1_run0.ckpt", "--zero-shot",
         "--rename", "map:data/synonyms.txt"],
        ["predict", "--checkpoint", ckpt, "--cache-out", f"{model}/predict/labels.bin",
         "data/target_test.conll", f"{model}/predict/fresh.conll"],
        ["predict", "--checkpoint", ckpt, "--cache", f"{model}/predict/labels.bin",
         "data/target_test.conll", f"{model}/predict/cached.conll"],
        ["cache-labels", "--checkpoint", f"{model}/train/model_k1_run0.ckpt",
         "--out", f"{model}/predict/cache_labels.bin"],
    ]


# bench/ directory name -> the workload whose inputs and model it trains
BENCH_MODELS = {"desk": "fewshot-desk", "20k": "train-20k"}
BENCH_SEEDS = (1, 2)
SCHEMES = ("name", "contextual:BIOTAG_COLON_MASK")


def stage_record(trace, model):
    """Each epoch's loss as float hex, then each parameter array's sha256."""
    lines = [f"epoch={e} loss={loss.hex()}" for e, loss in enumerate(trace)]
    lines += [f"{g.name} {hashlib.sha256(g.values.tobytes()).hexdigest()}"
              for g in model.param_groups()]
    return "\n".join(lines) + "\n"


def train_bench_models():
    """Per benchmark model and seed: one prefinetune epoch on the source,
    then finetuning under each scheme on one 5-shot draw of the target, as
    the workload's finetune phase does; one record per stage."""
    for name, workload in BENCH_MODELS.items():
        cfg = dict(WORKLOADS[workload], **TINY[workload])
        for seed in BENCH_SEEDS:
            out = Path("bench", f"{name}_seed{seed}")
            out.mkdir(parents=True)
            inp = cfg["inputs"](seed, cfg, out / "predict_input.conll")  # perfbench.data
            stage1 = inp.stage0
            trace = train_stage(stage1, inp.source,
                                TrainingConfig(seed=seed, prefinetune_epochs=1),
                                stage="prefinetune")
            (out / "prefinetune.txt").write_text(stage_record(trace, stage1), encoding="utf-8")
            draw = sample_support(inp.target, 5, np.random.default_rng([seed, 5, 0]))
            support = support_dataset(inp.target, draw)
            for scheme in SCHEMES:
                model = copy.deepcopy(stage1)
                config = TrainingConfig(seed=seed, scheme=scheme,
                                        finetune_epochs=cfg["finetune_epochs"])
                trace = train_stage(model, support, config, support_sentences=support.sentences)
                (out / f"finetune_{scheme.replace(':', '_')}.txt").write_text(
                    stage_record(trace, model), encoding="utf-8")


def sha256(path):
    # hashed here, not by the tree under test, so both listings use one digest
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(workdir):
    """Run the matrix in the new directory `workdir`; return the listing
    lines and the commands that failed."""
    Path(workdir).mkdir(parents=True)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        write_inputs()
        failed = []
        for model in MODELS:
            log = io.StringIO()
            for argv in commands(model):
                print("$ lsner " + " ".join(argv), file=log)
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = lsner(argv)
                print(f"exit {code}", file=log)
                if code != 0:
                    failed.append(" ".join(argv))
            Path(model, "log.txt").write_text(log.getvalue(), encoding="utf-8")
        train_bench_models()
        paths = sorted(p.as_posix() for p in Path().rglob("*") if p.is_file())
        return [f"{p} {sha256(p)}" for p in paths], failed
    finally:
        os.chdir(home)


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: python tools/parity.py [fresh directory]")
    if len(sys.argv) == 2:
        listing, failed = run(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            listing, failed = run(Path(tmp, "run"))
    print("\n".join(listing))
    for argv in failed:
        print(f"failed: lsner {argv}", file=sys.stderr)
    sys.exit(1 if failed else 0)
