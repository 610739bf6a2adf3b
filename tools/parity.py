"""Byte-level parity listing of the `lsner` command line's outputs.

Runs one fixed matrix of `lsner` commands in this process, against the
`lsner` package on the import path, in a fresh directory and with
relative paths, so that manifests compare byte for byte too. Then prints
one ``path sha256`` line per file in that directory, sorted by path:
the generated inputs, every output and each model's command log (what
each command printed, and its exit code). Two source trees give equal
listings when their outputs are byte-identical:

    PYTHONPATH=a/src python tools/parity.py > a.txt
    PYTHONPATH=b/src python tools/parity.py > b.txt
    diff a.txt b.txt

The one optional argument is the directory to run in, which must not
exist yet; without it a temporary directory is used and removed. Exits 1
when a command of the matrix fails.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from lsner.cli import main as lsner
from lsner.corpus import serialize_conll, serialize_taxonomy
from lsner.synthetic import make_task

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
