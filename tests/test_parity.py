"""Smoke test of tools/parity.py: the whole matrix runs and lists every output."""

import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matrix_lists_every_kind_of_output(parity, tmp_path):
    listing, failed = parity.run(tmp_path / "run")
    assert failed == []
    digests = dict(line.split(" ") for line in listing)
    assert list(digests) == sorted(digests) and len(digests) == len(listing)
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())
    kinds = {  # what each model kind must have written, as path patterns
        "supports": r"(sample|train|static)/support_k[15]_run[01]\.txt",
        "checkpoints": r"(train|static)/model_k[15]_run[01]\.ckpt",
        "loss traces": r"(train|static)/loss_k[15]_run[01]\.txt",
        "metrics": r"(train|zeroshot)/metrics_k[15]\.txt",
        "summaries": r"(train|zeroshot)/summary\.txt",
        "label caches": r"predict/(labels|cache_labels)\.bin",
        "predictions": r"predict/(fresh|cached)\.conll",
        "manifests": r"(sample|train|static|zeroshot)/manifest_(sample|train|eval)\.json",
    }
    for model in parity.MODELS:
        for kind, pattern in kinds.items():
            assert any(re.fullmatch(f"{model}/{pattern}", p) for p in digests), (model, kind)
        assert len([p for p in digests if re.fullmatch(f"{model}/train/model_.*", p)]) == 4
        assert digests[f"{model}/predict/fresh.conll"] == digests[f"{model}/predict/cached.conll"]
        # relative paths only, so two trees' manifests compare byte for byte
        for manifest in (tmp_path / "run" / model).rglob("manifest_*.json"):
            assert str(tmp_path) not in manifest.read_text()
    # the benchmark's models: every stage's losses and parameter digests
    stages = ["prefinetune.txt"] + [f"finetune_{scheme.replace(':', '_')}.txt"
                                    for scheme in parity.SCHEMES]
    for name in parity.BENCH_MODELS:
        for seed in parity.BENCH_SEEDS:
            for stage in stages:
                assert f"bench/{name}_seed{seed}/{stage}" in digests
            record = (tmp_path / "run" / "bench" / f"{name}_seed{seed}" / stages[-1]).read_text()
            assert re.fullmatch(r"(epoch=\d+ loss=-?0x[0-9a-f.p+-]+\n)+([\w.]+ [0-9a-f]{64}\n)+",
                                record)


def test_refuses_a_directory_that_exists(parity, tmp_path):
    with pytest.raises(FileExistsError):
        parity.run(tmp_path)
