"""Self-tests of the benchmark: every workload at tiny size.

They check that every metric is emitted with its unit, that every
correctness check runs and can fail, that the exact counts repeat under the
same seed, and that the command refuses to run without the lsner sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lsner.corpus import Dataset, LabelTaxonomy, Sentence
from lsner.evaluation import PRF, EvalResult
from lsner.sampler import SupportSet
from perfbench import workloads

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("autodiff.tape_nodes_per_step", "autodiff.take_rows.rows_touched_frac",
                "evaluation.label_encodes_per_sentence", "sampler.support_sentences",
                "serialization.checkpoint_bytes")


def tiny(workload, tmp_path, trace=0, seed=3):
    return workloads.run_workload(workload, seed, 0, trace, tmp_path, tiny=True)


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    result, run = tiny(workload, tmp_path)
    assert result["correct"], run.checks
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == declared("end_to_end")
    for metric, v in result["metrics"].items():
        assert math.isfinite(v["value"]) and v["value"] > 0, metric
    ran = {name for name, (runs, _) in run.checks.items() if runs}
    expected = set(workloads.CHECKS)
    if workloads.WORKLOADS[workload]["f1_floor"] is None:
        expected.discard("test_f1_floor")
    assert ran == expected


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first, _ = tiny(workload, tmp_path / "a", trace=1)
    second, _ = tiny(workload, tmp_path / "b", trace=1)
    assert {m: v["unit"] for m, v in first["metrics"].items()} == declared("per_layer")
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        assert first["metrics"][name]["value"] > 0, name


def test_every_check_can_fail_inside_a_run(tmp_path, monkeypatch):
    for name in ("support_valid", "losses_finite", "f1_at_floor", "eval_results_equal",
                 "predict_output_matches", "files_identical"):
        monkeypatch.setattr(workloads, name, lambda *args: False)
    result, run = tiny("fewshot-desk", tmp_path)
    assert not result["correct"]
    for name, (runs, fails) in run.checks.items():
        assert runs > 0 and fails == runs, name
    assert result["failed"] == sum(runs for runs, _ in run.checks.values())


def test_check_functions_reject_bad_outputs(tmp_path):
    taxonomy = LabelTaxonomy([("PER", "person")])
    corpus = Dataset("d", [Sentence(["a"], ["B-PER"]), Sentence(["b"], ["B-PER"])], taxonomy)
    assert workloads.support_valid(corpus, SupportSet("d", 1, 0, [0]), 1)
    assert not workloads.support_valid(corpus, SupportSet("d", 1, 0, [0, 1]), 1)
    assert not workloads.support_valid(corpus, SupportSet("d", 2, 0, [0]), 2)

    assert workloads.losses_finite([0.5, 0.1])
    assert not workloads.losses_finite([0.5, float("nan")])
    assert not workloads.losses_finite([])

    assert workloads.f1_at_floor(0.9, 0.9)
    assert not workloads.f1_at_floor(0.89, 0.9)

    same = EvalResult(PRF(3, 1, 0), {"PER": PRF(3, 1, 0)})
    assert workloads.eval_results_equal(same, EvalResult(PRF(3, 1, 0), {"PER": PRF(3, 1, 0)}))
    assert not workloads.eval_results_equal(same, EvalResult(PRF(3, 0, 1), {"PER": PRF(3, 0, 1)}))

    text = "a B-PER\nb O\n\nc O\n"
    tokens, tags = [["a", "b"], ["c"]], [["B-PER", "O"], ["O"]]
    assert workloads.predict_output_matches(0, text, tokens, tags)
    assert not workloads.predict_output_matches(2, text, tokens, tags)
    assert not workloads.predict_output_matches(0, text, tokens, [["O", "O"], ["O"]])
    assert not workloads.predict_output_matches(0, text, [["a", "x"], ["c"]], tags)
    assert not workloads.predict_output_matches(0, "a B-PER\nb O\n", tokens, tags)

    one, two = tmp_path / "one", tmp_path / "two"
    one.write_bytes(b"\x00\x01")
    two.write_bytes(b"\x00\x01")
    assert workloads.files_identical(one, two)
    two.write_bytes(b"\x00\x02")
    assert not workloads.files_identical(one, two)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail_percentile(list(range(19))) == (None, None)
    assert workloads.tail_percentile(list(range(100)))[0] == 90.0
    p, value = workloads.tail_percentile(list(np.arange(1000.0)))
    assert p == 99.0 and value == pytest.approx(989.01)


def test_command_fails_without_lsner_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fewshot-desk",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
