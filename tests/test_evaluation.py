"""Entity-level micro F1, per-type scores and run aggregation."""

import math
import re

import numpy as np
import pytest

from lsner import evaluation, matcher
from lsner.corpus import (EntitySpan, LabelTaxonomy, Sentence, Dataset, extract_spans,
                          rename_taxonomy, repair_bio)
from lsner.encoders import build_vocabulary, encode_labels
from lsner.evaluation import (PRF, EvalResult, aggregate_runs, evaluate_dataset,
                              format_record, micro_f1, per_type_f1,
                              result_record)
from lsner.matcher import (LabelCache, TrainingConfig, build_label_cache, init_model,
                           predict_tags, taxonomy_hash, train_stage)
from lsner.numeric import CONTEXTUALIZER_KINDS


def spans(*triples):
    return [EntitySpan(t, s, e) for t, s, e in triples]


class TestMicroF1:
    def test_hand_counted_example(self):
        gold = [spans(("PER", 0, 1), ("LOC", 3, 5)), spans(("PER", 2, 3))]
        pred = [spans(("PER", 0, 1), ("LOC", 3, 4)), spans(("PER", 2, 3),
                                                           ("ORG", 0, 1))]
        out = micro_f1(gold, pred)
        # matches: PER(0,1) and PER(2,3); misses LOC(3,5); spurious LOC(3,4)+ORG
        assert (out.tp, out.fp, out.fn) == (2, 2, 1)
        assert out.precision == pytest.approx(0.5)
        assert out.recall == pytest.approx(2 / 3)
        assert out.f1 == pytest.approx(2 * 0.5 * (2 / 3) / (0.5 + 2 / 3))

    def test_boundary_must_match_exactly(self):
        out = micro_f1([spans(("PER", 0, 2))], [spans(("PER", 0, 1))])
        assert (out.tp, out.fp, out.fn) == (0, 1, 1)

    def test_type_must_match_exactly(self):
        out = micro_f1([spans(("PER", 0, 1))], [spans(("LOC", 0, 1))])
        assert (out.tp, out.fp, out.fn) == (0, 1, 1)

    def test_empty_cases_score_zero(self):
        out = micro_f1([[]], [[]])
        assert out.precision == 0.0 and out.recall == 0.0 and out.f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            micro_f1([[]], [[], []])


class TestPerType:
    def test_restriction(self, two_type_taxonomy):
        gold = [spans(("PER", 0, 1), ("LOC", 2, 3))]
        pred = [spans(("PER", 0, 1), ("LOC", 4, 5))]
        out = per_type_f1(gold, pred, two_type_taxonomy)
        assert out["PER"].f1 == pytest.approx(1.0)
        assert out["LOC"].f1 == 0.0


class TestEvaluateDataset:
    # predictions are stubbed; the model only feeds the one label encode
    def test_perfect_and_zero_models(self, tiny_dataset, small_model, monkeypatch):
        monkeypatch.setattr(evaluation, "predict_tags",
                            lambda model, s, cache=None: list(s.tags))
        result = evaluate_dataset(small_model, tiny_dataset)
        assert result.overall.f1 == pytest.approx(1.0)
        assert result.violations == 0

        monkeypatch.setattr(evaluation, "predict_tags",
                            lambda model, s, cache=None: ["O"] * len(s))
        result = evaluate_dataset(small_model, tiny_dataset)
        assert result.overall.f1 == 0.0
        assert result.overall.fn == 7  # every gold entity missed

    def test_violations_counted_and_repaired(self, two_type_taxonomy, small_model,
                                             monkeypatch):
        ds = Dataset("d", [Sentence(["a", "b"], ["B-PER", "O"])],
                     two_type_taxonomy)
        monkeypatch.setattr(evaluation, "predict_tags",
                            lambda model, s, cache=None: ["I-PER", "O"])
        result = evaluate_dataset(small_model, ds)
        assert result.violations == 1
        assert result.overall.f1 == pytest.approx(1.0)  # repaired to B-PER


class TestAggregation:
    def test_mean_and_sample_std(self):
        out = aggregate_runs([1.0, 2.0, 3.0, 4.0])
        assert out.mean == pytest.approx(2.5)
        assert out.std == pytest.approx(math.sqrt(5 / 3))

    def test_single_run_has_zero_std(self):
        out = aggregate_runs([0.7])
        assert out.mean == pytest.approx(0.7) and out.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])


class TestRecords:
    def test_format_record(self):
        assert format_record({"a": 1, "b": "x"}) == "a=1 b=x"

    def test_result_record_fields(self, two_type_taxonomy):
        from lsner.evaluation import EvalResult
        result = EvalResult(PRF(2, 1, 1),
                            {"PER": PRF(1, 0, 0), "LOC": PRF(1, 1, 1)}, 3)
        record = result_record(result, dataset="d", k=5, seed=7)
        assert "dataset=d" in record and "k=5" in record and "seed=7" in record
        assert "f1=0.666667" in record and "violations=3" in record
        assert "f1[PER]=1.000000" in record


class TestSingleLabelEncode:
    """An uncached evaluation encodes the labels once, not once per sentence."""

    @pytest.fixture(params=CONTEXTUALIZER_KINDS)
    def model(self, request, tiny_dataset):
        vocab = build_vocabulary(tiny_dataset.sentences,
                                 extra_tokens=["begin", "inside", "other", "person", "location"])
        model = init_model(vocab, tiny_dataset.taxonomy, dim=8, seed=2, window=1,
                           token_ctx=request.param, label_ctx=request.param)
        train_stage(model, tiny_dataset, TrainingConfig(finetune_epochs=3))
        return model

    def test_uncached_equals_cached_and_per_sentence_labels(self, model, tiny_dataset):
        plain = evaluate_dataset(model, tiny_dataset)
        assert plain == evaluate_dataset(model, tiny_dataset, cache=build_label_cache(model))
        # the loop that encoded the labels again for every sentence
        gold, pred, violations = [], [], 0
        for sentence in tiny_dataset.sentences:
            repaired, v = repair_bio(predict_tags(model, sentence))
            violations += v
            gold.append(extract_spans(sentence.tags))
            pred.append(extract_spans(repaired))
        assert plain == EvalResult(micro_f1(gold, pred),
                                   per_type_f1(gold, pred, tiny_dataset.taxonomy), violations)

    def test_one_label_encode_per_uncached_call(self, model, tiny_dataset, monkeypatch):
        cache = build_label_cache(model)
        calls = []

        def counting_encode_labels(*args, **kwargs):
            calls.append(args)
            return encode_labels(*args, **kwargs)
        monkeypatch.setattr(matcher, "encode_labels", counting_encode_labels)
        evaluate_dataset(model, tiny_dataset)
        assert len(calls) == 1
        evaluate_dataset(model, tiny_dataset, cache=cache)
        assert len(calls) == 1


@pytest.mark.parametrize("call", [
    lambda model, data, cache: evaluate_dataset(model, data, cache=cache),
    lambda model, data, cache: predict_tags(model, data.sentences[0], cache=cache),
], ids=["evaluate_dataset", "predict_tags"])
@pytest.mark.parametrize("edit, error", [
    (lambda m, c: LabelCache(c.taxonomy_hash, c.matrix[:1]),
     "label matrix (1, 8), the model needs (5, 8)"),
    (lambda m, c: LabelCache(c.taxonomy_hash, np.vstack([c.matrix, c.matrix[:2]])),
     "label matrix (7, 8), the model needs (5, 8)"),
    (lambda m, c: LabelCache(taxonomy_hash(rename_taxonomy(m.taxonomy, "meaningless")),
                             c.matrix),
     "label cache does not match the taxonomy"),
], ids=["one-row", "extra-rows", "other-taxonomy"])
def test_cache_that_does_not_fit_is_refused(small_model, tiny_dataset, call, edit, error):
    # in process as through `lsner predict`: no silently wrong tags, no IndexError
    cache = edit(small_model, build_label_cache(small_model))
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        call(small_model, tiny_dataset, cache)
