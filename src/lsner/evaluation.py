"""Entity-level micro F1 and multi-run aggregation.

Matching is exact boundary and exact type (conlleval convention, no
partial credit). Predictions are BIO-repaired before span extraction and
the number of repaired violations is reported alongside the scores.
"""

import math
from dataclasses import dataclass, field

from .corpus import extract_spans, repair_bio
from .matcher import build_label_cache, predict_tags


@dataclass
class PRF:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self):
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self):
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class RunSummary:
    scores: list
    mean: float
    std: float  # sample std (n-1); 0 for a single run


@dataclass
class EvalResult:
    overall: PRF
    per_type: dict
    violations: int = 0


def micro_f1(gold, pred):
    """Pooled entity-level PRF over aligned per-sentence span sets."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    out = PRF()
    for g, p in zip(gold, pred):
        gset, pset = set(g), set(p)
        out.tp += len(gset & pset)
        out.fp += len(pset - gset)
        out.fn += len(gset - pset)
    return out


def per_type_f1(gold, pred, taxonomy):
    """micro_f1 restricted to each entity type in the taxonomy."""
    result = {}
    for etype in taxonomy.originals():
        g = [[s for s in sent if s.type == etype] for sent in gold]
        p = [[s for s in sent if s.type == etype] for sent in pred]
        result[etype] = micro_f1(g, p)
    return result


def evaluate_dataset(model, dataset, cache=None):
    """predict -> repair -> extract spans -> micro F1 over a dataset.

    Without a label cache the labels are encoded once for the call
    (`build_label_cache`): the computation `predict_tags` would otherwise
    repeat for every sentence, so the result is the same.
    """
    if cache is None:
        cache = build_label_cache(model)
    gold = []
    pred = []
    violations = 0
    for sentence in dataset.sentences:
        tags = predict_tags(model, sentence, cache=cache)
        repaired, v = repair_bio(tags)
        violations += v
        gold.append(extract_spans(sentence.tags))
        pred.append(extract_spans(repaired))
    return EvalResult(micro_f1(gold, pred),
                      per_type_f1(gold, pred, dataset.taxonomy),
                      violations)


def aggregate_runs(scores):
    """Mean and sample standard deviation (n-1) over per-run scores."""
    scores = [float(s) for s in scores]
    if not scores:
        raise ValueError("no scores to aggregate")
    n = len(scores)
    mean = sum(scores) / n
    if n == 1:
        return RunSummary(scores, mean, 0.0)
    var = sum((s - mean) ** 2 for s in scores) / (n - 1)
    return RunSummary(scores, mean, math.sqrt(var))


def format_record(fields):
    """One machine-readable metrics record: space-separated key=value."""
    return " ".join(f"{k}={v}" for k, v in fields.items())


def result_record(result, dataset="", k=None, seed=None):
    fields = {"dataset": dataset}
    if k is not None:
        fields["k"] = k
    if seed is not None:
        fields["seed"] = seed
    fields.update({
        "precision": f"{result.overall.precision:.6f}",
        "recall": f"{result.overall.recall:.6f}",
        "f1": f"{result.overall.f1:.6f}",
        "violations": result.violations,
    })
    for etype, prf in result.per_type.items():
        fields[f"f1[{etype}]"] = f"{prf.f1:.6f}"
    return format_record(fields)
