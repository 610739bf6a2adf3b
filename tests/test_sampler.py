"""Support-set sampling: entity-level counting and both validity criteria."""

import dataclasses
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_corpus
from lsner.corpus import Dataset, LabelTaxonomy, Sentence, extract_spans
from lsner.sampler import (SamplingError, SupportSet, Verdict, count_entity_occurrences,
                           load_support, parse_support, sample_support,
                           serialize_support, support_dataset, verify_kshot)


# Reference oracles: the per-sentence Counter sampler and the O(|S|^2)
# deletion-trial verifier that the matrix versions replaced, kept verbatim.

def _sentence_counts(dataset):
    per_sentence = []
    for s in dataset.sentences:
        c = Counter()
        for span in extract_spans(s.tags):
            c[span.type] += 1
        per_sentence.append(c)
    return per_sentence


def reference_sample_support(dataset, k, rng):
    """Sample a K-shot support set (greedy add, then one pruning pass).

    Phase 1 walks entity types in taxonomy order and adds uniformly random
    unused sentences containing the type until its count reaches K. Phase 2
    revisits support sentences in insertion order and drops each one whose
    removal keeps every count at K or above.
    """
    if k < 1:
        raise SamplingError("k must be >= 1")
    per_sentence = _sentence_counts(dataset)
    totals = count_entity_occurrences(dataset.sentences, dataset.taxonomy)
    for label in dataset.taxonomy.originals():
        if totals.get(label, 0) < k:
            raise SamplingError(
                f"label {label!r} has only {totals.get(label, 0)} "
                f"occurrences, need {k}")

    chosen = []
    in_support = set()
    counts = Counter({orig: 0 for orig in dataset.taxonomy.originals()})

    for label in dataset.taxonomy.originals():
        while counts[label] < k:
            candidates = [i for i, c in enumerate(per_sentence)
                          if c[label] > 0 and i not in in_support]
            if not candidates:
                raise SamplingError(f"ran out of sentences containing {label!r}")
            pick = candidates[int(rng.integers(len(candidates)))]
            chosen.append(pick)
            in_support.add(pick)
            counts.update(per_sentence[pick])

    for idx in list(chosen):
        trial = counts.copy()
        trial.subtract(per_sentence[idx])
        if all(trial[label] >= k for label in dataset.taxonomy.originals()):
            chosen.remove(idx)
            in_support.remove(idx)
            counts = trial

    return SupportSet(dataset.name, k, None, chosen, dict(counts))


def reference_verify_kshot(dataset, support, k):
    """Check both criteria; criterion 2 via single-sentence deletion trials."""
    sentences = [dataset.sentences[i] for i in support.indices]
    counts = count_entity_occurrences(sentences, dataset.taxonomy)
    for label in dataset.taxonomy.originals():
        if counts.get(label, 0) < k:
            return Verdict(False, "criterion1_failed", label)
    for pos, idx in enumerate(support.indices):
        rest = sentences[:pos] + sentences[pos + 1:]
        rest_counts = count_entity_occurrences(rest, dataset.taxonomy)
        if all(rest_counts.get(label, 0) >= k
               for label in dataset.taxonomy.originals()):
            return Verdict(False, "criterion2_failed", idx)
    return Verdict(True)


@st.composite
def bio_corpora(draw):
    """1-8 types, 1-120 sentences of 1-8 tags; multi-token spans, orphan
    I- tags, and types that never occur (only the first `used` are tagged)."""
    n_types = draw(st.integers(1, 8))
    used = draw(st.one_of(st.just(n_types), st.integers(1, n_types)))
    n_sentences = draw(st.integers(1, 120))
    types = [f"T{i}" for i in range(n_types)]
    tag = st.sampled_from(["O", "O"] + [m + t for t in types[:used] for m in ("B-", "I-")])
    sentences = [Sentence(["w"] * len(tags), tags)
                 for tags in draw(st.lists(st.lists(tag, min_size=1, max_size=8),
                                           min_size=n_sentences, max_size=n_sentences))]
    return Dataset("drawn", sentences, LabelTaxonomy([(t, t.lower()) for t in types]))


def outcome(sample, dataset, k, seed):
    """(indices, counts) of a draw, or the SamplingError message."""
    try:
        support = sample(dataset, k, np.random.default_rng(seed))
    except SamplingError as exc:
        return str(exc)
    return support.indices, support.counts


def perturbed_supports(dataset, indices):
    """An undersized, a padded and a duplicate-index variant of a support."""
    spare = [i for i in range(len(dataset.sentences)) if i not in indices]
    variants = [indices[:-1], indices + indices[:1], indices[1:] + indices[:1] * 2]
    if spare:
        variants += [indices + spare[:1], spare[:1] + indices]
    return variants


def subset_is_valid(dataset, indices, k):
    """Independent criteria check used as an enumeration oracle."""
    def counts(idx):
        return count_entity_occurrences([dataset.sentences[i] for i in idx],
                                        dataset.taxonomy)

    labels = dataset.taxonomy.originals()
    c = counts(indices)
    if any(c[l] < k for l in labels):
        return False
    for drop in indices:
        c = counts([i for i in indices if i != drop])
        if all(c[l] >= k for l in labels):
            return False
    return True


class TestEntityCounting:
    def test_multi_token_entity_counts_once(self, two_type_taxonomy):
        sents = [Sentence(["New", "York", "City"], ["B-LOC", "I-LOC", "I-LOC"]),
                 Sentence(["Ann", "Lee"], ["B-PER", "B-PER"])]
        counts = count_entity_occurrences(sents, two_type_taxonomy)
        assert counts == {"PER": 2, "LOC": 1}

    def test_absent_type_reported_as_zero(self, two_type_taxonomy):
        counts = count_entity_occurrences(
            [Sentence(["x"], ["O"])], two_type_taxonomy)
        assert counts == {"PER": 0, "LOC": 0}


class TestSampleSupport:
    def test_valid_and_deterministic(self, tiny_dataset):
        a = sample_support(tiny_dataset, 1, np.random.default_rng(4))
        b = sample_support(tiny_dataset, 1, np.random.default_rng(4))
        assert a.indices == b.indices
        assert verify_kshot(tiny_dataset, a, 1).ok

    def test_counts_reflect_support(self, tiny_dataset):
        support = sample_support(tiny_dataset, 2, np.random.default_rng(0))
        sentences = [tiny_dataset.sentences[i] for i in support.indices]
        assert support.counts == count_entity_occurrences(
            sentences, tiny_dataset.taxonomy)

    def test_deficient_label_named_in_error(self, two_type_taxonomy):
        ds = Dataset("d", [Sentence(["a"], ["B-PER"])], two_type_taxonomy)
        with pytest.raises(SamplingError, match="'LOC'"):
            sample_support(ds, 1, np.random.default_rng(0))

    def test_k_must_be_positive(self, tiny_dataset):
        with pytest.raises(SamplingError):
            sample_support(tiny_dataset, 0, np.random.default_rng(0))

    def test_matches_exhaustive_enumeration(self):
        # on corpora small enough to enumerate every subset, the sampled
        # set must be one of the subsets the oracle accepts
        for seed in range(10):
            rng = np.random.default_rng([seed, 17])
            ds = make_random_corpus(rng, n_types=int(rng.integers(2, 4)),
                                    n_sentences=8, min_per_type=2)
            ds = Dataset(ds.name, ds.sentences[:10], ds.taxonomy)
            valid = set()
            n = len(ds.sentences)
            for r in range(1, n + 1):
                for combo in combinations(range(n), r):
                    if subset_is_valid(ds, list(combo), 2):
                        valid.add(frozenset(combo))
            support = sample_support(ds, 2, rng)
            assert frozenset(support.indices) in valid

    @given(st.integers(0, 1000), st.sampled_from([1, 2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_random_corpora_always_verify(self, seed, k):
        rng = np.random.default_rng([seed, 23])
        ds = make_random_corpus(rng, n_types=int(rng.integers(2, 5)),
                                n_sentences=int(rng.integers(10, 40)),
                                min_per_type=k)
        support = sample_support(ds, k, rng)
        assert verify_kshot(ds, support, k).ok


class TestMatchesReference:
    @given(bio_corpora(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_draws_as_reference(self, dataset, k, seed):
        assert outcome(sample_support, dataset, k, seed) == \
            outcome(reference_sample_support, dataset, k, seed)

    @given(bio_corpora())
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_type_counts_match_per_sentence_counts(self, dataset):
        matrix = dataset.type_counts
        assert matrix.shape == (len(dataset.sentences), len(dataset.taxonomy.types))
        for row, sentence in zip(matrix, dataset.sentences):
            assert dict(zip(dataset.taxonomy.originals(), row.tolist())) == \
                count_entity_occurrences([sentence], dataset.taxonomy)

    def test_type_counts_belong_to_the_instance(self, tiny_dataset):
        three = LabelTaxonomy(tiny_dataset.taxonomy.types + [("ORG", "organization")])
        assert tiny_dataset.type_counts.shape == (5, 2)
        assert dataclasses.replace(tiny_dataset, taxonomy=three).type_counts.shape == (5, 3)

    @given(bio_corpora(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_verify_agrees_with_reference(self, dataset, k, seed):
        try:
            indices = sample_support(dataset, k, np.random.default_rng(seed)).indices
        except SamplingError:
            indices = list(range(len(dataset.sentences)))
        for variant in [indices] + perturbed_supports(dataset, indices):
            support = SupportSet(dataset.name, k, None, variant)
            assert verify_kshot(dataset, support, k) == \
                reference_verify_kshot(dataset, support, k)

    def test_verify_ignores_the_sampler_matrix(self, tiny_dataset):
        support = sample_support(tiny_dataset, 1, np.random.default_rng(1))
        tiny_dataset.type_counts = np.zeros_like(tiny_dataset.type_counts)
        for variant in [support.indices] + perturbed_supports(tiny_dataset, support.indices):
            check = SupportSet("tiny", 1, None, variant)
            assert verify_kshot(tiny_dataset, check, 1) == \
                reference_verify_kshot(tiny_dataset, check, 1)


class TestVerifyKshot:
    def test_undersized_set_fails_coverage(self, tiny_dataset):
        support = SupportSet("tiny", 1, None, [0])  # has PER+LOC once each
        assert verify_kshot(tiny_dataset, support, 2).reason == "criterion1_failed"

    def test_padded_set_fails_minimality(self, tiny_dataset):
        good = sample_support(tiny_dataset, 1, np.random.default_rng(1))
        extra = next(i for i in range(len(tiny_dataset.sentences))
                     if i not in good.indices)
        padded = SupportSet("tiny", 1, None, good.indices + [extra])
        verdict = verify_kshot(tiny_dataset, padded, 1)
        assert not verdict.ok
        assert verdict.reason == "criterion2_failed"


class TestSupportSerialization:
    def test_round_trip(self, tiny_dataset, tmp_path):
        support = sample_support(tiny_dataset, 1, np.random.default_rng(2))
        support.seed = 2
        path = tmp_path / "support.txt"
        path.write_text(serialize_support(support))
        back = load_support(path)
        assert back.indices == support.indices
        assert back.shot == 1 and back.seed == 2
        assert back.dataset_name == "tiny"

    def test_missing_seed_parses_as_none(self):
        back = parse_support(["# dataset=d", "# k=5", "# seed=", "3", "1"])
        assert back.seed is None and back.indices == [3, 1]

    def test_support_dataset_view(self, tiny_dataset):
        support = sample_support(tiny_dataset, 1, np.random.default_rng(3))
        view = support_dataset(tiny_dataset, support)
        assert [s.tokens for s in view.sentences] == \
            [tiny_dataset.sentences[i].tokens for i in support.indices]
        assert view.taxonomy is tiny_dataset.taxonomy
