"""K-shot support set construction and verification.

Counts are entity-level: a multi-token entity is one occurrence. A valid
support set satisfies two criteria: (1) every entity type has at least K
occurrences; (2) removing any single sentence breaks (1) for some type.

The sampler keeps counts as int vectors over the taxonomy's types and reads
each sentence's row of `Dataset.type_counts`, the sentence × type matrix
that a Dataset builds once and caches; it draws from
`Dataset.type_sentences`, each type's sentence indices, cached beside it.
`verify_kshot` reads neither: it counts the support's own sentences with
`extract_spans`, so it stays an independent check of the sampler.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset, extract_spans, text_lines


class SamplingError(ValueError):
    pass


@dataclass
class SupportSet:
    dataset_name: str
    shot: int
    seed: int | None
    indices: list  # sentence indices into the parent dataset, insertion order
    counts: dict = field(default_factory=dict)  # entity type -> occurrences


@dataclass
class Verdict:
    ok: bool
    reason: str | None = None
    detail: object = None


def count_entity_occurrences(sentences, taxonomy):
    """Per-type entity span counts over a list of sentences."""
    counts = Counter({orig: 0 for orig in taxonomy.originals()})
    for s in sentences:
        for span in extract_spans(s.tags):
            counts[span.type] += 1
    return dict(counts)


def sample_support(dataset, k, rng):
    """Sample a K-shot support set (greedy add, then one pruning pass).

    Phase 1 walks entity types in taxonomy order and adds uniformly random
    unused sentences containing the type until its count reaches K; the
    candidates are in ascending sentence order. Phase 2 revisits support
    sentences in insertion order and drops each one whose removal keeps
    every count at K or above.
    """
    if k < 1:
        raise SamplingError("k must be >= 1")
    labels = dataset.taxonomy.originals()
    per_sentence = dataset.type_counts
    totals = per_sentence.sum(axis=0)
    for label, total in zip(labels, totals):
        if total < k:
            raise SamplingError(
                f"label {label!r} has only {total} occurrences, need {k}")

    chosen = []
    used = np.zeros(len(per_sentence), dtype=bool)
    counts = np.zeros(len(labels), dtype=per_sentence.dtype)

    for j, label in enumerate(labels):
        if counts[j] >= k:
            continue
        # unused sentences containing the label, ascending; a pick leaves the list
        containing = dataset.type_sentences[j]
        candidates = containing[~used[containing]].tolist()
        while counts[j] < k:
            if not candidates:
                raise SamplingError(f"ran out of sentences containing {label!r}")
            pick = candidates.pop(int(rng.integers(len(candidates))))
            chosen.append(pick)
            used[pick] = True
            counts += per_sentence[pick]

    kept = []
    for idx in chosen:
        trial = counts - per_sentence[idx]
        if (trial >= k).all():
            counts = trial
        else:
            kept.append(idx)

    return SupportSet(dataset.name, k, None, kept,
                      {label: int(c) for label, c in zip(labels, counts)})


def verify_kshot(dataset, support, k):
    """Check both criteria; criterion 2 via single-sentence deletion trials.

    Each support sentence is counted once, into a row of its own; deleting
    position p leaves the total minus row p. The first removable position
    is reported.
    """
    labels = dataset.taxonomy.originals()
    column = {label: j for j, label in enumerate(labels)}
    per_sentence = np.zeros((len(support.indices), len(labels)), dtype=np.int64)
    for pos, idx in enumerate(support.indices):
        for span in extract_spans(dataset.sentences[idx].tags):
            per_sentence[pos, column[span.type]] += 1
    total = per_sentence.sum(axis=0)
    for label, count in zip(labels, total):
        if count < k:
            return Verdict(False, "criterion1_failed", label)
    removable = (total - per_sentence >= k).all(axis=1)
    if removable.any():
        return Verdict(False, "criterion2_failed", support.indices[int(removable.argmax())])
    return Verdict(True)


def support_dataset(dataset, support):
    """The support set as a Dataset view (for finetuning)."""
    return Dataset(dataset.name + f"-support{support.shot}",
                   [dataset.sentences[i] for i in support.indices],
                   dataset.taxonomy, role=dataset.role)


def serialize_support(support):
    lines = [f"# dataset={support.dataset_name}",
             f"# k={support.shot}",
             f"# seed={'' if support.seed is None else support.seed}"]
    lines += [str(i) for i in support.indices]
    return "\n".join(lines) + "\n"


# header key -> its value from the text after "="
_SUPPORT_HEADER = {"k": int, "seed": lambda text: int(text) if text else None}


def parse_support(lines, name="<support>"):
    """A SupportSet from `serialize_support` lines; a malformed line raises
    ValueError naming `name` and the line number."""
    header = {"dataset": "", "k": 0, "seed": None}
    indices = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        try:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                key = key.strip()
                header[key] = _SUPPORT_HEADER.get(key, str)(value.strip())
            elif line:
                indices.append(int(line))
        except ValueError as exc:
            raise ValueError(f"{name}:{lineno}: {exc}") from None
    return SupportSet(header["dataset"], header["k"], header["seed"], indices)


def load_support(path):
    return parse_support(text_lines(path), path)
