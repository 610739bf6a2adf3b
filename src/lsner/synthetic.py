"""Separable word-family corpora for desk-scale experiments.

Vocabulary words are grouped into disjoint "families"; each entity type
is marked by one family, and its natural label name is itself a word of
that family. A static-vector table gives words of the same family
correlated vectors, standing in for pretrained priors: label names start
out close to the tokens they should match.
"""

from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset, LabelTaxonomy, Sentence
from .encoders import static_table


@dataclass
class SyntheticTask:
    source: Dataset
    target_train: Dataset
    target_test: Dataset
    families: dict            # entity type -> list of member words
    vectors: dict             # word -> fixed prior vector
    synonym_map: dict         # target type -> alternate family word
    dim: int
    fillers: list = field(default_factory=list)

    def static_table(self, vocab, rng):
        """Embedding table for `vocab` seeded from the word priors."""
        return static_table(self.vectors, vocab, self.dim, rng)[0]

    def all_words(self):
        words = list(self.fillers)
        for members in self.families.values():
            words.extend(members)
        return words


def _make_sentences(rng, types, families, n, fillers):
    sentences = []
    for _ in range(n):
        n_fill = int(rng.integers(4, 9))
        base = [fillers[int(rng.integers(len(fillers)))] for _ in range(n_fill)]
        spans_at = {}
        if types and rng.random() >= 0.2:  # a fifth of the sentences hold no entity
            n_spans = int(rng.integers(1, 3))  # else one or two spans
            # distinct gaps keep spans separated by at least one filler
            gaps = rng.choice(n_fill + 1, size=min(n_spans, n_fill + 1),
                              replace=False)
            for gap in gaps:
                etype = types[int(rng.integers(len(types)))]
                words = families[etype]
                length = int(rng.integers(1, 3))
                spans_at[int(gap)] = (
                    etype,
                    [words[int(rng.integers(len(words)))] for _ in range(length)])
        tokens, tags = [], []
        for pos in range(n_fill + 1):
            if pos in spans_at:
                etype, words = spans_at[pos]
                tokens.extend(words)
                tags.extend(["B-" + etype] + ["I-" + etype] * (len(words) - 1))
            if pos < n_fill:
                tokens.append(base[pos])
                tags.append("O")
        sentences.append(Sentence(tokens, tags))
    return sentences


def make_task(seed=0, dim=32, n_source=2000, n_target_train=500, n_test=500,
              words_per_family=8, n_fillers=160):
    """Build the three-way source/target corpus with family-prior vectors.

    Source taxonomy covers families 0-2; the target taxonomy uses the two
    held-out families 3-4. Total vocabulary: 5 * words_per_family entity
    words plus n_fillers filler words (200 with the defaults). A family word's
    vector is 3 times its family's unit direction plus noise of norm about 0.3.
    """
    rng = np.random.default_rng([seed, 71])
    family_words = {i: [f"ent{i}x{j}" for j in range(words_per_family)]
                    for i in range(5)}
    fillers = [f"fill{j}" for j in range(n_fillers)]

    source_types = [f"SRC{i}" for i in range(3)]
    target_types = ["TGT3", "TGT4"]
    families = {t: family_words[i] for i, t in enumerate(source_types)}
    families.update({t: family_words[i + 3] for i, t in enumerate(target_types)})

    # natural label name = first word of the owning family
    source_tax = LabelTaxonomy([(t, families[t][0]) for t in source_types])
    target_tax = LabelTaxonomy([(t, families[t][0]) for t in target_types])
    synonym_map = {t: families[t][1] for t in target_types}

    # family direction u_i (unit), word = 3 * u_i + small noise
    vectors = {}
    for i in range(5):
        u = rng.normal(0.0, 1.0, size=dim)
        u /= np.linalg.norm(u)
        for word in family_words[i]:
            noise = rng.normal(0.0, 0.3 / np.sqrt(dim), size=dim)
            vectors[word] = 3.0 * u + noise
    for word in fillers + ["begin", "inside", "other", "label"] + [str(i) for i in range(1, 10)]:
        vectors[word] = rng.normal(0.0, 1.0 / np.sqrt(dim), size=dim)

    source = Dataset("synthetic-source",
                     _make_sentences(rng, source_types, families, n_source, fillers),
                     source_tax, role="source")
    target_train = Dataset("synthetic-target-train",
                           _make_sentences(rng, target_types, families,
                                           n_target_train, fillers),
                           target_tax, role="target")
    target_test = Dataset("synthetic-target-test",
                          _make_sentences(rng, target_types, families,
                                          n_test, fillers),
                          target_tax, role="target")
    return SyntheticTask(source, target_train, target_test, families, vectors,
                         synonym_map, dim, fillers)
