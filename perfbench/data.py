"""Input generators for the benchmark workloads.

Everything here only builds inputs, so its time counts toward ``setup_s``.
All randomness comes from the workload seed.
"""

from dataclasses import dataclass

import numpy as np

from lsner import matcher
from lsner.corpus import Dataset, LabelTaxonomy, Sentence, serialize_conll
from lsner.encoders import build_vocabulary
from lsner.synthetic import make_task

LABEL_WORDS = ["begin", "inside", "other", "label"] + [str(i) for i in range(1, 10)]


@dataclass
class Inputs:
    source: Dataset       # prefinetune corpus
    pool: Dataset         # corpus the sampling phase draws K-shot sets from
    target: Dataset       # corpus the finetune support is drawn from
    test: Dataset         # evaluation corpus
    stage0: object        # freshly initialized ModelState
    predict_path: str     # CoNLL file tagged by `lsner predict`
    predict_tokens: list  # its sentences as token lists


def count_tokens(sentences):
    return sum(len(s) for s in sentences)


def zipf_pool(seed, n_types, n_sentences, n_words=200, span_rate=0.2):
    """A corpus whose entity types are Zipf-skewed: type i has weight 1/(i+1).

    Sentences hold 4-10 filler tokens; before each filler an entity span of
    one or two tokens starts with probability `span_rate`, so spans never
    touch. Built only from the public Sentence/Dataset classes.
    """
    rng = np.random.default_rng([seed, 18])
    types = [f"Z{i:02d}" for i in range(n_types)]
    weights = 1.0 / np.arange(1, n_types + 1)
    # at most one span per filler, and at most 10 fillers per sentence
    type_picks = iter(rng.choice(n_types, size=10 * n_sentences,
                                 p=weights / weights.sum()))
    lengths = rng.integers(4, 11, size=n_sentences)
    sentences = []
    for n_fill in lengths:
        starts = rng.random(n_fill) < span_rate
        span_lens = rng.integers(1, 3, size=n_fill)
        tags = []
        for pos in range(n_fill):
            if starts[pos]:
                etype = types[next(type_picks)]
                tags += ["B-" + etype] + ["I-" + etype] * (int(span_lens[pos]) - 1)
            tags.append("O")
        words = rng.integers(0, n_words, size=len(tags))
        sentences.append(Sentence([f"tok{w}" for w in words], tags))
    taxonomy = LabelTaxonomy([(t, f"zipf type {t[1:]}") for t in types])
    return Dataset("zipf-pool", sentences, taxonomy)


def _write_predict_file(path, dataset):
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_conll(dataset))
    return [list(s.tokens) for s in dataset.sentences]


def desk_inputs(seed, cfg, predict_path):
    """The acceptance-criterion-7 task: V~220, d=32, window-mixer, priors."""
    task = make_task(seed=seed, dim=cfg["dim"], n_source=cfg["source"],
                     n_test=cfg["test"])
    vocab = build_vocabulary(task.source.sentences + task.target_train.sentences,
                             extra_tokens=LABEL_WORDS + task.all_words())
    table = task.static_table(vocab, np.random.default_rng([seed, 5]))
    stage0 = matcher.init_model(vocab, task.source.taxonomy, dim=cfg["dim"],
                                seed=seed, token_ctx="window-mixer", window=1,
                                label_pool="mean", static_table=table)
    pool = zipf_pool(seed, cfg["pool_types"], cfg["pool"])
    tokens = _write_predict_file(predict_path, task.target_test)
    return Inputs(task.source, pool, task.target_train, task.target_test,
                  stage0, str(predict_path), tokens)


def _family_sentence(rng, fillers, types, families):
    """Fillers with 0-2 entity spans of 1-2 title-case family words."""
    spans_at = {}
    if rng.random() >= 0.2:
        gaps = rng.choice(len(fillers) + 1, size=int(rng.integers(1, 3)),
                          replace=False)
        for gap in gaps:
            etype = types[int(rng.integers(len(types)))]
            words = families[etype]
            spans_at[int(gap)] = (etype, [words[int(rng.integers(len(words)))]
                                          for _ in range(int(rng.integers(1, 3)))])
    tokens, tags = [], []
    for pos in range(len(fillers) + 1):
        if pos in spans_at:
            etype, words = spans_at[pos]
            tokens += words
            tags += ["B-" + etype] + ["I-" + etype] * (len(words) - 1)
        if pos < len(fillers):
            tokens.append(fillers[pos])
            tags.append("O")
    return Sentence(tokens, tags)


def vocab_inputs(seed, cfg, predict_path):
    """A word-family task whose source corpus spans ~`fillers` distinct words.

    The source corpus walks one random permutation of the filler words, so
    the vocabulary built from it has about `fillers` + 50 entries. Target,
    test and predict sentences draw fillers uniformly from the same words.
    The model is the CLI default: self-attention tokens, identity labels,
    caps feature, random initialization.
    """
    rng = np.random.default_rng([seed, 20])
    n_fill = cfg["fillers"]
    filler_words = [f"w{j}" for j in range(n_fill)]
    family_words = {i: [f"Ent{i}w{j}" for j in range(8)] for i in range(5)}
    source_types = ["SRC0", "SRC1", "SRC2"]
    target_types = ["TGT3", "TGT4"]
    families = {t: family_words[i] for i, t in enumerate(source_types)}
    families.update({t: family_words[i + 3] for i, t in enumerate(target_types)})

    stream = rng.permutation(n_fill)
    source_sentences = []
    pos = 0
    while pos < n_fill:
        n = int(rng.integers(4, 9))
        fillers = [filler_words[j] for j in stream[pos:pos + n]]
        pos += n
        source_sentences.append(_family_sentence(rng, fillers, source_types, families))

    def target_corpus(n_sentences):
        return [_family_sentence(rng, [filler_words[j] for j in
                                       rng.integers(0, n_fill, int(rng.integers(4, 9)))],
                                 target_types, families)
                for _ in range(n_sentences)]

    source_tax = LabelTaxonomy([(t, families[t][0]) for t in source_types])
    target_tax = LabelTaxonomy([(t, families[t][0]) for t in target_types])
    corpus = Dataset("vocab-source", source_sentences, source_tax, role="source")
    target = Dataset("vocab-target", target_corpus(cfg["target"]), target_tax)
    test = Dataset("vocab-test", target_corpus(cfg["test"]), target_tax)
    predict = Dataset("vocab-predict", target_corpus(cfg["predict"]), target_tax)

    words = [w for members in family_words.values() for w in members]
    vocab = build_vocabulary(corpus.sentences, extra_tokens=LABEL_WORDS + words)
    stage0 = matcher.init_model(vocab, source_tax, dim=cfg["dim"], seed=seed)
    source = Dataset(corpus.name, corpus.sentences[:cfg["source"]], source_tax,
                     role="source")
    tokens = _write_predict_file(predict_path, predict)
    return Inputs(source, target, target, test, stage0, str(predict_path), tokens)
