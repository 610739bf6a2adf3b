"""BIO-tagged corpora, label taxonomies and their transformations.

Corpus files are CoNLL-style columns (token first, BIO tag last, blank
line between sentences, ``-DOCSTART-`` lines skipped). Taxonomy files map
original label names to natural language names, one tab-separated pair
per line; ``O`` is implicit.
"""

import contextlib
import functools
import re
from dataclasses import dataclass

import numpy as np

_TAG_RE = re.compile(r"^(O|[BI]-.+)$")


class CorpusError(ValueError):
    """Malformed corpus or taxonomy input."""


@dataclass(frozen=True)
class EntitySpan:
    """Half-open token span [start, end) of one entity type."""

    type: str
    start: int
    end: int


@dataclass(frozen=True)
class TaggingLabel:
    """One of the 2*N_L - 1 classification targets.

    role is "other", "begin" or "inside"; original is the raw entity type
    (None for "other"); text is the natural-language surface form fed to
    the label encoder, e.g. "begin person".
    """

    text: str
    index: int
    role: str
    original: str | None


@dataclass
class Sentence:
    tokens: list
    tags: list

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise CorpusError(
                f"{len(self.tokens)} tokens but {len(self.tags)} tags")
        for tag in self.tags:
            if not _TAG_RE.match(tag):
                raise CorpusError(f"bad BIO tag {tag!r}")

    def __len__(self):
        return len(self.tokens)


@dataclass
class LabelTaxonomy:
    """Ordered entity types with their natural-language names.

    `types` excludes the implicit "other"; N_L counts it in.
    """

    types: list  # list of (original_name, natural_name)

    def __post_init__(self):
        cleaned = []
        seen = set()
        for orig, natural in self.types:
            if orig in seen:
                raise CorpusError(f"duplicate label {orig!r}")
            seen.add(orig)
            cleaned.append((orig, natural.lower()))
        self.types = cleaned

    @property
    def n_labels(self):
        return len(self.types) + 1

    def originals(self):
        return [orig for orig, _ in self.types]

    def natural(self, original):
        for orig, nat in self.types:
            if orig == original:
                return nat
        raise KeyError(original)


@dataclass
class Dataset:
    """Sentences under one taxonomy; neither is mutated after construction."""

    name: str
    sentences: list
    taxonomy: LabelTaxonomy
    role: str = "target"

    def __post_init__(self):
        known = set(self.taxonomy.originals())
        for i, s in enumerate(self.sentences):
            for tag in s.tags:
                if tag != "O" and tag[2:] not in known:
                    raise CorpusError(
                        f"sentence {i}: tag {tag!r} not in taxonomy")

    @functools.cached_property
    def type_counts(self):
        """Entity spans per (sentence, type), types in taxonomy order.

        An int matrix built on first use and kept on this instance; a copy
        made with `dataclasses.replace` builds its own. Column-major, so a
        type's column is contiguous.
        """
        n = len(self.sentences)
        column = {orig: j for j, orig in enumerate(self.taxonomy.originals())}
        cells = [column[span.type] * n + i
                 for i, s in enumerate(self.sentences) for span in extract_spans(s.tags)]
        return np.bincount(np.array(cells, dtype=np.intp), minlength=n * len(column)
                           ).reshape((n, len(column)), order="F")


def infer_natural_name(original):
    """Default natural-language form when no taxonomy file is given."""
    return original.lower().replace("_", " ").replace("-", " ").replace("/", " ")


def conll_sentences(lines):
    """Split CoNLL column text into sentences.

    Yields one list of (1-based line number, whitespace-split columns) per
    sentence. ``-DOCSTART-`` lines are skipped; blank lines end a sentence.
    """
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("-DOCSTART-"):
            continue
        cols = line.split()
        if cols:
            rows.append((lineno, cols))
        elif rows:
            yield rows
            rows = []
    if rows:
        yield rows


def parse_conll(lines, name="corpus", taxonomy=None):
    """Parse CoNLL column text into a Dataset.

    `lines` is any iterable of text lines (an open file works). Reports
    the 1-based line number of the first malformed row.
    """
    sentences = []
    seen_types = []
    for rows in conll_sentences(lines):
        tokens, tags = [], []
        for lineno, cols in rows:
            if len(cols) < 2:
                raise CorpusError(f"line {lineno}: expected token and tag columns")
            token, tag = cols[0], cols[-1]
            if not _TAG_RE.match(tag):
                raise CorpusError(f"line {lineno}: bad BIO tag {tag!r}")
            if tag != "O" and tag[2:] not in seen_types:
                seen_types.append(tag[2:])
            tokens.append(token)
            tags.append(tag)
        sentences.append(Sentence(tokens, tags))
    if not sentences:
        raise CorpusError("empty corpus")

    if taxonomy is None:
        taxonomy = LabelTaxonomy([(t, infer_natural_name(t)) for t in seen_types])
    return Dataset(name, sentences, taxonomy)


@contextlib.contextmanager
def _naming(path):
    """Prefix the message of a CorpusError raised inside with `path`."""
    try:
        yield
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def load_conll(path, taxonomy=None):
    with open(path, encoding="utf-8") as f, _naming(path):
        return parse_conll(f, name=str(path), taxonomy=taxonomy)


def serialize_conll(dataset):
    out = []
    for s in dataset.sentences:
        for token, tag in zip(s.tokens, s.tags):
            out.append(f"{token} {tag}")
        out.append("")
    return "\n".join(out) + "\n"


def parse_taxonomy(lines):
    """Parse a taxonomy file: "original<TAB>natural name" per line."""
    types = []
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "\t" not in line:
            raise CorpusError(f"taxonomy line {lineno}: expected a tab separator")
        orig, natural = line.split("\t", 1)
        types.append((orig.strip(), natural.strip()))
    return LabelTaxonomy(types)


def load_taxonomy(path):
    with open(path, encoding="utf-8") as f, _naming(path):
        return parse_taxonomy(f)


def serialize_taxonomy(taxonomy):
    return "".join(f"{orig}\t{nat}\n" for orig, nat in taxonomy.types)


def extract_spans(tags):
    """Collect entity spans from a BIO sequence (conlleval convention).

    An I-X with no preceding B-X/I-X of the same type opens a new span.
    Returned spans are sorted by start and never overlap.
    """
    spans = []
    start = None
    current = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if current is not None:
                spans.append(EntitySpan(current, start, i))
                current = None
            continue
        marker, etype = tag[0], tag[2:]
        if marker == "B" or current != etype:
            if current is not None:
                spans.append(EntitySpan(current, start, i))
            current = etype
            start = i
    if current is not None:
        spans.append(EntitySpan(current, start, len(tags)))
    return spans


def repair_bio(tags):
    """Rewrite orphan I-X tags to B-X; returns (repaired, violation count)."""
    repaired = []
    violations = 0
    prev_type = None
    for tag in tags:
        if tag == "O":
            repaired.append(tag)
            prev_type = None
            continue
        marker, etype = tag[0], tag[2:]
        if marker == "I" and prev_type != etype:
            repaired.append("B-" + etype)
            violations += 1
        else:
            repaired.append(tag)
        prev_type = etype
    return repaired, violations


def expand_tag_labels(taxonomy):
    """The canonical ordered tagging-label list: 2*N_L - 1 entries.

    "other" first, then "begin <name>" / "inside <name>" per entity type
    in taxonomy order.
    """
    naturals = [nat for _, nat in taxonomy.types]
    if len(set(naturals)) != len(naturals):
        raise CorpusError("duplicate natural names in taxonomy")
    labels = [TaggingLabel("other", 0, "other", None)]
    for orig, nat in taxonomy.types:
        labels.append(TaggingLabel(f"begin {nat}", len(labels), "begin", orig))
        labels.append(TaggingLabel(f"inside {nat}", len(labels), "inside", orig))
    return labels


def surface_tag(label):
    """Map a TaggingLabel back to its B-/I-/O surface form."""
    if label.role == "other":
        return "O"
    return ("B-" if label.role == "begin" else "I-") + label.original


def _random_derangement(n, rng):
    while True:
        perm = rng.permutation(n)
        if not any(perm[i] == i for i in range(n)):
            return perm


RENAME_MODES = ("original", "meaningless", "misleading", "custom")


def rename_taxonomy(taxonomy, mode, rng=None, mapping=None):
    """Return a taxonomy with renamed natural-language forms.

    meaningless: "label 1".."label n" in order. misleading: a uniformly
    random derangement of the natural names. custom: apply `mapping`
    (original name -> new natural name), which must cover every type.
    "other" is never renamed.
    """
    if mode not in RENAME_MODES:
        raise CorpusError(f"unknown rename mode {mode!r}")
    types = taxonomy.types
    if mode == "original":
        return LabelTaxonomy(list(types))
    if mode == "meaningless":
        return LabelTaxonomy(
            [(orig, f"label {i + 1}") for i, (orig, _) in enumerate(types)])
    if mode == "misleading":
        if len(types) < 2:
            raise CorpusError("misleading rename needs at least two types")
        perm = _random_derangement(len(types), rng)
        return LabelTaxonomy(
            [(orig, types[perm[i]][1]) for i, (orig, _) in enumerate(types)])
    missing = [orig for orig, _ in types if orig not in mapping]  # custom
    if missing:
        raise CorpusError(f"rename map missing entries for {missing}")
    return LabelTaxonomy([(orig, mapping[orig]) for orig, _ in types])


def filter_coarse_type(dataset, coarse, rng, separator="-"):
    """Keep only annotations under one coarse type, then rebalance.

    Annotations of other coarse types are erased to O. Unannotated
    sentences are randomly dropped until the fraction of sentences with
    at least one annotation matches the original dataset (the retained
    unannotated count is rounded down). Annotated sentences all survive.
    """
    prefix = coarse + separator
    kept_types = [(o, n) for o, n in dataset.taxonomy.types
                  if o == coarse or o.startswith(prefix)]
    if not kept_types:
        raise CorpusError(f"coarse type {coarse!r} not in taxonomy")
    kept_set = {o for o, _ in kept_types}

    orig_annotated = sum(1 for s in dataset.sentences if extract_spans(s.tags))
    frac = orig_annotated / len(dataset.sentences)

    filtered = []
    for s in dataset.sentences:
        tags = [t if t == "O" or t[2:] in kept_set else "O" for t in s.tags]
        filtered.append(Sentence(list(s.tokens), tags))

    annotated_idx = [i for i, s in enumerate(filtered) if extract_spans(s.tags)]
    annotated = set(annotated_idx)
    pool = [i for i in range(len(filtered)) if i not in annotated]
    n_a = len(annotated_idx)
    if frac > 0 and n_a:
        keep_u = min(len(pool), int(n_a * (1.0 - frac) / frac))
    else:
        keep_u = len(pool)
    kept_pool = sorted(rng.choice(pool, size=keep_u, replace=False)) if keep_u < len(pool) else pool
    keep = sorted(annotated_idx + list(kept_pool))
    return Dataset(dataset.name + f"-{coarse}",
                   [filtered[i] for i in keep],
                   LabelTaxonomy(kept_types),
                   role=dataset.role)
