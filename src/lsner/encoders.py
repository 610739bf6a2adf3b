"""Token-side and label-side encoders: two instances of one `EncoderParams`
in one d-dimensional space.

Both sides can share the embedding table (tied by default), so a label
name like "person" starts out at the same point as the token "person".
A label is encoded from its name, or from the support sentences that a
contextual scheme froze for it, with the name substituted in.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import extract_spans, text_lines
from .numeric import ParamGroup, apply_contextualizer, pool_rows

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
MASK_TOKEN = "<mask>"

CONTEXTUAL_SCHEMES = ("TOKEN", "LABEL", "MASK", "BIOTAG_COLON_MASK",
                      "PAREN_BIOTAG_MASK", "BIOTAG_COLON_LABEL",
                      "PAREN_BIOTAG_LABEL")
# most support sentences a contextual scheme encodes per tagging label
CONTEXT_BUDGET = 10


@dataclass
class Vocabulary:
    tokens: list
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if UNK_TOKEN not in self.index:
            raise ValueError(f"vocabulary has no {UNK_TOKEN} token")

    def __len__(self):
        return len(self.tokens)

    def lookup(self, token):
        return self.index.get(token, self.index[UNK_TOKEN])


def build_vocabulary(sentences, min_freq=1, extra_tokens=()):
    """Lowercased vocabulary from training sentences plus extra surface forms.

    Label-name words should be passed through `extra_tokens` so the label
    encoder never hits <unk> on its own names.
    """
    counts = Counter(tok.lower() for s in sentences for tok in s.tokens)
    frequent = [tok for tok, c in counts.items() if c >= min_freq]
    # first occurrence wins, so the special tokens keep ids 0-2
    return Vocabulary(list(dict.fromkeys(
        [PAD_TOKEN, UNK_TOKEN, MASK_TOKEN] + frequent + [tok.lower() for tok in extra_tokens])))


# capitalization feature classes: lower, title, upper, other
N_CASES = 4


def case_index(token):
    if token.islower() or not any(c.isalpha() for c in token):
        return 0
    if token.istitle():
        return 1
    if token.isupper():
        return 2
    return 3


def contextual_sub(text):
    """The contextual sub-scheme a label scheme names, or None for "name"."""
    if text == "name":
        return None
    if not text.startswith("contextual:"):
        raise ValueError(f"unknown label scheme {text!r}")
    sub = text[len("contextual:"):]
    if sub not in CONTEXTUAL_SCHEMES:
        raise ValueError(f"unknown contextual sub-scheme {sub!r}")
    return sub


@dataclass
class EncoderParams:
    """One encoder's parameters; the token and label encoders are two of these.
    `caps` (token side only) adds a learned row per capitalization class;
    `pool` (label side only) collapses a label name's rows to one vector."""

    embedding: ParamGroup  # the label side may share the token side's table
    ctx_kind: str
    ctx_params: dict
    window: int
    caps: ParamGroup | None = None
    pool: str | None = None

    def groups(self):
        out = [self.embedding, *self.ctx_params.values()]
        return out if self.caps is None else out + [self.caps]


def encode_tokens(sentence, params, vocab):
    """Encode one sentence to a T x d Tensor."""
    if len(sentence) == 0:
        raise ValueError("cannot encode an empty sentence")
    return _encode_token_list(sentence.tokens, params, vocab)


def _encode_token_list(tokens, params, vocab):
    """Embed the lowercased tokens, add each token's caps row when the
    encoder has a caps table, and contextualize: a T x d Tensor."""
    x = ad.take_rows(params.embedding.tensor, [vocab.lookup(t.lower()) for t in tokens])
    if params.caps is not None:
        x = ad.add(x, ad.take_rows(params.caps.tensor, [case_index(t) for t in tokens]))
    return apply_contextualizer(x, params.ctx_params, params.ctx_kind,
                                window=params.window)


def _replacement(sub, position_in_span, name_tokens):
    """Token sequence that replaces one entity token under a sub-scheme."""
    bio = "begin" if position_in_span == 0 else "inside"
    if sub == "TOKEN":
        return None  # keep original token
    if sub == "LABEL":
        return list(name_tokens)
    if sub == "MASK":
        return [MASK_TOKEN]
    if sub == "BIOTAG_COLON_LABEL":
        return [bio, ":"] + list(name_tokens)
    if sub == "PAREN_BIOTAG_LABEL":
        return ["(", bio, ")"] + list(name_tokens)
    if sub == "BIOTAG_COLON_MASK":
        return [bio, ":", MASK_TOKEN]
    if sub == "PAREN_BIOTAG_MASK":
        return ["(", bio, ")", MASK_TOKEN]
    raise ValueError(f"unknown sub-scheme {sub!r}")


def build_contextual_label_inputs(label, support_sentences, sub, rng, spans=None):
    """Context token lists for one tagging label.

    Picks up to CONTEXT_BUDGET distinct support sentences containing an
    entity of the label's type, and in each one rewrites every token of one
    (randomly chosen) occurrence according to the sub-scheme. Returns an
    empty list when no sentence qualifies (callers fall back to the
    name-only representation). `spans`, when given, holds `extract_spans`
    of each support sentence, so a caller building every label extracts
    them once.
    """
    if label.original is None:
        return []
    if spans is None:
        spans = [extract_spans(s.tags) for s in support_sentences]
    eligible = []  # (sentence, its spans of the label's type)
    for s, sentence_spans in zip(support_sentences, spans):
        own = [sp for sp in sentence_spans if sp.type == label.original]
        if own:
            eligible.append((s, own))
    if not eligible:
        return []
    n = min(CONTEXT_BUDGET, len(eligible))
    picks = rng.choice(len(eligible), size=n, replace=False)
    name_tokens = label.text.split()[1:]  # strip the begin/inside word

    out = []
    for p in sorted(int(i) for i in picks):
        s, own = eligible[p]
        span = own[int(rng.integers(len(own)))]
        tokens = []
        for i, tok in enumerate(s.tokens):
            if span.start <= i < span.end:
                rep = _replacement(sub, i - span.start, name_tokens)
                tokens.extend([tok] if rep is None else rep)
            else:
                tokens.append(tok)
        out.append(tokens)
    return out


def select_label_contexts(labels, support_sentences, sub, rng):
    """Freeze every tagging label's contexts under sub-scheme `sub` at stage start."""
    spans = [extract_spans(s.tags) for s in support_sentences]
    return {label.text: build_contextual_label_inputs(
        label, support_sentences, sub, rng, spans=spans)
        for label in labels}


def encode_labels(labels, params, vocab, contexts=None):
    """Encode the canonical tagging-label list to a (2*N_L - 1) x d Tensor.

    A label with frozen context sentences in `contexts` (label text ->
    token lists) is contextual: encode each sentence, mean-pool over all
    positions and average across sentences. Any other label is its name:
    whitespace-tokenize the label text, embed, contextualize and pool.
    """
    rows = []
    for label in labels:
        ctx_sents = (contexts or {}).get(label.text)
        if ctx_sents:
            pooled = [ad.mean_rows(_encode_token_list(toks, params, vocab))
                      for toks in ctx_sents]
            rows.append(ad.average(pooled))
        else:
            enc = _encode_token_list(label.text.split(), params, vocab)
            rows.append(pool_rows(enc, params.pool))
    return ad.stack_rows(rows)


def load_static_vectors(path, dim):
    """Read a plain-text vector file: one token and `dim` numbers a line.

    Returns token -> vector. A malformed line raises ValueError naming
    ``path:line``.
    """
    vectors = {}
    for lineno, line in enumerate(text_lines(path), start=1):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if len(values) != dim:
            raise ValueError(f"{path}:{lineno}: vector has {len(values)} dims, expected {dim}")
        try:
            vectors[token] = np.array([float(v) for v in values])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return vectors


def static_table(vectors, vocab, dim, rng):
    """Embedding table for `vocab` seeded from `vectors` (token -> vector).

    Returns (table, coverage). Tokens without a vector get the standard
    random init; the table stays trainable either way.
    """
    table = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(len(vocab), dim))
    covered = 0
    for i, token in enumerate(vocab.tokens):
        if token in vectors:
            table[i] = vectors[token]
            covered += 1
    return table, covered / len(vocab)
