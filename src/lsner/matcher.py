"""Token/label matching, two-stage training and cached inference.

The prediction rule is a raw dot product between token and label
representations followed by per-token argmax (lowest index on ties).
Training is mean token cross-entropy with Adam; both encoders receive
gradients on every iteration.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import expand_tag_labels, surface_tag
from .encoders import (N_CASES, EncoderParams, contextual_sub, encode_labels, encode_tokens,
                       select_label_contexts)
from .numeric import ParamGroup, contextualizer_shapes, token_cross_entropy


@dataclass
class TrainingConfig:
    # the published recipe uses lr 1e-5 for a pretrained 110M-parameter
    # encoder; a randomly initialized desk-scale model needs 1e-3
    learning_rate: float = 1e-3
    batch_size: int = 10
    prefinetune_epochs: int = 3
    finetune_epochs: int = 200
    seed: int = 0
    scheme: str = "name"

    def __post_init__(self):
        if not self.learning_rate > 0:  # also rejects NaN
            raise ValueError("learning rate must be positive")
        if self.batch_size < 1 or self.prefinetune_epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("counts must be non-negative, batch size positive")
        contextual_sub(self.scheme)


@dataclass
class ModelState:
    vocab: object
    token_params: EncoderParams
    label_params: EncoderParams
    taxonomy: object = None
    tag_labels: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    seed: int = 0
    taxonomy_digest: str = field(default=None, init=False, repr=False)

    def set_taxonomy(self, taxonomy):
        """Rebuild the tagging-label list and the taxonomy digest that label
        caches are checked against; no parameter is touched."""
        self.taxonomy = taxonomy
        self.tag_labels = expand_tag_labels(taxonomy)
        self.taxonomy_digest = taxonomy_hash(taxonomy)

    def param_groups(self):
        """All trainable groups, deduplicated (embedding may be tied)."""
        groups = self.token_params.groups() + self.label_params.groups()
        return list({id(g): g for g in groups}.values())

    @property
    def tied(self):
        return self.token_params.embedding is self.label_params.embedding


@dataclass
class LabelCache:
    taxonomy_hash: str
    matrix: np.ndarray
    meta: dict = field(default_factory=dict)


def taxonomy_hash(taxonomy):
    h = hashlib.sha256()
    h.update(b"other\x00")
    for orig, nat in taxonomy.types:
        h.update(orig.encode())
        h.update(b"\x00")
        h.update(nat.encode())
        h.update(b"\x00")
    return h.hexdigest()


def param_shapes(config, n_vocab):
    """Name -> shape of each parameter array of a model of `config` over
    `n_vocab` tokens, in `param_groups()` order: embedding, "tok.*", caps,
    label_embedding (untied models only), "lab.*"."""
    dim = config["dim"]
    shapes = {"embedding": (n_vocab, dim)}
    shapes.update((f"tok.{name}", shape) for name, shape in
                  contextualizer_shapes(config["token_ctx"], dim).items())
    if config["caps_feature"]:
        shapes["caps"] = (N_CASES, dim)
    if not config["tie_embeddings"]:
        shapes["label_embedding"] = (n_vocab, dim)
    shapes.update((f"lab.{name}", shape) for name, shape in
                  contextualizer_shapes(config["label_ctx"], dim).items())
    return shapes


def _init_array(name, shape, rng):
    """A fresh array for parameter `name`; random ones are drawn from `rng`."""
    dim = shape[1]
    if name == "caps":
        return np.zeros(shape)
    if name.endswith(".mix"):
        # identity on the token block keeps the embedding prior at init
        return np.vstack([np.eye(dim), rng.normal(0.0, 0.1 / np.sqrt(dim), size=(2 * dim, dim))])
    std = 1.0 / np.sqrt(dim)
    # a small output map keeps the residual branch dominant at init
    return rng.normal(0.0, 0.1 * std if name.endswith(".wo") else std, size=shape)


def init_model(vocab, taxonomy, dim=32, seed=0, token_ctx="self-attention",
               label_ctx="identity", label_pool=None, tie_embeddings=True,
               caps_feature=True, window=2, static_table=None):
    """Build a fresh ModelState.

    `label_pool` defaults to "first" for a learned label contextualizer
    and "max" for the static-vector style (identity contextualizer).
    `static_table` optionally seeds the embedding table. The arrays are
    drawn from one rng in `param_shapes` order.
    """
    if label_pool is None:
        label_pool = "max" if label_ctx == "identity" else "first"
    config = {"dim": dim, "token_ctx": token_ctx, "label_ctx": label_ctx,
              "label_pool": label_pool, "tie_embeddings": tie_embeddings,
              "caps_feature": caps_feature, "window": window}
    shapes = param_shapes(config, len(vocab))
    rng = np.random.default_rng(seed)
    arrays = {name: _init_array(name, shape, rng) for name, shape in shapes.items()
              if name != "embedding" or static_table is None}
    if static_table is not None:
        table = arrays["embedding"] = np.asarray(static_table, dtype=float)
        if table.shape != shapes["embedding"]:
            raise ValueError(f"static table shape {table.shape} != {shapes['embedding']}")
    return model_from_arrays(vocab, taxonomy, config, seed, arrays)


def model_from_arrays(vocab, taxonomy, config, seed, arrays):
    """A ModelState whose parameters are `arrays` (name -> float64 array),
    each wrapped as it is, without a copy.

    `config` holds dim, token_ctx, label_ctx, label_pool, tie_embeddings,
    caps_feature and window, and may hold more keys; the model keeps a copy
    of it. `arrays` must have the names and shapes of `param_shapes`; a
    tied model's two encoders share the one "embedding" group. Raises
    ValueError when a name is unknown or missing, or a shape differs.
    """
    shapes = param_shapes(config, len(vocab))
    if arrays.keys() != shapes.keys():
        raise ValueError(f"unknown parameters {sorted(arrays.keys() - shapes.keys())}, "
                         f"missing parameters {sorted(shapes.keys() - arrays.keys())}")
    groups = {}
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"shape mismatch for {name}")
        groups[name] = ParamGroup(name, Tensor(arrays[name]))

    def encoder(prefix, kind, embedding, **extra):
        ctx = {name[len(prefix):]: g for name, g in groups.items() if name.startswith(prefix)}
        return EncoderParams(embedding, kind, ctx, config["window"], **extra)

    model = ModelState(
        vocab, encoder("tok.", config["token_ctx"], groups["embedding"], caps=groups.get("caps")),
        encoder("lab.", config["label_ctx"], groups.get("label_embedding", groups["embedding"]),
                pool=config["label_pool"]),
        seed=seed, config=dict(config))
    model.set_taxonomy(taxonomy)
    return model


def score_tokens(e, b):
    """Raw dot-product logits of two Tensors, T x L. No temperature, no bias."""
    if e.data.shape[1] != b.data.shape[1]:
        raise ValueError(
            f"dimension mismatch: tokens {e.data.shape} vs labels {b.data.shape}")
    return ad.matmul(e, ad.transpose(b))


def label_matrix(model, contexts=None):
    """Current label representations as a Tensor, (2*N_L - 1) x d."""
    return encode_labels(model.tag_labels, model.label_params, model.vocab, contexts)


def check_label_cache(model, cache):
    """Raise ValueError unless `cache` has a row of the model's width per label of its taxonomy."""
    if cache.taxonomy_hash != model.taxonomy_digest:
        raise ValueError("label cache does not match the taxonomy")
    got, shape = cache.matrix.shape, (len(model.tag_labels), model.config["dim"])
    if got != shape:
        raise ValueError(f"label matrix {got}, the model needs {shape}")


def predict_tags(model, sentence, cache=None):
    """Per-token argmax prediction mapped back to surface BIO tags.

    With a LabelCache, which must fit the model (`check_label_cache`), the
    label encoder is not run; without one it runs for this call.
    """
    if cache is None:
        cache = build_label_cache(model)
    check_label_cache(model, cache)
    with ad.no_grad():
        e = encode_tokens(sentence, model.token_params, model.vocab)
        logits = score_tokens(e, Tensor(cache.matrix)).data
    picks = np.argmax(logits, axis=1)  # first max wins on ties
    return [surface_tag(model.tag_labels[i]) for i in picks]


def gold_indices(sentence, tag_labels):
    by_surface = {surface_tag(lbl): lbl.index for lbl in tag_labels}
    return [by_surface[t] for t in sentence.tags]


def sentence_loss(model, sentence, labels):
    """Cross-entropy of one sentence against label rows `labels`; gradients reach both encoders."""
    e = encode_tokens(sentence, model.token_params, model.vocab)
    logits = score_tokens(e, labels)
    return token_cross_entropy(logits, gold_indices(sentence, model.tag_labels))


# Adam updates a group in row blocks of about this many float64 values
# (256 KB), so a block's moments, gradient and temporaries stay in cache
ADAM_BLOCK_VALUES = 1 << 15
# below this fraction of live rows Adam gathers, updates and scatters only
# the live rows; at or above it the blocked loop over every row is cheaper.
# Timing one step at d=128 put the break-even between 0.4 and 0.5 for
# V = 2k, 20k and 60k (the sweep in BENCH_20.json)
ADAM_LIVE_FRACTION = 0.4


class Adam:
    """Bias-corrected adaptive-moment optimizer over ParamGroups."""

    def __init__(self, groups, lr=1e-3):
        self.groups = list(groups)
        self.lr = lr
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = [np.zeros_like(g.values) for g in self.groups]
        self.v = [np.zeros_like(g.values) for g in self.groups]
        # per group, the rows that have had a gradient since this optimizer
        # was made; None once every row counts as live. A group of at most
        # one block counts as live from the start: there the fixed cost of a
        # gather and scatter is more than the rows it skips
        self.live = [None if g.values.size <= ADAM_BLOCK_VALUES
                     else np.zeros(len(g.values), dtype=bool) for g in self.groups]

    def zero_grad(self):
        for g in self.groups:
            g.zero_grad()

    def _live_rows(self, i, record):
        """Grow group i's live mask by a gradient's row record; return the
        live row indices, or None when the group is (now) fully live."""
        live = self.live[i]
        if live is None or record is None:
            self.live[i] = None
            return None
        live[np.concatenate(record)] = True
        rows = np.flatnonzero(live)
        if len(rows) >= ADAM_LIVE_FRACTION * len(live):
            self.live[i] = None
            return None
        return rows

    def step(self):
        """One update of every group that has a gradient.

        Every element goes through the same operations in the same order as
        the textbook dense expression, in row blocks of about
        ADAM_BLOCK_VALUES values. A group's live mask holds the rows a
        gradient has reached since this optimizer was made (its tensor's
        `grad_rows` record; a gradient without a record, or a group of at
        most one block, makes every row live). The mask only grows: a live
        row's m and v are in general non-zero, so it moves even when its
        gradient is 0. Any other row has gradient, m and v exactly 0, and
        its update `data -= 0/(0+eps)` keeps its bits (also for -0.0), so
        it is skipped. Below ADAM_LIVE_FRACTION live rows, the live rows
        are gathered, updated and scattered back; at or above it every row
        is updated in place.
        """
        self.t += 1
        c1 = 1 - self.b1 ** self.t
        c2 = 1 - self.b2 ** self.t
        for i, (g, m, v) in enumerate(zip(self.groups, self.m, self.v)):
            grad = g.grad
            if grad is None:
                continue
            data = g.tensor.data
            live_rows = self._live_rows(i, g.tensor.grad_rows)
            rows = max(1, ADAM_BLOCK_VALUES // data[0].size)
            num = np.empty_like(data[:rows])
            den = np.empty_like(num)
            for lo in range(0, len(data if live_rows is None else live_rows), rows):
                if live_rows is None:
                    blk = slice(lo, lo + rows)
                    self._update(grad[blk], m[blk], v[blk], data[blk], num, den, c1, c2)
                else:
                    blk = live_rows[lo:lo + rows]
                    mb, vb, db = m[blk], v[blk], data[blk]
                    self._update(grad[blk], mb, vb, db, num, den, c1, c2)
                    m[blk], v[blk], data[blk] = mb, vb, db

    def _update(self, gb, mb, vb, db, num, den, c1, c2):
        """Adam on one block, in place in mb, vb and db."""
        b1, b2, lr, eps = self.b1, self.b2, self.lr, self.eps
        tn, td = num[:len(gb)], den[:len(gb)]
        # m = b1*m + (1-b1)*g
        np.multiply(gb, 1 - b1, out=tn)
        mb *= b1
        mb += tn
        # v = b2*v + ((1-b2)*g)*g
        np.multiply(gb, 1 - b2, out=tn)
        tn *= gb
        vb *= b2
        vb += tn
        # data -= (lr*mhat) / (sqrt(vhat) + eps)
        np.divide(mb, c1, out=tn)
        tn *= lr
        np.divide(vb, c2, out=td)
        np.sqrt(td, out=td)
        td += eps
        tn /= td
        db -= tn


def train_stage(model, dataset, config, stage="finetune", support_sentences=None,
                trace_hook=None):
    """One training stage; returns the per-epoch mean loss trace.

    The tagging-label list is rebuilt from the dataset taxonomy at stage
    start; every parameter persists. Contextual label inputs are selected
    once here and frozen for the whole stage.
    """
    if not dataset.sentences:
        raise ValueError("cannot train on an empty dataset")
    model.set_taxonomy(dataset.taxonomy)
    sub = contextual_sub(config.scheme)

    epochs = (config.prefinetune_epochs if stage == "prefinetune"
              else config.finetune_epochs)
    rng = np.random.default_rng([config.seed, 0 if stage == "prefinetune" else 1])

    contexts = None
    if sub is not None:
        if support_sentences is None:
            support_sentences = dataset.sentences
        contexts = select_label_contexts(model.tag_labels, support_sentences, sub, rng)

    opt = Adam(model.param_groups(), lr=config.learning_rate)
    n = len(dataset.sentences)
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_tokens = 0
        for start in range(0, n, config.batch_size):
            batch = [dataset.sentences[i] for i in order[start:start + config.batch_size]]
            opt.zero_grad()
            labels = label_matrix(model, contexts)
            # per-token mean over the whole batch
            parts = []
            total_tokens = sum(len(s) for s in batch)
            for s in batch:
                loss_s = sentence_loss(model, s, labels=labels)
                parts.append(ad.scale(loss_s, len(s) / total_tokens))
            loss = parts[0]
            for p in parts[1:]:
                loss = ad.add(loss, p)
            loss.backward()
            opt.step()
            epoch_loss += float(loss.data) * total_tokens
            epoch_tokens += total_tokens
        trace.append(epoch_loss / max(epoch_tokens, 1))
        if trace_hook is not None:
            trace_hook(stage, epoch, trace[-1])
    return trace


def run_two_stage(model, source, target_support, config):
    """Pre-finetune on the source (if any), then finetune on the support.

    Only the tagging-label list changes at the stage boundary; no
    parameter array is reset or reinitialized.
    """
    traces = {}
    if source is not None:
        traces["prefinetune"] = train_stage(model, source, config, stage="prefinetune")
    traces["finetune"] = train_stage(model, target_support, config, stage="finetune",
                                     support_sentences=target_support.sentences)
    return traces


def build_label_cache(model):
    """Freeze the current label representations for cached inference."""
    with ad.no_grad():
        matrix = label_matrix(model).data.copy()
    return LabelCache(model.taxonomy_digest, matrix, {"seed": model.seed})
