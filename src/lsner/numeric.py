"""Dense numeric operations shared by both encoders.

Each operation takes and returns autodiff Tensors, so training and
inference run the same code; under `no_grad()` no tape is recorded.
`softmax_rows` alone takes a plain array and returns one.
Tie-breaking is always lowest-index; softmax is always max-subtracted.
`contextualizer_shapes` is the one statement of a contextualizer's arrays.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

POOL_STRATEGIES = ("max", "mean", "first")
CONTEXTUALIZER_KINDS = ("identity", "window-mixer", "self-attention")


@dataclass
class ParamGroup:
    """A named trainable array with its gradient accumulator."""

    name: str
    tensor: Tensor = field(repr=False)

    @property
    def values(self):
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad

    @property
    def shape(self):
        return self.tensor.data.shape

    def zero_grad(self):
        self.tensor.zero_grad()


def _check_finite(data, what):
    bad = ~np.isfinite(data)
    if bad.any():
        row = int(np.argwhere(bad)[0][0])
        raise ValueError(f"{what}: non-finite value in row {row}")


def softmax_rows(m):
    """Row-wise stable softmax of a 2-D array, as an array."""
    m = np.asarray(m, dtype=float)
    _check_finite(m, "softmax_rows")
    with ad.no_grad():
        return ad.softmax_rows_t(Tensor(m)).data


def token_cross_entropy(logits, gold):
    """Mean over tokens of -log softmax(logits_t)[gold_t].

    logits is a T x L Tensor, gold a length-T index sequence.
    """
    gold = np.asarray(gold, dtype=np.intp)
    n_tokens, n_labels = logits.data.shape
    if gold.shape != (n_tokens,):
        raise ValueError(f"gold length {gold.shape} does not match {n_tokens} tokens")
    if gold.size and (gold.min() < 0 or gold.max() >= n_labels):
        raise ValueError(f"gold index out of range [0, {n_labels})")
    return ad.cross_entropy_rows(logits, gold)


def pool_rows(m, strategy):
    """Collapse a T x d Tensor to one d-vector: max, mean, or first row."""
    if strategy not in POOL_STRATEGIES:
        raise ValueError(f"unknown pool strategy {strategy!r}")
    if m.data.shape[0] < 1:
        raise ValueError("pool_rows: zero rows")
    op = {"max": ad.max_rows, "mean": ad.mean_rows, "first": ad.first_row}[strategy]
    return op(m)


@functools.lru_cache(maxsize=256)
def sinusoidal_positions(length, dim):
    """Classic fixed sin/cos position table, shape length x dim."""
    pos = np.arange(length, dtype=float)[:, None]
    i = np.arange(dim, dtype=float)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (i // 2) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    table.setflags(write=False)
    return table


def contextualizer_shapes(kind, dim):
    """Name -> shape of each array a contextualizer of the given kind needs,
    in the order `matcher.init_model` draws them."""
    if kind not in CONTEXTUALIZER_KINDS:
        raise ValueError(f"unknown contextualizer kind {kind!r}")
    if kind == "window-mixer":
        return {"mix": (3 * dim, dim)}
    if kind == "self-attention":
        return dict.fromkeys(("wq", "wk", "wv", "wo"), (dim, dim))
    return {}


def _window_average_matrices(t, window):
    left = np.zeros((t, t))
    right = np.zeros((t, t))
    for i in range(t):
        lo = max(0, i - window)
        left[i, lo:i] = 1.0 / window  # zero-padding: always divide by window
        hi = min(t, i + 1 + window)
        right[i, i + 1:hi] = 1.0 / window
    return left, right


def apply_contextualizer(x, params, kind, window):
    """Contextualize a T x d Tensor of token vectors.

    identity: returns the input. window-mixer: linear map of
    [token; mean of `window` left neighbors; mean of `window` right
    neighbors] with zero padding at the boundaries. self-attention: one
    single-head scaled-dot-product layer with sinusoidal position addends
    and a residual connection.
    """
    if kind not in CONTEXTUALIZER_KINDS:
        raise ValueError(f"unknown contextualizer kind {kind!r}")
    t, d = x.data.shape

    if kind == "identity":
        out = x
    elif kind == "window-mixer":
        mix = params["mix"].tensor
        if mix.data.shape != (3 * d, d):
            raise ValueError(f"window-mixer expects mix of shape {(3 * d, d)}, got {mix.data.shape}")
        left_m, right_m = _window_average_matrices(t, window)
        left = ad.matmul(Tensor(left_m), x)
        right = ad.matmul(Tensor(right_m), x)
        out = ad.matmul(ad.concat_cols([x, left, right]), mix)
    else:
        for name in ("wq", "wk", "wv", "wo"):
            if params[name].tensor.data.shape != (d, d):
                raise ValueError(f"self-attention param {name} must be {(d, d)}")
        pos = ad.add_const(x, sinusoidal_positions(t, d))
        q = ad.matmul(pos, params["wq"].tensor)
        k = ad.matmul(pos, params["wk"].tensor)
        v = ad.matmul(pos, params["wv"].tensor)
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(d))
        attn = ad.softmax_rows_t(scores)
        out = ad.add(x, ad.matmul(ad.matmul(attn, v), params["wo"].tensor))

    return out


def check_gradients(loss_fn, groups, eps=1e-5, coords_per_group=200, rng=None):
    """Compare tape gradients against central finite differences.

    loss_fn builds a fresh forward pass from the current group values and
    returns a scalar Tensor. Up to `coords_per_group` coordinates of each
    group are probed. Returns the worst relative error seen.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rng = rng or np.random.default_rng(0)
    groups = list(groups)
    for g in groups:
        g.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {g.name: (np.zeros_like(g.values) if g.grad is None else g.grad.copy())
                for g in groups}

    worst = 0.0
    for g in groups:
        flat = g.values.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= coords_per_group else rng.choice(n, size=coords_per_group, replace=False)
        a_flat = analytic[g.name].reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            with ad.no_grad():
                up = float(loss_fn().data)
            flat[c] = orig - eps
            with ad.no_grad():
                down = float(loss_fn().data)
            flat[c] = orig
            numeric = (up - down) / (2.0 * eps)
            a = a_flat[c]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
    return worst
