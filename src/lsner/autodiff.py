"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Every Tensor holds float64 data; checkpoints and gradient checks assume
it. The tape is built eagerly; `no_grad()` disables recording for
inference passes.

A gradient is a dense array of the Tensor's shape, made by copying the
first contribution (or adopting one an op built fresh) and added into in
place after that. A table read through `take_rows` also gets a dense
gradient, created once per backward pass; each call sums the gradient of
a repeated row first and then adds one sum per touched row, so the work
per call follows the rows read, not the table size.

`Tensor.grad_rows` records where such a gradient can be non-zero. When
`take_rows` creates a gradient it starts a list, and every `take_rows`
backward appends the index array of the rows it added into. Any other
contribution (`_accum`, or the seed of `backward`) sets the record to
None, meaning "not only from gathers". The invariant: while `grad_rows`
is a list, every row of `grad` outside its arrays is exactly zero.
`zero_grad` clears both. The optimizer reads the record to update only
the rows a gather has touched.
"""

import contextlib

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled():
    return _GRAD_ENABLED


class Tensor:
    """A node of the computation tape wrapping a dense numpy array."""

    __slots__ = ("data", "grad", "grad_rows", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.grad_rows = None
        if _GRAD_ENABLED:
            self._parents = parents
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None
        self.grad_rows = None

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        self.grad_rows = None
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _accum(t, g, fresh=False):
    if t.grad is None:
        # always C order: a copy of a transposed view kept in its own order
        # would later reach BLAS as a differently laid-out operand. A `fresh`
        # g (new, C order, held by no one else) is adopted uncopied.
        t.grad = g if fresh else np.array(g, dtype=float, order="C")
    else:
        t.grad += g
    t.grad_rows = None


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return Tensor(a.data + b.data, (a, b), bwd)


def mul(a, b):
    """Elementwise product of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return Tensor(a.data * b.data, (a, b), bwd)


def scale(a, c):
    """Multiply by a python scalar constant."""
    c = float(c)

    def bwd(g):
        _accum(a, g * c)

    return Tensor(a.data * c, (a,), bwd)


def add_const(a, c):
    """Add a constant array of the same shape (no gradient into c)."""
    c = np.asarray(c, dtype=float)
    if a.data.shape != c.shape:
        raise ValueError(f"add_const shape mismatch: {a.data.shape} vs {c.shape}")

    def bwd(g):
        _accum(a, g)

    return Tensor(a.data + c, (a,), bwd)


def matmul(a, b):
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return Tensor(a.data @ b.data, (a, b), bwd)


def transpose(a):
    def bwd(g):
        _accum(a, g.T)

    return Tensor(a.data.T, (a,), bwd)


def take_rows(a, idx):
    """Select rows of a 2-D tensor by an integer index array."""
    idx = np.asarray(idx, dtype=np.intp)

    def bwd(g):
        # one slot per distinct row, in order of first appearance; a
        # repeated row's gradients are summed in index order first
        slots = {}
        inv = [slots.setdefault(r, len(slots)) for r in idx.tolist()]
        if len(slots) == len(inv):
            rows, sums = idx, g
        else:
            rows = np.fromiter(slots, dtype=np.intp, count=len(slots))
            sums = np.zeros((len(slots),) + g.shape[1:])
            np.add.at(sums, inv, g)
        if a.grad is None:
            a.grad = np.zeros(a.data.shape)
            a.grad_rows = []
        a.grad[rows] += sums
        if a.grad_rows is not None:
            a.grad_rows.append(rows)

    return Tensor(a.data[idx], (a,), bwd)


def stack_rows(parts):
    """Stack 1-D tensors of equal length into a 2-D tensor, one per row."""
    parts = list(parts)
    if not parts:
        raise ValueError("stack_rows needs at least one row")

    def bwd(g):
        for i, p in enumerate(parts):
            _accum(p, g[i])

    return Tensor(np.stack([p.data for p in parts]), tuple(parts), bwd)


def concat_cols(parts):
    """Concatenate 2-D tensors along columns."""
    parts = list(parts)
    widths = [p.data.shape[1] for p in parts]

    def bwd(g):
        off = 0
        for p, w in zip(parts, widths):
            _accum(p, g[:, off:off + w])
            off += w

    return Tensor(np.concatenate([p.data for p in parts], axis=1),
                  tuple(parts), bwd)


def mean_rows(a):
    """Columnwise mean of a 2-D tensor; returns a 1-D tensor."""
    n = a.data.shape[0]

    def bwd(g):
        _accum(a, np.broadcast_to(g / n, a.data.shape))

    return Tensor(a.data.mean(axis=0), (a,), bwd)


def max_rows(a):
    """Columnwise max of a 2-D tensor; ties go to the lowest row index."""
    which = np.argmax(a.data, axis=0)

    def bwd(g):
        buf = np.zeros(a.data.shape)  # C order even when a is a transposed view
        buf[which, np.arange(a.data.shape[1])] = g
        _accum(a, buf, fresh=True)

    return Tensor(a.data[which, np.arange(a.data.shape[1])], (a,), bwd)


def first_row(a):
    def bwd(g):
        buf = np.zeros(a.data.shape)  # C order even when a is a transposed view
        buf[0] = g
        _accum(a, buf, fresh=True)

    return Tensor(a.data[0], (a,), bwd)


def sum_all(a):
    def bwd(g):
        _accum(a, np.broadcast_to(float(g), a.data.shape))

    return Tensor(a.data.sum(), (a,), bwd)


def softmax_rows_t(a):
    """Row-stable softmax over the last axis of a 2-D tensor."""
    m = a.data
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, y * (g - dot))

    return Tensor(y, (a,), bwd)


def cross_entropy_rows(logits, gold):
    """Mean negative log softmax probability of gold indices, one per row."""
    gold = np.asarray(gold, dtype=np.intp)
    m = logits.data
    t = m.shape[0]
    shifted = m - m.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    logp = shifted[np.arange(t), gold] - logz
    loss = -logp.mean()

    def bwd(g):
        p = np.exp(shifted - logz[:, None])
        p[np.arange(t), gold] -= 1.0
        _accum(logits, p * (float(g) / t))

    return Tensor(loss, (logits,), bwd)


def average(parts):
    """Average a list of same-shape tensors."""
    parts = list(parts)
    acc = parts[0]
    for p in parts[1:]:
        acc = add(acc, p)
    return scale(acc, 1.0 / len(parts))
