"""Dense tensors with reverse-mode automatic differentiation.

Small tape-based design: every operation returns a new Tensor holding
references to its parents and a closure that routes the output gradient back
to them. `backward(loss)` linearizes the tape in topological order and runs
the closures once each, in reverse. numpy does the array math; the tape only
owns the differentiation rules.

Two float widths are supported (float64 for tests and oracles, float32 for
training). The width is fixed when a tensor is created and operations refuse
to mix widths inside one graph: finite-difference checks are meaningless at
float32, and silent upcasts would hide which width a graph actually ran at.
Gradients keep it too: `_accumulate` rejects a gradient whose dtype differs
from its tensor's.

Every gradient array has exactly one holder. `backward` takes each node's
gradient away from the node before running its rule, and a rule hands each
parent an array (or a disjoint view of one) that no other tensor holds. So
`_accumulate` may keep the first gradient by reference and add later ones in
place; a rule may also overwrite its own incoming gradient.

No rule writes into a tensor's `.data`: rules overwrite only their own
incoming gradient, and the optimizer updates parameters only after
`backward`. So a node may keep its input's `.data` by reference and
rebuild what its backward needs from it, instead of saving a copy.

The transformer runs in fused primitives, one tape node each, with a
closed-form backward and in-place temporaries at the tensor's width. Each
keeps only what its backward reads:

- `linear`: one GEMM on the 2-d view of x with the bias added in place;
  it keeps that view;
- `mlp` (linear, tanh GELU, linear, and an optional residual added in
  place): only x; it walks row blocks through a block-sized scratch, so
  the (rows, d_ff) hidden array never exists, and its backward recomputes
  each block's hidden pre-activation and tanh. GELU's ½ scales the output
  in the forward and w2 in the backward, never the hidden elements, and
  the rule hands its own gradient to the residual;
- `layer_norm`: x and the per-row mean and rstd = (var + eps)^-½; its
  backward rebuilds x̂ = (x - mean) rstd;
- `attention` (head split, scale, additive masks, stable softmax, `@ v`
  and head merge over a shared prefix plus lanes): the probabilities p,
  besides the output and its inputs. The scale 1/√hd multiplies q, not
  the scores, and a fully blocked row is found from the softmax's own row
  max, which assumes |score| ≪ 1e9;
- `log_softmax`: only its output.

tests/ keeps the unfused code they replaced as their oracles. The forwards
of `linear`, `mlp`, `layer_norm` and `log_softmax` are bit-identical to
it; `attention` reads the prefix once instead of once per lane, so its sums
run over other GEMM shapes and agree with the oracle to rounding. `mlp`
sums its weight and bias gradients block by block, so those agree with the
chain's to rounding, while its dx is bit-identical.

Tensors are not subscriptable: the model selects rows with `take_rows`
and `gather_rows`. Basic slicing as a tape node (`index`) lives in
tests/oracles.py, whose per-lane oracles cut lanes out of flat rows.

`shards` runs a per-example graph over two fixed halves of a batch's rows
at once, shard 0 on the calling thread and shard 1 on a worker thread, and
puts both subgraphs behind one tape node. Its thread rule rests on the
invariants above:

- each shard builds its graph over shadow leaves, fresh `Tensor`s over the
  parameters' own arrays (no copy), so no gradient slot is written by two
  threads; the shard node adds shard 0's and then shard 1's leaf gradients
  into the real leaves on the calling thread, after both have stopped;
- every gradient array has one holder, so the two sweeps share none;
- no rule writes `.data`, so both threads may read the parameter arrays.

The split is always two halves, B//2 and B - B//2 rows, so a loss's bits do
not depend on the machine. Both directions run with OpenBLAS held at one
thread, its count restored afterwards; where OpenBLAS's setter is missing or
the process may run on one CPU only, the shards run one after the other on
the calling thread, with the same bits at one BLAS thread.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
import threading
from pathlib import Path

import numpy as np

from .errors import InvalidMaskError, ShapeMismatchError

# Additive-mask sentinel for blocked attention entries. A finite large
# negative constant rather than -inf: exp() underflows it to exactly 0.0
# without ever producing NaN via inf - inf in the stabilizing max-subtraction.
NEG_INF = -1e9

_WIDTHS = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """N-d array plus an optional gradient slot and a backward rule.

    Tensors without requires_grad are plain immutable values and never
    appear on the tape; sharing them across threads is safe.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
        if data.dtype not in _WIDTHS:
            data = data.astype(np.float64)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={'yes' if self.requires_grad else 'no'})"

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if g.dtype != self.data.dtype:
            raise ShapeMismatchError(
                f"{g.dtype.name} gradient for a {self.data.dtype.name} tensor")
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


def param(data) -> Tensor:
    """Leaf tensor that participates in gradients.

    It keeps a float input's width and lifts everything else to float64."""
    return Tensor(data, requires_grad=True)


def constant(data, dtype=None) -> Tensor:
    arr = np.asarray(data) if dtype is None else np.asarray(data, dtype=dtype)
    return Tensor(arr)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _check_same_width(a: Tensor, b: Tensor) -> None:
    if a.data.dtype != b.data.dtype:
        raise ShapeMismatchError(
            f"mixed float widths in one graph: {a.data.dtype.name} vs {b.data.dtype.name}"
        )


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum grad over the axes numpy broadcast when producing it."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _make(data, parents, backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
    return Tensor(data)


# ---------------------------------------------------------------------------
# graph traversal
# ---------------------------------------------------------------------------


def linearize(*roots: Tensor) -> list[Tensor]:
    """Operation records of the graph below the roots, in topological order.

    Iterative DFS so deep graphs cannot hit the recursion limit.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False) for root in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar root; accumulates into leaf .grad slots.

    Every non-leaf node's gradient, the root's included, is dropped as its
    rule runs, together with the tape edge, and the sweep lets go of each
    node once it has run it: an activation the caller does not hold is
    freed once its own rule and its consumers' rules have run."""
    if root.data.size != 1:
        raise ShapeMismatchError(f"backward root must be scalar, got shape {root.shape}")
    root.grad = np.ones_like(root.data)
    _sweep(root)


def _sweep(*roots: Tensor) -> None:
    """The reverse sweep of ``backward`` from roots that hold their gradients."""
    order = linearize(*roots)
    while order:
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            g, node.grad = node.grad, None
            node._backward(g)
            node._parents = ()
            node._backward = None


def zero_grads(params) -> None:
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.grad = None


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def add(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_same_width(a, b)

    def bwd(g):
        ga = None
        if a.requires_grad:
            ga = _unbroadcast(g, a.shape)
            a._accumulate(ga)
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            b._accumulate(gb.copy() if gb is ga else gb)

    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_same_width(a, b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_same_width(a, b)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), bwd)


def reshape(a: Tensor, shape):
    in_shape = a.shape

    def bwd(g):
        a._accumulate(g.reshape(in_shape))

    return _make(a.data.reshape(shape), (a,), bwd)


def transpose(a: Tensor, axes):
    inverse = np.argsort(axes)

    def bwd(g):
        a._accumulate(g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), bwd)


def broadcast_to(a: Tensor, shape):
    def bwd(g):
        a._accumulate(_unbroadcast(g, a.shape))

    return _make(np.broadcast_to(a.data, shape).copy(), (a,), bwd)


def concat(tensors, axis: int):
    tensors = [_as_tensor(t) for t in tensors]
    for t in tensors[1:]:
        _check_same_width(tensors[0], t)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def take_rows(table: Tensor, idx: np.ndarray):
    """Embedding lookup: rows of a 2-d table selected by an integer array."""
    idx = np.asarray(idx)

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        table._accumulate(full)

    return _make(table.data[idx], (table,), bwd)


def gather_rows(a: Tensor, idx: np.ndarray):
    """a[:, idx] along axis 1, exactly 0 where idx is -1.

    Each row of a is read at most once, so the backward writes every
    gradient row once instead of accumulating."""
    idx = np.asarray(idx)
    hit = idx >= 0
    src = idx[hit]
    if src.size and np.bincount(src).max() > 1:
        raise ShapeMismatchError("gather_rows reads a row more than once")
    out = np.zeros(a.shape[:1] + idx.shape + a.shape[2:], dtype=a.dtype)
    out[:, hit] = a.data[:, src]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[:, src] = g[:, hit]
        a._accumulate(full)

    return _make(out, (a,), bwd)


def tsum(a: Tensor, axis=None, keepdims=False):
    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims=False):
    # a Python int, so the division keeps the gradient at the tensor's width
    count = a.data.size if axis is None else math.prod(a.shape[i] for i in np.atleast_1d(axis))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape) / count)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)


def texp(a: Tensor):
    out_data = np.exp(a.data)

    def bwd(g):
        a._accumulate(g * out_data)

    return _make(out_data, (a,), bwd)


def tlog(a: Tensor):
    def bwd(g):
        a._accumulate(g / a.data)

    return _make(np.log(a.data), (a,), bwd)


def tabs(a: Tensor):
    def bwd(g):
        a._accumulate(g * np.sign(a.data))

    return _make(np.abs(a.data), (a,), bwd)


def tpow(a: Tensor, exponent: float):
    def bwd(g):
        a._accumulate(g * exponent * a.data ** (exponent - 1.0))

    return _make(a.data**exponent, (a,), bwd)


def log_softmax(a: Tensor, axis: int = -1):
    """Stable log-softmax: shifted - log(sum(exp(shifted))), shifted = a - max(a)."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bwd(g):
        d = np.exp(out_data)
        d *= g.sum(axis=axis, keepdims=True)
        np.subtract(g, d, out=d)
        a._accumulate(d)

    return _make(out_data, (a,), bwd)


def masked_softmax(logits: Tensor, mask: np.ndarray, axis: int = -1):
    """Softmax over the valid entries of each slice; invalid entries get
    exactly 0 weight. ``mask`` may be any shape that broadcasts to the
    logits', such as one (H, N) grid for (B, H, N) logits; it is checked on
    its own shape. A slice with no valid entry is an error, never a silent
    uniform distribution."""
    mask = np.asarray(mask, dtype=bool)
    lead = logits.ndim - mask.ndim
    if lead < 0 or any(m not in (1, n) for m, n in zip(mask.shape, logits.shape[lead:])):
        raise ShapeMismatchError(f"mask shape {mask.shape} does not broadcast to logits shape {logits.shape}")
    valid_counts = mask.reshape((1,) * lead + mask.shape).sum(axis=axis)
    if not valid_counts.all():
        bad = np.argwhere(valid_counts == 0)[0]
        raise InvalidMaskError(f"all-invalid softmax slice at index {tuple(bad)} along axis {axis}")
    # invalid entries read -inf, whose exp is exactly 0
    e = np.where(mask, logits.data, -np.inf)
    e -= e.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        logits._accumulate(out_data * (g - dot))

    return _make(out_data, (logits,), bwd)




# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None):
    """x w + b over the last axis of x, as one GEMM on the 2-d view of x.

    The bias is added in place into the GEMM output, and its gradient is the
    ones-vector product ones @ g over the rows of that view.
    """
    _check_same_width(x, w)
    if b is not None:
        _check_same_width(x, b)
    if x.ndim < 2 or w.ndim != 2:
        raise ShapeMismatchError(f"linear needs rank >= 2 x and a 2-d weight, got {x.shape} and {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError(f"linear inner dimensions disagree: {x.shape} x {w.shape}")
    if b is not None and b.shape != w.shape[1:]:
        raise ShapeMismatchError(f"bias {b.shape} does not match weight {w.shape}")
    x2 = x.data.reshape(-1, x.shape[-1])
    out_data = x2 @ w.data
    if b is not None:
        out_data += b.data

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        if b is not None and b.requires_grad:
            b._accumulate(np.ones(g2.shape[0], dtype=g.dtype) @ g2)
        if w.requires_grad:
            w._accumulate(x2.T @ g2)
        if x.requires_grad:
            x._accumulate((g2 @ w.data.T).reshape(x.shape))

    parents = (x, w) if b is None else (x, w, b)
    return _make(out_data.reshape(x.shape[:-1] + w.shape[1:]), parents, bwd)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def _gelu_tanh(xs: np.ndarray, ts: np.ndarray) -> None:
    """ts = tanh(c (x + 0.044715 x³)), the tanh of the GELU
    0.5 x (1 + tanh(c (x + 0.044715 x³))), c = sqrt(2/pi), in the same op
    order in the forward and the backward, so both see the same bits."""
    np.multiply(xs, xs, out=ts)
    ts *= xs
    ts *= 0.044715
    ts += xs
    ts *= _GELU_C
    np.tanh(ts, out=ts)


# The MLP walks row blocks of this many hidden elements, 512 rows at
# d_ff = 256, so that a block's four float32 scratch arrays (2 MiB) stay in
# a core's L2 cache between the GEMMs and the elementwise GELU passes. At the
# B=64 default shapes, on a 2-vCPU Xeon with 2 MiB of L2 per core, the
# node's forward and backward took 45.6-46.7 ms with 512-row blocks,
# 51.9-53.1 ms with 1024-row blocks and 49.5-51.4 ms as the unfused chain
# (in-process medians of two runs). Shorter blocks make many short GEMM
# calls, which ran up to 10x slower per FLOP when the host was busy.
_BLOCK = 1 << 17


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        residual: Tensor | None = None):
    """gelu(x w1 + b1) w2 + b2 + residual over the last axis of x, with the
    tanh GELU; the residual, of the output's shape, is optional.

    Walks row blocks of the 2-d view of x through block-sized scratch arrays,
    so the (rows, d_ff) hidden array never exists. GELU's ½ never touches a
    hidden element; a power-of-two scale moves without changing a bit. Keeps
    only x: per block the backward recomputes a = x w1 + b1 and
    t = tanh(c (a + 0.044715 a³)) with the forward's ops, then forms
    dw2 = ½ (a (1 + t))ᵀ g, da = (g (½ w2)ᵀ) (gelu'(a) / ½), db1,
    dw1 = xᵀ da and dx = da w1ᵀ; the weight and bias gradients sum over the
    blocks. The residual gets the rule's own g once nothing reads it.
    """
    parents = (x, w1, b1, w2, b2) + (() if residual is None else (residual,))
    for p in parents[1:]:
        _check_same_width(x, p)
    if x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2:
        raise ShapeMismatchError(f"mlp needs rank >= 2 x and 2-d weights, got {x.shape}, "
                                 f"{w1.shape} and {w2.shape}")
    if x.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ShapeMismatchError(f"mlp inner dimensions disagree: {x.shape} x {w1.shape} x {w2.shape}")
    if b1.shape != w1.shape[1:] or b2.shape != w2.shape[1:]:
        raise ShapeMismatchError(f"biases {b1.shape} and {b2.shape} do not match weights "
                                 f"{w1.shape} and {w2.shape}")
    out_shape = x.shape[:-1] + w2.shape[1:]
    if residual is not None and residual.shape != out_shape:
        raise ShapeMismatchError(f"residual {residual.shape} does not match the output {out_shape}")
    x2 = x.data.reshape(-1, x.shape[-1])
    rows, hidden = x2.shape[0], w1.shape[1]
    step = max(1, _BLOCK // hidden)
    blocks = [slice(i, min(i + step, rows)) for i in range(0, rows, step)]

    def scratch(count):
        return [np.empty((min(step, rows), hidden), dtype=x2.dtype) for _ in range(count)]

    def hidden_block(s, a, t):
        """a = x w1 + b1 and t = tanh(c (a + 0.044715 a³)) of the rows s,
        written to the leading rows of the scratch arrays a and t; returns
        those views."""
        a, t = a[:s.stop - s.start], t[:s.stop - s.start]
        np.matmul(x2[s], w1.data, out=a)
        a += b1.data
        _gelu_tanh(a, t)
        return a, t

    out_data = np.empty((rows, w2.shape[1]), dtype=x2.dtype)
    a, t = scratch(2)
    for s in blocks:
        ab, tb = hidden_block(s, a, t)
        tb += 1.0
        tb *= ab
        np.matmul(tb, w2.data, out=out_data[s])
    out_data *= 0.5  # GELU's ½, on d_out columns instead of d_ff
    out_data += b2.data
    if residual is not None:
        out_data += residual.data.reshape(out_data.shape)

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        if b2.requires_grad:
            b2._accumulate(np.ones(rows, dtype=g.dtype) @ g2)
        grads = {p: np.zeros_like(p.data) for p in (w1, b1, w2) if p.requires_grad}
        dx = np.empty_like(x2) if x.requires_grad else None
        a, t, h, d = scratch(4)
        half_w2 = 0.5 * w2.data
        for s in blocks:
            ab, tb = hidden_block(s, a, t)
            hb, db = h[:len(ab)], d[:len(ab)]
            if w2 in grads:
                np.add(tb, 1.0, out=hb)
                hb *= ab
                grads[w2] += hb.T @ g2[s]
            # db = (1 + t) + a (1 - t²) c (1 + 3 * 0.044715 a²), gelu'(a) / ½,
            # while a and t are still in cache; then a's scratch takes da
            np.multiply(ab, ab, out=db)
            db *= 0.134145
            db += 1.0
            db *= _GELU_C
            db *= ab
            np.multiply(tb, tb, out=ab)
            np.subtract(1.0, ab, out=ab)
            db *= ab
            db += tb
            db += 1.0
            da = np.matmul(g2[s], half_w2.T, out=ab)
            da *= db
            if b1 in grads:
                grads[b1] += np.ones(len(da), dtype=g.dtype) @ da
            if w1 in grads:
                grads[w1] += x2[s].T @ da
            if dx is not None:
                np.matmul(da, w1.data.T, out=dx[s])
        if w2 in grads:
            grads[w2] *= 0.5  # exact, as is halving each block's product
        for p, grad in grads.items():
            p._accumulate(grad)
        if dx is not None:
            x._accumulate(dx.reshape(x.shape))
        if residual is not None and residual.requires_grad:
            residual._accumulate(g)

    return _make(out_data.reshape(out_shape), parents, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """x̂ gamma + beta over the last axis, x̂ = (x - mean) rstd, rstd = (var + eps)^-½.

    dx = rstd (dx̂ - mean(dx̂) - x̂ mean(dx̂ x̂)) with dx̂ = g gamma.

    Keeps x.data and the per-row mean and rstd; the backward rebuilds x̂
    with the forward's own ops, so it reads the forward's bits.
    """
    _check_same_width(x, gamma)
    _check_same_width(x, beta)
    if np.broadcast(x.data, gamma.data, beta.data).shape != x.shape:
        raise ShapeMismatchError(f"gamma {gamma.shape} and beta {beta.shape} widen x {x.shape}")
    n = x.shape[-1]
    # np.mean's own sum and in-place division, without its Python wrapper
    mean = np.add.reduce(x.data, axis=-1, keepdims=True)
    mean /= n
    out_data = x.data - mean
    var = np.add.reduce(np.square(out_data), axis=-1, keepdims=True)
    var /= n
    var += eps
    rstd = var ** -0.5
    out_data *= rstd
    out_data *= gamma.data
    out_data += beta.data

    def bwd(g):
        # g is this rule's own array, so it becomes dx in place
        xhat = x.data - mean
        xhat *= rstd
        if beta.requires_grad:
            gb = _unbroadcast(g, beta.shape)
            beta._accumulate(gb.copy() if gb is g else gb)
        gx = g * xhat
        if gamma.requires_grad:
            gg = _unbroadcast(gx, gamma.shape)
            gamma._accumulate(gg.copy() if gg is gx else gg)
        if not x.requires_grad:
            return
        mean_dxhat_xhat = np.einsum("...i,...i->...", gx, gamma.data)[..., None] / n
        g *= gamma.data
        corr = np.multiply(xhat, mean_dxhat_xhat, out=gx)
        corr += np.einsum("...i->...", g)[..., None] / n
        g -= corr
        g *= rstd
        x._accumulate(g)

    return _make(out_data, (x, gamma, beta), bwd)


def _softmax_rows(p: np.ndarray) -> None:
    """Stable softmax over the last axis of masked scores, in place.

    A finite row max at or below NEG_INF / 2 means every key is blocked, as
    long as |score| ≪ 1e9. A -inf or NaN max, from overflowed scores, is
    left to the loss's finite check."""
    m = p.max(axis=-1, keepdims=True)
    if not m.min() > NEG_INF / 2 and ((m <= NEG_INF / 2) & np.isfinite(m)).any():
        raise InvalidMaskError("attention row with every key blocked")
    p -= m
    np.exp(p, out=p)
    p /= np.einsum("...i->...", p)[..., None]


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              prefix_mask: np.ndarray, lane_mask: np.ndarray):
    """Multi-head softmax((q / sqrt(hd)) kᵀ + mask) v over a [prefix | lanes] sequence.

    q, k, v:     (B, R, d) rows: P shared prefix rows, then `lanes` lanes of
                 W rows each, R = P + lanes W; heads are split and merged inside
    prefix_mask: (P, P) additive mask of the prefix rows over the prefix
    lane_mask:   (lanes, W, P + W) additive mask of each lane's rows over the
                 prefix and their own lane
    Mask entries are 0 (attend) or NEG_INF (blocked); a row whose entries are
    all blocked has no distribution to normalize and is rejected.

    Prefix rows never see a lane, so every lane shares one prefix. The lane
    rows' scores and values against the prefix are one GEMM over all lane
    rows, and the prefix K/V gradient sums the prefix block and that block.
    The scale multiplies q, which has fewer entries than the scores, and
    the backward's dq and dk; that is exact when 1/sqrt(hd) is a power of
    two. The unscaled score gradient is ds = p (g vᵀ - rowsum(g vᵀ p)),
    with rowsum(g vᵀ p) taken as the equal and cheaper rowsum(g out).
    """
    _check_same_width(q, k)
    _check_same_width(q, v)
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeMismatchError(f"attention needs equal (B, R, d) q, k, v: {q.shape}, {k.shape}, {v.shape}")
    b, r, d = q.shape
    n_pre = prefix_mask.shape[-1]
    lanes, width = lane_mask.shape[:2]
    if (d % heads or prefix_mask.shape != (n_pre, n_pre)
            or lane_mask.shape != (lanes, width, n_pre + width) or r != n_pre + lanes * width):
        raise ShapeMismatchError(
            f"{heads} heads, prefix mask {prefix_mask.shape} and lane mask {lane_mask.shape} "
            f"do not lay out {q.shape}")
    dtype = q.data.dtype
    prefix_mask = np.asarray(prefix_mask, dtype=dtype)
    lane_mask = np.asarray(lane_mask, dtype=dtype)
    hd = d // heads
    scale = dtype.type(1.0 / np.sqrt(hd))

    def split(a):
        """Views of (B, R, d) rows as heads, which GEMMs also write through:
        prefix (B, h, P, hd), lane rows (B, h, lanes W, hd) and the same
        lane rows (B, h, lanes, W, hd)."""
        rows = a.reshape(b, r, heads, hd).transpose(0, 2, 1, 3)
        lane_rows = rows[:, :, n_pre:]
        return rows[:, :, :n_pre], lane_rows, lane_rows.reshape(b, heads, lanes, width, hd)

    def blocks(s):
        """Views of (B, h, lanes, W, P + W) lane scores: over the prefix as
        (B, h, lanes W, P), and over their own lane."""
        return s.reshape(b, heads, lanes * width, -1)[..., :n_pre], s[..., n_pre:]

    def lane_scores(x, x5, y, y5):
        """Products of lane rows x with the prefix rows y and the lane rows y5."""
        s = np.empty((b, heads, lanes, width, n_pre + width), dtype)
        on_prefix, on_lane = blocks(s)
        np.matmul(x, y.swapaxes(-1, -2), out=on_prefix)
        np.matmul(x5, y5.swapaxes(-1, -2), out=on_lane)
        return s

    qp, ql, ql5 = split(q.data)
    kp, _, kl5 = split(k.data)
    vp, _, vl5 = split(v.data)
    sqp, sql, sql5 = split(q.data * scale)
    pp = sqp @ kp.swapaxes(-1, -2)
    pl = lane_scores(sql, sql5, kp, kl5)
    del sqp, sql, sql5  # free the scaled copy of q before the softmax's temporaries
    for p, mask in ((pp, prefix_mask), (pl, lane_mask)):
        p += mask
        _softmax_rows(p)
    pl_pre, pl_own = blocks(pl)
    out_data = np.empty_like(q.data)
    op, ol, _ = split(out_data)
    np.matmul(pp, vp, out=op)
    np.matmul(pl_pre, vp, out=ol)
    ol += (pl_own @ vl5).reshape(ol.shape)

    def bwd(g):
        gp, gl, gl5 = split(g)
        if v.requires_grad:
            dv = np.empty_like(v.data)
            dvp, _, dvl5 = split(dv)
            np.matmul(pp.swapaxes(-1, -2), gp, out=dvp)
            dvp += pl_pre.swapaxes(-1, -2) @ gl
            np.matmul(pl_own.swapaxes(-1, -2), gl5, out=dvl5)
            v._accumulate(dv)
        if not (q.requires_grad or k.requires_grad):
            return
        row_dot = np.einsum("brhd,brhd->bhr", g.reshape(b, r, heads, hd),
                            out_data.reshape(b, r, heads, hd))
        dpp = gp @ vp.swapaxes(-1, -2)
        dpp -= row_dot[:, :, :n_pre, None]
        dpl = lane_scores(gl, gl5, vp, vl5)
        dpl -= row_dot[:, :, n_pre:].reshape(b, heads, lanes, width, 1)
        dpp *= pp
        dpl *= pl
        dpl_pre, dpl_own = blocks(dpl)
        if q.requires_grad:
            dq = np.empty_like(q.data)
            dqp, dql, _ = split(dq)
            np.matmul(dpp, kp, out=dqp)
            np.matmul(dpl_pre, kp, out=dql)
            dql += (dpl_own @ kl5).reshape(dql.shape)
            dq *= scale
            q._accumulate(dq)
        if k.requires_grad:
            dk = np.empty_like(k.data)
            dkp, _, dkl5 = split(dk)
            np.matmul(dpp.swapaxes(-1, -2), qp, out=dkp)
            dkp += dpl_pre.swapaxes(-1, -2) @ ql
            np.matmul(dpl_own.swapaxes(-1, -2), ql5, out=dkl5)
            dk *= scale
            k._accumulate(dk)

    return _make(out_data, (q, k, v), bwd)


# ---------------------------------------------------------------------------
# shards
# ---------------------------------------------------------------------------

# OpenBLAS's thread-count setter and getter, by the names the builds in
# numpy's wheels export: scipy-openblas (numpy 2), then openblas64_ (numpy 1).
_OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.cache
def _openblas_threads():
    """(set, get) of the thread count of the OpenBLAS numpy loaded, or None.

    numpy has no API for it, so the functions come through ctypes from the
    library numpy's wheels carry in numpy.libs, which numpy has loaded
    (RTLD_NOLOAD never loads another). Looked up once, on first use."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    wheel_libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(wheel_libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path), mode=noload)
        except OSError:
            continue
        for name in _OPENBLAS_THREADS:
            setter = getattr(lib, name.format("set"), None)
            getter = getattr(lib, name.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def _shard_threads():
    """OpenBLAS's (set, get) when two shards can run at once, else None:
    with one CPU, or no setter, shards run one after the other."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return _openblas_threads() if (cpus or 1) >= 2 else None


# The BLAS thread count is the process's: shard pairs of concurrent callers
# take turns, so that each restores the count it found.
_SHARD_LOCK = threading.Lock()


def _wait_for_exit(thread: threading.Thread) -> None:
    """Wait until a joined thread's OS thread is gone, not only its Python
    state, which is all that ``join`` waits for before Python 3.13. glibc
    hands an exiting thread's malloc arena to the next new thread only once
    it has gone; a worker started earlier opens an arena of its own, which
    keeps a shard's freed activations resident beside the old one's. In a
    train-flow probe on 2 vCPUs that took the peak RSS from 200 to 261 MB,
    in 1 of 16 processes. Where the OS lists no threads, it returns."""
    task = f"/proc/self/task/{thread.native_id}"
    while os.path.exists(task):
        os.sched_yield()


def _run_shards(tasks):
    """Each task's result, in order: the second on a worker thread while the
    first runs on this one, with OpenBLAS held at one thread, or both here
    in turn (see ``_shard_threads``). The worker runs in a copy of this
    thread's context, so numpy's error state holds in both. A task's
    exception is raised here once both have stopped, the first task's
    before the second's. A task must not run shards itself."""
    blas = _shard_threads() if len(tasks) > 1 else None
    if blas is None:
        return [task() for task in tasks]
    set_threads, get_threads = blas
    context = contextvars.copy_context()
    second: dict[str, object] = {}

    def work():
        try:
            second["out"] = context.run(tasks[1])
        except BaseException as exc:  # re-raised on the calling thread
            second["error"] = exc

    with _SHARD_LOCK:
        before = get_threads()
        set_threads(1)
        try:
            worker = threading.Thread(target=work, name="horizonmix-shard")
            worker.start()
            try:
                first = tasks[0]()
            finally:
                worker.join()
                _wait_for_exit(worker)
        finally:
            set_threads(before)
    if "error" in second:
        raise second["error"]
    return [first, second["out"]]


def shards(fn, params: dict[str, Tensor], batch: int) -> tuple[Tensor, ...]:
    """fn over two fixed halves of a batch's rows at once, as one tape node.

    fn(leaves, rows) builds the graph of the examples ``rows`` (a slice)
    over ``leaves``, shadow leaves of ``params`` that share their arrays,
    and returns a tuple of per-example tensors of one width, each with
    rows.stop - rows.start entries on its leading axis. The halves are rows
    [0, B//2) and [B//2, B); B = 1 runs one shard. See the module docstring
    for the thread rule.

    returns fn's outputs with the shards' rows concatenated in order. They
    are views of one node that holds them as a (B, features) table and
    whose parents are the parameters that require grad. Its rule splits the
    gradient by shard and output, sweeps both shard graphs at once, and adds
    shard 0's and then shard 1's leaf gradients into the parameters.
    """
    cuts = [0, batch // 2, batch] if batch > 1 else [0, batch]
    rows = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    leaves = [{k: Tensor(p.data, requires_grad=p.requires_grad) for k, p in params.items()}
              for _ in rows]
    outs = [tuple(out) for out in
            _run_shards([functools.partial(fn, lv, r) for lv, r in zip(leaves, rows)])]
    first = outs[0]
    for out, r in zip(outs, rows):
        if len(out) != len(first) or any(
                t.shape != (r.stop - r.start,) + f.shape[1:] for t, f in zip(out, first)):
            raise ShapeMismatchError(
                f"shard of rows {r.start}:{r.stop} returned shapes {[t.shape for t in out]}")
        for t in out:
            _check_same_width(first[0], t)
    widths = [math.prod(t.shape[1:]) for t in first]
    offsets = np.cumsum([0] + widths).tolist()
    table = np.concatenate([np.concatenate([t.data.reshape(len(t.data), -1) for t in out],
                                           axis=1) for out in outs])

    def bwd(g):
        def sweep(out, r):
            roots = [t for t in out if t.requires_grad]
            for t, lo, hi in zip(out, offsets, offsets[1:]):
                if t.requires_grad:
                    t._accumulate(np.array(g[r, lo:hi]).reshape(t.shape))
            return lambda: _sweep(*roots)

        _run_shards([sweep(out, r) for out, r in zip(outs, rows)])
        for lv in leaves:
            for name, p in params.items():
                if lv[name].grad is not None:
                    p._accumulate(lv[name].grad)
                    lv[name].grad = None

    node = _make(table, tuple(p for p in params.values() if p.requires_grad), bwd)

    def output(lo, hi, shape):
        def out_bwd(g):
            full = np.zeros_like(table)
            full[:, lo:hi] = g.reshape(batch, -1)
            node._accumulate(full)

        return _make(table[:, lo:hi].reshape((batch,) + shape), (node,), out_bwd)

    return tuple(output(lo, hi, t.shape[1:])
                 for t, lo, hi in zip(first, offsets, offsets[1:]))
