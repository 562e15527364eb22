"""Dense float64 tensors with reverse-mode gradients.

Covers exactly the operations the expression model needs: matrix
multiplication, multi-head attention (optionally key-masked), layer
normalization, elementwise arithmetic, row concatenation, row pooling
and row selection. Gradients are accumulated by walking the
recorded operation graph in reverse topological order; all reductions
run in numpy's deterministic order so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DegenerateAttentionError, NumericsError, ShapeError

__all__ = [
    "Tensor",
    "as_tensor",
    "compose",
    "matmul",
    "attention",
    "add",
    "sub",
    "mul",
    "layer_norm",
    "concat_rows",
    "mean_rows",
    "mean_all",
    "row",
    "grad_check",
]


class Tensor:
    """A row-major float64 array with an optional gradient buffer.

    Tensors are treated as immutable after construction; operations
    return new tensors. A tensor created with ``requires_grad=True`` (or
    derived from one) participates in ``backward()``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        if type(data) is np.ndarray and data.dtype == np.float64 and data.flags.c_contiguous:
            self.data = data
        else:
            self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self):
        """A view of the same values with no graph history."""
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable ``grad`` buffer."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar output, got shape {self.shape}")
        order = _topo_order(self)
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(value):
    if type(value) is Tensor or isinstance(value, Tensor):
        return value
    if isinstance(value, numbers.Number):
        return Tensor(np.float64(value))
    return Tensor(value)


def compose(data, parents, backward):
    """Build an op output wired into the graph.

    ``backward`` is called with the output's gradient and must accumulate
    into the parents itself. Used by operations with hand-derived
    backward passes (e.g. the grid convolution of the positional encoder).
    """
    out = Tensor(data)
    parents = tuple(p for p in parents if isinstance(p, Tensor))
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _topo_order(root):
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent in parents:
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _sum_to_shape(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def matmul(a, b):
    """Matrix product of two 2-D tensors; dA = dC @ B^T, dB = A^T @ dC."""
    if type(a) is not Tensor:
        a = as_tensor(a)
    if type(b) is not Tensor:
        b = as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._parents = (a, b)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)

        out._backward = backward
    return out


def _accum_shaped(tensor, g):
    if g.shape != tensor.data.shape:
        g = _sum_to_shape(g, tensor.data.shape)
    tensor._accumulate(g)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError as exc:
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}") from exc
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._parents = (a, b)

        def backward(g):
            if a.requires_grad:
                _accum_shaped(a, g)
            if b.requires_grad:
                _accum_shaped(b, g)

        out._backward = backward
    return out


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = Tensor(a.data - b.data)
    except ValueError as exc:
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}") from exc
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._parents = (a, b)

        def backward(g):
            if a.requires_grad:
                _accum_shaped(a, g)
            if b.requires_grad:
                _accum_shaped(b, -g)

        out._backward = backward
    return out


def mul(a, b):
    if isinstance(b, numbers.Number) and isinstance(a, Tensor):
        scale = float(b)
        out = Tensor(a.data * scale)
        if a.requires_grad:
            out.requires_grad = True
            out._parents = (a,)
            out._backward = lambda g: a._accumulate(g * scale)
        return out
    if isinstance(a, numbers.Number):
        return mul(as_tensor(b), a)
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError as exc:
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}") from exc
    if a.requires_grad or b.requires_grad:
        out.requires_grad = True
        out._parents = (a, b)

        def backward(g):
            if a.requires_grad:
                _accum_shaped(a, g * b.data)
            if b.requires_grad:
                _accum_shaped(b, g * a.data)

        out._backward = backward
    return out


def attention(q, k, v, n_heads, key_mask=None, attn_sink=None):
    """Scaled dot-product attention for every head at once.

    ``q`` is (T, d); ``k`` and ``v`` are (S, d). Head h reads columns
    h*d_head:(h+1)*d_head of all three and writes the same columns of the
    (T, d) output: softmax(q_h k_h^T / sqrt(d_head)) v_h, with the row
    maximum subtracted before exponentiation. ``key_mask`` (length S)
    marks the keys that may receive weight; masked keys get exactly zero
    weight, and a mask with no key left raises. The model passes no mask,
    since every branch attends over all of its tokens; the mask stays as
    the primitive that lets context windows be padded to a fixed D x D
    member grid without the padded keys receiving weight. ``attn_sink``,
    when given, is extended by one (T, S) weight matrix per head, in head
    order. Backward reuses the weights and the head-split q, k and v.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if (q.data.ndim != 2 or k.data.ndim != 2 or k.shape != v.shape
            or k.shape[1] != q.shape[1] or q.shape[1] % n_heads):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} "
                         f"do not split into {n_heads} heads")
    (t, d), s = q.shape, k.shape[0]
    d_head = d // n_heads
    scale = 1.0 / math.sqrt(d_head)

    def split(x):
        return x.reshape(x.shape[0], n_heads, d_head).transpose(1, 0, 2)

    def merge(x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    qh, kh, vh = split(q.data) * scale, split(k.data), split(v.data)
    weights = qh @ kh.transpose(0, 2, 1)
    if key_mask is not None:
        mask = np.asarray(key_mask, dtype=bool).reshape(-1)
        if mask.shape[0] != s:
            raise ShapeError(f"attention: mask length {mask.shape[0]} != keys {s}")
        if not mask.any():
            raise DegenerateAttentionError("attention: every key is masked")
        weights[:, :, ~mask] = -np.inf
    weights -= weights.max(axis=2, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=2, keepdims=True)
    if attn_sink is not None:
        attn_sink.extend(weights.copy())

    def backward(g):
        gh = split(g)
        if v.requires_grad:
            v._accumulate(merge(weights.transpose(0, 2, 1) @ gh))
        d_weights = gh @ vh.transpose(0, 2, 1)
        d_logits = weights * (d_weights - (d_weights * weights).sum(axis=2, keepdims=True))
        if q.requires_grad:
            q._accumulate(merge(d_logits @ kh) * scale)
        if k.requires_grad:
            k._accumulate(merge(d_logits.transpose(0, 2, 1) @ qh))

    return compose(merge(weights @ vh), (q, k, v), backward)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Per-row normalization: (x - mean) / sqrt(var + eps) * gamma + beta."""
    if eps <= 0:
        raise ValueError(f"layer_norm: eps must be positive, got {eps}")
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm: need a 2-D tensor, got shape {x.shape}")
    n = x.shape[1]
    if gamma.data.shape != (n,) or beta.data.shape != (n,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({n},), got {gamma.shape} and {beta.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gamma.data + beta.data)
    if x.requires_grad or gamma.requires_grad or beta.requires_grad:
        out.requires_grad = True
        out._parents = (x, gamma, beta)

        def backward(g):
            if gamma.requires_grad:
                gamma._accumulate((g * xhat).sum(axis=0))
            if beta.requires_grad:
                beta._accumulate(g.sum(axis=0))
            if x.requires_grad:
                gx = g * gamma.data
                mean_gx = gx.mean(axis=1, keepdims=True)
                mean_gx_xhat = (gx * xhat).mean(axis=1, keepdims=True)
                x._accumulate(inv * (gx - mean_gx - xhat * mean_gx_xhat))

        out._backward = backward
    return out


def concat_rows(parts):
    """Concatenate 2-D tensors along rows (token-sequence assembly)."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: need at least one tensor")
    for p in parts:
        if p.data.ndim != 2:
            raise ShapeError(f"concat: need 2-D tensors, got shape {p.shape}")
    if any(p.shape[1] != parts[0].shape[1] for p in parts):
        raise ShapeError(f"concat: mismatched extents {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts]))
    if any(p.requires_grad for p in parts):
        out.requires_grad = True
        out._parents = tuple(parts)

        def backward(g):
            offset = 0
            for p in parts:
                rows = p.shape[0]
                if p.requires_grad:
                    p._accumulate(g[offset:offset + rows])
                offset += rows

        out._backward = backward
    return out


def mean_rows(x):
    """Mean over rows, returned as a 1 x n tensor."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"mean_rows: need a 2-D tensor, got shape {x.shape}")
    count = x.shape[0]
    out = Tensor(x.data.sum(axis=0, keepdims=True) / count)
    if x.requires_grad:
        out.requires_grad = True
        out._parents = (x,)
        out._backward = lambda g: x._accumulate(np.broadcast_to(g / count, x.data.shape))
    return out


def mean_all(x):
    """Mean over every entry, returned as a scalar (0-d) tensor."""
    x = as_tensor(x)
    out = Tensor(x.data.mean())
    if x.requires_grad:
        out.requires_grad = True
        out._parents = (x,)
        out._backward = lambda g: x._accumulate(np.full_like(x.data, g / x.data.size))
    return out


def row(x, index):
    """Select one row as a 1 x n tensor."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"row: need a 2-D tensor, got shape {x.shape}")
    if not 0 <= index < x.shape[0]:
        raise ValueError(f"row: index {index} out of range for {x.shape[0]} rows")
    out = Tensor(x.data[index:index + 1, :])
    if x.requires_grad:
        out.requires_grad = True
        out._parents = (x,)

        def backward(g):
            dx = np.zeros_like(x.data)
            dx[index] = g[0]
            x._accumulate(dx)

        out._backward = backward
    return out


def grad_check(f, x, h=1e-5):
    """Compare analytic gradients of a scalar map against central differences.

    ``f`` maps the tensor ``x`` (which must require gradients) to a scalar
    tensor; ``x.data`` is perturbed in place coordinate by coordinate and
    restored. Returns max over coordinates of
    |analytic - numeric| / max(1, |analytic|).
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"grad_check: h must lie in [1e-7, 1e-3], got {h}")
    if not isinstance(x, Tensor) or not x.requires_grad:
        raise ValueError("grad_check: x must be a Tensor with requires_grad=True")

    def evaluate():
        out = f(x)
        if not isinstance(out, Tensor) or out.data.size != 1:
            raise ShapeError("grad_check: f must return a scalar tensor")
        if not np.isfinite(out.data).all():
            raise NumericsError("grad_check: f(x) is not finite")
        return out

    out = evaluate()
    x.zero_grad()
    out.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    numeric = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = evaluate().item()
        flat[i] = orig - h
        f_minus = evaluate().item()
        flat[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * h)

    a = analytic.reshape(-1)
    rel = np.abs(a - numeric) / np.maximum(1.0, np.abs(a))
    return float(rel.max())
