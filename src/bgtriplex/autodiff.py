"""Dense float64 tensors with reverse-mode gradients.

Covers exactly the operations the expression model needs: matrix
multiplication, multi-head attention over blocks of rows, layer
normalization, elementwise arithmetic, row concatenation, row pooling
and row gathering. Every op computes its value, defines its backward
closure and returns ``compose(value, parents, backward)``, the one node
constructor. Gradients are accumulated by walking the recorded operation
graph in reverse topological order; all reductions run in numpy's
deterministic order so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import NumericsError, ShapeError

__all__ = [
    "Tensor",
    "as_tensor",
    "compose",
    "matmul",
    "attention",
    "add",
    "mul",
    "layer_norm",
    "concat_rows",
    "mean_rows",
    "mean_all",
    "take_rows",
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
            self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

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
            self.grad = g.copy()  # not g itself: ``add`` hands one g to both operands
        else:
            self.grad += g

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        The walk consumes the graph: once an op node has passed its
        gradient on, it drops that gradient, its saved values and its links
        to its inputs, so memory falls as the walk proceeds.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar output, got shape {self.shape}")
        order = _topo_order(self)
        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, None, ()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(value):
    if isinstance(value, Tensor):
        return value
    if isinstance(value, numbers.Number):
        return Tensor(np.float64(value))
    return Tensor(value)


def compose(data, parents, backward):
    """The one node constructor: an op's output ``data``, wired to its
    input tensors ``parents``.

    If any parent requires a gradient, the output does too, and
    ``backward`` is called with its gradient and must accumulate into the
    parents that require one. Otherwise the output is a leaf and
    ``backward`` is dropped.
    """
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            break
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
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return compose(a.data @ b.data, (a, b), backward)


def _broadcast_op(a, b, value, grad_a, grad_b):
    """``value(a, b)`` under numpy broadcasting. Backward passes
    ``grad_a(g)`` and ``grad_b(g)``, each summed back to its operand's shape."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = value(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(g):
        for operand, grad in ((a, grad_a), (b, grad_b)):
            if operand.requires_grad:
                g_op = grad(g)
                if g_op.shape != operand.data.shape:
                    g_op = _sum_to_shape(g_op, operand.data.shape)
                operand._accumulate(g_op)

    return compose(data, (a, b), backward)


def add(a, b):
    return _broadcast_op(a, b, np.add, lambda g: g, lambda g: g)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _broadcast_op(a, b, np.multiply, lambda g: g * b.data, lambda g: g * a.data)


# Attention weights, in floats across all heads, that one block of an
# attention op holds (see ``attention`` for the sweep it comes from).
ATTENTION_BLOCK = 131_072


def _exps(qh, kh, rowmax, find_max=False):
    """E = exp(logits - ``rowmax``) for scaled queries ``qh`` (..., T, d_head)
    and keys ``kh`` (..., S, d_head); with ``find_max``, the logits' row
    maximum is first written to ``rowmax``."""
    exps = qh @ kh.swapaxes(-1, -2)
    if find_max:
        np.max(exps, axis=-1, keepdims=True, out=rowmax)
    exps -= rowmax
    np.exp(exps, out=exps)
    return exps


def _attend(qh, kh, vh, rowmax, inv_sum, out):
    """Softmax attention of scaled queries ``qh`` over ``kh`` and ``vh``
    (..., S, d_head), deferring the normalisation: writes the logits' row
    maximum to ``rowmax``, 1/l to ``inv_sum`` and (E v) / l to ``out``, and
    returns E, with l = rowsum(E)."""
    exps = _exps(qh, kh, rowmax, find_max=True)
    np.divide(1.0, exps.sum(axis=-1, keepdims=True), out=inv_sum)
    np.multiply(exps @ vh, inv_sum, out=out)
    return exps


def _put(view, x, row):
    """Write ``x`` to ``view`` for a group's first block, whose first query
    ``row`` is 0 or None; add it for a later row block of that group."""
    if row:
        view += x
    else:
        view[...] = x


def _blocks(groups, rows, weights_per_row):
    """(group slice, query-row slice) blocks that each hold at most
    ``ATTENTION_BLOCK`` weights: as many whole groups as fit, or else as
    many query rows of one group as fit, at least one."""
    per_group = rows * weights_per_row
    if per_group <= ATTENTION_BLOCK:
        step = ATTENTION_BLOCK // per_group
        return [(slice(g, g + step), slice(None)) for g in range(0, groups, step)]
    step = max(1, ATTENTION_BLOCK // weights_per_row)
    return [(slice(g, g + 1), slice(r, r + step))
            for g in range(groups) for r in range(0, rows, step)]


def attention(q, k, v, n_heads, groups=1, attn_sink=None):
    """Scaled dot-product attention for every head and group of rows at once.

    ``q`` is (G*T, d); ``k`` and ``v`` are (G*S, d), for ``groups`` G.
    Rows split into G consecutive groups, and group g of ``q`` attends only
    to group g of ``k`` and ``v``. Head h reads columns
    h*d_head:(h+1)*d_head of all three and writes the same columns of the
    (G*T, d) output: softmax(q_h k_h^T / sqrt(d_head)) v_h, with the row
    maximum subtracted before exponentiation. ``attn_sink``, when given,
    is extended by one (T, S) weight matrix per group and head, group by
    group. Normalisation is deferred as in FlashAttention (arXiv
    2205.14135): with E = exp(logits - rowmax) and l = rowsum(E) the output
    is (E v) / l, and backward scales g by 1/l and uses rowsum(dP * P) =
    rowsum(g * out), so neither pass forms the normalised (T, S) weights.

    The op runs in blocks, as FlashAttention tiles it. Each block holds at
    most ``ATTENTION_BLOCK`` weights across all heads: as many whole groups
    as fit, or, where one group alone is larger, as many query rows of that
    group as fit, at least one. Whole-group blocks make the same BLAS calls
    as one block, so their results are bit-identical; row blocks give BLAS
    fewer rows, which moves outputs and gradients by about 1e-15.

    - Without a graph nothing keeps the weights, so the forward runs block
      by block.
    - A graph op whose groups each fit the budget runs its forward as one
      block and keeps E. Backward runs in whole-group blocks, so it holds
      one block's logit gradient beside E.
    - A graph op with a group larger than the budget runs its forward in
      row blocks and keeps only each query row's max and 1/l. Backward
      recomputes each row block's E from q, k and those, and sums dk and
      dv over the blocks, so the op never holds more than two blocks of
      weights.
    - A sink receives every weight, so with one the forward runs as one
      block.

    The budget comes from whole-slide ``forward_slide`` with d = 64, 4
    heads and D = 5, on a 20x20 slide at 4 tokens, 12x12 at 16 and 8x8 at
    49, at the toy widths or 512 wide (ms per spot, median of 6 rounds
    that rotate the order of the budgets; one process, 2 vCPUs, one BLAS
    thread):

    =========  =====  ======  ======  ===========
    budget     4 tok  16 tok  49 tok  16 tok, 512
    =========  =====  ======  ======  ===========
    40,000     0.65   6.46    45.5    6.62
    65,536     0.74   7.08    42.8    6.14
    80,000     0.73   6.22    40.7    6.39
    131,072    0.74   6.13    38.3    5.87
    262,144    0.97   7.10    45.7    6.13
    unbounded  0.75   9.26    66.0    9.15
    =========  =====  ======  ======  ===========

    Peak RSS growth was 7, 20, 57 and 25 MB at every budget up to 131,072,
    and 9, 79, 419 and 84 MB unbounded. A budget of at least 40,000 keeps
    the 4-token shapes in whole-group blocks.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if (q.data.ndim != 2 or k.data.ndim != 2 or k.shape != v.shape
            or k.shape[1] != q.shape[1] or q.shape[1] % n_heads
            or groups < 1 or q.shape[0] % groups or k.shape[0] % groups):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} "
                         f"do not split into {groups} blocks of {n_heads} heads")
    d = q.shape[1]
    d_head = d // n_heads
    scale = 1.0 / math.sqrt(d_head)

    def split(x):
        return x.reshape(groups, -1, n_heads, d_head).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q.data) * scale, split(k.data), split(v.data)
    rows, keys = qh.shape[2], kh.shape[2]
    blocks = _blocks(groups, rows, n_heads * keys)
    graph = any(t.requires_grad for t in (q, k, v))
    keep = attn_sink is not None or graph and n_heads * rows * keys <= ATTENTION_BLOCK
    out = np.empty(q.shape)
    out_h = split(out)
    rowmax, inv_sum = np.empty((2, groups, n_heads, rows, 1))
    if keep:
        exps = _attend(qh, kh, vh, rowmax, inv_sum, out_h)
    else:
        exps = None
        for g, r in blocks:
            _attend(qh[g, :, r], kh[g], vh[g], rowmax[g, :, r], inv_sum[g, :, r], out_h[g, :, r])
    if attn_sink is not None:
        attn_sink.extend((exps * inv_sum).reshape(-1, rows, keys))

    def backward(grad):
        gh = split(grad) * inv_sum
        rowdot = (gh * out_h).sum(axis=3, keepdims=True)
        dq, dk, dv = (np.empty(t.shape) if t.requires_grad else None for t in (q, k, v))
        for g, r in blocks:
            e = _exps(qh[g, :, r], kh[g], rowmax[g, :, r]) if exps is None else exps[g, :, r]
            gb = gh[g, :, r]
            if dv is not None:
                _put(split(dv)[g], e.swapaxes(2, 3) @ gb, r.start)
            d_logits = gb @ vh[g].swapaxes(2, 3)
            d_logits -= rowdot[g, :, r]
            d_logits *= e
            if dq is not None:
                split(dq)[g, :, r] = d_logits @ kh[g]
            if dk is not None:
                _put(split(dk)[g], d_logits.swapaxes(2, 3) @ qh[g, :, r], r.start)
            del e, d_logits  # before the next block's are formed
        if dv is not None:
            v._accumulate(dv)
        if dq is not None:
            dq *= scale
            q._accumulate(dq)
        if dk is not None:
            k._accumulate(dk)

    return compose(out, (q, k, v), backward)


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
    # centred once; the variance is taken from the centred rows as np.var does
    xhat = x.data - x.data.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=1, keepdims=True) + eps)
    xhat *= inv

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

    return compose(xhat * gamma.data + beta.data, (x, gamma, beta), backward)


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

    def backward(g):
        offset = 0
        for p in parts:
            rows = p.shape[0]
            if p.requires_grad:
                p._accumulate(g[offset:offset + rows])
            offset += rows

    return compose(np.concatenate([p.data for p in parts]), parts, backward)


def mean_rows(x, groups=1):
    """Mean over each of ``groups`` equal, consecutive blocks of rows: (groups, n)."""
    x = as_tensor(x)
    if x.data.ndim != 2 or groups < 1 or x.shape[0] % groups:
        raise ShapeError(f"mean_rows: cannot split shape {x.shape} into {groups} row blocks")
    count = x.shape[0] // groups
    return compose(x.data.reshape(groups, count, -1).sum(axis=1) / count, (x,),
                   lambda g: x._accumulate(np.repeat(g / count, count, axis=0)))


def mean_all(x):
    """Mean over every entry, returned as a scalar (0-d) tensor."""
    x = as_tensor(x)
    return compose(x.data.mean(), (x,),
                   lambda g: x._accumulate(np.full_like(x.data, g / x.data.size)))


def take_rows(x, index):
    """Rows ``index`` of a 2-D tensor, in that order; an index may repeat."""
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.intp)
    if x.data.ndim != 2 or index.ndim != 1:
        raise ShapeError(f"take_rows: need a 2-D tensor and a 1-D index, got {x.shape} "
                         f"and {index.shape}")
    if index.size and not (index.min() >= 0 and index.max() < x.shape[0]):
        raise ValueError(f"take_rows: index out of range for {x.shape[0]} rows")

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, index, g)

    return compose(np.take(x.data, index, axis=0), (x,), backward)


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
