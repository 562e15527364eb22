"""The network, written once from the ``model.py`` docstrings.

``forward`` gives every requested spot's fused, spot, context and global
predictions for any config ``ModelConfig`` admits and any ``d_context``.
It runs over one of three sets of ops:

- ``SCALAR``: Python floats and loops, no numpy reductions;
- ``NUMPY``: plain numpy arrays;
- ``AUTODIFF``: autodiff tensors, so that a loss backpropagates into the
  ``ModelParams`` it was given.

It reads every weight by name from that ``ModelParams`` and imports
nothing from ``bgtriplex.model``. Attention runs head by head, as
softmax(q_h k_h^T / sqrt(d_head)) v_h, built from matrix products; the
``AUTODIFF`` ops build it from ``ad.matmul``, 0/1 column selectors and a
row-softmax node of their own, never from the autodiff attention op.
``tests/test_imports.py`` checks both rules.
"""

import functools
import math
import zlib
from types import SimpleNamespace

import numpy as np
from conftest import bundle

from bgtriplex import autodiff as ad
from bgtriplex.features import STREAMS


def _scalar_matmul(a, b):
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    return np.array([[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
                     for row in a])


def _scalar_attend(q, k, v):
    """One head, row by row: softmax(q k^T / sqrt(d_head)) v."""
    q, k, v = (np.asarray(m).tolist() for m in (q, k, v))
    out = []
    for q_row in q:
        logits = [sum(x * y for x, y in zip(q_row, k_row)) / math.sqrt(len(q_row))
                  for k_row in k]
        peak = max(logits)
        exps = [math.exp(logit - peak) for logit in logits]
        total = sum(exps)
        out.append([sum(e / total * v_row[x] for e, v_row in zip(exps, v))
                    for x in range(len(v[0]))])
    return np.array(out)


def _scalar_layer_norm(x, gamma, beta, eps):
    """Per row: (x - mean) / sqrt(var + eps) * gamma + beta, two-pass variance."""
    gamma, beta = np.asarray(gamma).tolist(), np.asarray(beta).tolist()
    out = []
    for row in np.asarray(x).tolist():
        mean = sum(row) / len(row)
        var = sum((v - mean) ** 2 for v in row) / len(row)
        scale = 1.0 / math.sqrt(var + eps)
        out.append([(v - mean) * scale * g + b for v, g, b in zip(row, gamma, beta)])
    return np.array(out)


def _scalar_mean_rows(x):
    return np.array([[sum(col) / len(col) for col in zip(*np.asarray(x).tolist())]])


def _numpy_attend(q, k, v):
    logits = q @ k.T / math.sqrt(q.shape[1])
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    return weights / weights.sum(axis=1, keepdims=True) @ v


def _numpy_layer_norm(x, gamma, beta, eps):
    centred = x - x.mean(axis=1, keepdims=True)
    return centred / np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + eps) * gamma + beta


# Elementwise ops, copies and weight reads, shared by the two array backends.
_ARRAYS = dict(param=lambda params, name: params[name].data, add=np.add, mul=np.multiply,
               concat_rows=np.vstack, merge_heads=np.hstack,
               cols=lambda w, h, d_h: w[:, h * d_h:(h + 1) * d_h],
               tap=lambda kernel, a, b: kernel[a:a + 1, b])

SCALAR = SimpleNamespace(matmul=_scalar_matmul, attend=_scalar_attend,
                         layer_norm=_scalar_layer_norm, mean_rows=_scalar_mean_rows, **_ARRAYS)
NUMPY = SimpleNamespace(matmul=np.matmul, attend=_numpy_attend, layer_norm=_numpy_layer_norm,
                        mean_rows=lambda x: x.mean(axis=0, keepdims=True), **_ARRAYS)


def _transpose(x):
    return ad.compose(x.data.T, (x,), lambda g: x._accumulate(g.T))


def _softmax_rows(x):
    e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    return ad.compose(w, (x,), lambda g: x._accumulate(
        w * (g - (g * w).sum(axis=1, keepdims=True))))


def _autodiff_attend(q, k, v):
    logits = ad.mul(ad.matmul(q, _transpose(k)), 1.0 / math.sqrt(q.shape[1]))
    return ad.matmul(_softmax_rows(logits), v)


def _selector(d, h, d_h):
    """The (d, d_head) 0/1 matrix that picks head h's columns; exact in float64."""
    return np.eye(d)[:, h * d_h:(h + 1) * d_h]


def _autodiff_tap(kernel, a, b):
    def backward(g):
        grad = np.zeros_like(kernel.data)
        grad[a:a + 1, b] = g
        kernel._accumulate(grad)

    return ad.compose(kernel.data[a:a + 1, b].copy(), (kernel,), backward)


def _autodiff_merge_heads(heads):
    """The (T, d_head) heads side by side, each put in its columns by a selector."""
    d_h = heads[0].shape[1]
    return functools.reduce(ad.add, [ad.matmul(x, _selector(len(heads) * d_h, h, d_h).T)
                                     for h, x in enumerate(heads)])


AUTODIFF = SimpleNamespace(
    param=lambda params, name: params[name], matmul=ad.matmul, add=ad.add, mul=ad.mul,
    attend=_autodiff_attend, layer_norm=ad.layer_norm, mean_rows=ad.mean_rows,
    concat_rows=ad.concat_rows, tap=_autodiff_tap, merge_heads=_autodiff_merge_heads,
    cols=lambda w, h, d_h: ad.matmul(w, _selector(w.shape[1], h, d_h)))


def guiding_block(ops, params, label, query, guides):
    """Guiding block ``label`` (``mca_spot``, ``mca_ctx`` or ``mca_fuse``).

    ``guides`` maps "a" and "b" to the guide sequences present. Each head
    h attends from the query to every guide, with head h's columns of the
    shared ``w_q`` and of the guide's own ``w_k_*`` and ``w_v_*``; the
    guides' outputs are summed per head, the heads concatenated in order,
    and the result layer-normalized by the block's ``gamma`` and ``beta``.
    """
    config = params.config
    weight = lambda name: ops.param(params, f"{label}.{name}")
    heads = []
    for h in range(config.n_heads):
        head_weight = lambda name: ops.cols(weight(name), h, config.d_head)
        q = ops.matmul(query, head_weight("w_q"))
        heads.append(functools.reduce(ops.add, [
            ops.attend(q, ops.matmul(guide, head_weight(f"w_k_{x}")),
                       ops.matmul(guide, head_weight(f"w_v_{x}")))
            for x, guide in guides.items()]))
    return ops.layer_norm(ops.merge_heads(heads), weight("gamma"), weight("beta"), config.eps)


def window_members(ds, center, d):
    """The spots of the d x d grid window centred on spot ``center``:
    the present cells only, row-major."""
    at = {(s.array_row, s.array_col): i for i, s in enumerate(ds.spots)}
    row, col, half = ds.spots[center].array_row, ds.spots[center].array_col, d // 2
    return [at[(r, c)] for r in range(row - half, row + half + 1)
            for c in range(col - half, col + half + 1) if (r, c) in at]


def branch(ops, ds, params, scope, members):
    """The ``scope`` ("spot" or "ctx") branch over the ``scope`` tokens of
    ``members``, concatenated in order: (tokens, pooled mean token).

    Each stream is projected by ``proj.{stream}.{scope}``. Edge tokens
    guide the image tokens as guide a and nuclei tokens as guide b; an
    ablated guide (``no_edge_*``, ``no_nuclei_*``) is the image stream.
    """
    config = params.config
    a = "img" if getattr(config, f"no_edge_{scope}") else "edge"
    b = "img" if getattr(config, f"no_nuclei_{scope}") else "nuc"
    seq = {}
    for stream in dict.fromkeys(("img", a, b)):
        k, weight = STREAMS.index(stream), ops.param(params, f"proj.{stream}.{scope}")
        seq[stream] = ops.concat_rows([ops.matmul(bundle(ds, m, scope)[k], weight)
                                       for m in members])
    tokens = guiding_block(ops, params, f"mca_{scope}", seq["img"], {"a": seq[a], "b": seq[b]})
    return tokens, ops.mean_rows(tokens)


def global_token(ops, ds, params, s):
    """Spot s's global token (1, d): its mean projected spot-scope image
    token, plus the 3x3 channelwise kernel over its grid neighbours, where
    tap (a, b) reads the spot at offset (a-1, b-1) and an empty cell adds
    nothing."""
    at = {(spot.array_row, spot.array_col): i for i, spot in enumerate(ds.spots)}
    weight, kernel = ops.param(params, "proj.img.spot"), ops.param(params, "apeg.kernel")
    pooled = lambda i: ops.mean_rows(ops.matmul(bundle(ds, i)[0], weight))
    row, col = ds.spots[s].array_row, ds.spots[s].array_col
    token = pooled(s)
    for a in range(3):
        for b in range(3):
            neighbour = at.get((row + a - 1, col + b - 1))
            if neighbour is not None:
                token = ops.add(token, ops.mul(ops.tap(kernel, a, b), pooled(neighbour)))
    return token


def head(ops, params, name, x):
    return ops.add(ops.matmul(x, ops.param(params, f"head.{name}.w")),
                   ops.param(params, f"head.{name}.b"))


def forward(ops, ds, params, d_context, spots=None):
    """{branch: (B, k_genes) predictions}, row b for ``spots[b]`` (every
    spot when None), for the branches the config keeps.

    The spot branch reads the spot alone and the context branch its
    ``d_context`` window. The fusion query is the spot's global token;
    with ``drop_global`` it is the pooled spot-branch token, or with
    ``drop_spot`` the pooled context-branch one. It attends to the spot's
    own spot tokens (guide a) and context tokens (guide b), for the
    branches that are not dropped.
    """
    config = params.config
    rows = {}
    for s in range(ds.n_spots) if spots is None else spots:
        branches = {}
        for name, members in (("spot", [s]), ("ctx", window_members(ds, s, d_context))):
            if not getattr(config, f"drop_{name}"):
                branches[name] = branch(ops, ds, params, name, members)
        if config.drop_global:
            query = branches["ctx" if config.drop_spot else "spot"][1]
        else:
            query = global_token(ops, ds, params, s)
        guides = {x: branches[name][0] for x, name in (("a", "spot"), ("b", "ctx"))
                  if name in branches}
        preds = {"fused": head(ops, params, "fused",
                               guiding_block(ops, params, "mca_fuse", query, guides))}
        preds.update({name: head(ops, params, name, pooled)
                      for name, (_, pooled) in branches.items()})
        if not config.drop_global:
            preds["global"] = head(ops, params, "global", query)
        for name, pred in preds.items():
            rows.setdefault(name, []).append(pred)
    return {name: ops.concat_rows(preds) for name, preds in rows.items()}


def init_oracle(config, k_genes, seed):
    """``ModelParams.records()`` as its docstring orders it: one uniform
    (+-1/sqrt(fan_in)) draw per weight matrix, in record order, each
    guiding-block projection drawn head by head;
    LayerNorm gains are ones, LayerNorm shifts, head biases and the
    position-encoder kernel are zeros."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(b"init")]))
    d, d_h = config.d_model, config.d_model // config.n_heads
    named = []
    draw = lambda name, shape: named.append(
        (name, rng.uniform(-1 / math.sqrt(shape[0]), 1 / math.sqrt(shape[0]), shape)))
    for scope in ("spot", "ctx"):
        for stream in STREAMS:
            draw(f"proj.{stream}.{scope}", (config.stream_dims[stream], d))
    for block in ("mca_spot", "mca_ctx", "mca_fuse"):
        for h in range(config.n_heads):
            for name in ("w_q", "w_k_a", "w_v_a", "w_k_b", "w_v_b"):
                draw(f"{block}.h{h}.{name}", (d, d_h))
        named += [(f"{block}.gamma", np.ones(d)), (f"{block}.beta", np.zeros(d))]
    named.append(("apeg.kernel", np.zeros((3, 3, d))))
    for head_name in ("fused", "spot", "ctx", "global"):
        draw(f"head.{head_name}.w", (d, k_genes))
        named.append((f"head.{head_name}.b", np.zeros((1, k_genes))))
    return named
