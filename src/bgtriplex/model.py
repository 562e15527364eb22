"""The boundary-guided three-branch network.

A spot branch and an in-context branch run multi-head cross-attention in
which edge and nuclei token streams guide the image stream; a global
branch position-encodes one pooled image token per spot over the slide
grid. Each spot's branch outputs are fused by the same cross-attention
block, with that spot's global token as the query, and linear heads map
pooled tokens to per-gene predictions.

A forward pass reads only the tokens its spots need, so the cost per spot
does not grow with the slide, and runs each branch as single ops over
spots whose sequences have the same shape; the spot and context branches
project raw tokens through projections folded into their q/k/v weights.
Inference (``forward_slide``) runs on detached weights and builds no graph,
so it projects a token that overlapping context windows share only once.

Every learned weight lives in one ordered ``name -> Tensor`` table
(``ModelParams``); its order is defined once and fixes the initialization
draws, the checkpoint records and the optimizer's walk.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .features import STREAMS, TOY_STREAM_DIMS
from .seeding import substream

MCA_BLOCKS = ("mca_spot", "mca_ctx", "mca_fuse")
MCA_WEIGHTS = ("w_q", "w_k_a", "w_v_a", "w_k_b", "w_v_b")
# Spots per batched op within a shape group. It bounds the attention
# weights one op holds (spots x heads x window rows squared) when a whole
# slide runs; a training batch rarely fills it.
CHUNK_SPOTS = 8


@dataclass
class ModelConfig:
    d_model: int = 64
    n_heads: int = 4
    stream_dims: dict = field(default_factory=lambda: dict(TOY_STREAM_DIMS))
    drop_spot: bool = False
    drop_ctx: bool = False
    drop_global: bool = False
    no_edge_spot: bool = False
    no_nuclei_spot: bool = False
    no_edge_ctx: bool = False
    no_nuclei_ctx: bool = False
    eps: float = 1e-5

    def __post_init__(self):
        if self.d_model < 1 or self.n_heads < 1:
            raise ValueError(f"d_model and n_heads must be positive, got {self.d_model} "
                             f"and {self.n_heads}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"n_heads {self.n_heads} must divide d_model {self.d_model}")
        if self.drop_spot and self.drop_ctx and self.drop_global:
            raise ValueError("cannot drop all three branches")

    @property
    def d_head(self):
        return self.d_model // self.n_heads

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        """The config ``to_dict`` wrote; raises ValueError on unknown keys.

        Older configs carry ``tokens_per_stream``, which was never read,
        and ``guide_mode``; they load when the mode is "mca", the only
        guiding method there is.
        """
        doc = dict(doc)
        doc.pop("tokens_per_stream", None)
        mode = doc.pop("guide_mode", "mca")
        if mode != "mca":
            raise ValueError(f"guide_mode {mode!r} is not supported; only 'mca' guiding exists")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown model config keys: {', '.join(unknown)}")
        return cls(**doc)


class ModelParams:
    """All learned weights: one insertion-ordered ``name -> Tensor`` table.

    ``named()`` walks the table in its fixed, documented order: the six
    stream projections ``proj.{stream}.{scope}`` (spot scope, then ctx;
    each img, edge, nuc), the three guiding blocks ``{block}.{weight}``
    (spot, ctx, fuse; each its five packed (d, d) projections in
    ``MCA_WEIGHTS`` order, then ``gamma`` and ``beta``), ``apeg.kernel``,
    then the four prediction heads ``head.{name}.w`` and ``.b`` (fused,
    spot, ctx, global). ``records()`` is the same list with every block's
    packed projections split into per-head column blocks
    ``{block}.h{h}.{weight}``, head by head and, per head, in
    ``MCA_WEIGHTS`` order. That is the initialization draw order and the
    checkpoint record order. Model code reads a weight by name,
    ``params["proj.img.spot"]``, and a guiding block's tensors by leaf
    name with ``params.block("mca_fuse")``.
    """

    def __init__(self, config, k_genes, seed=0):
        self.config = config
        self.k_genes = int(k_genes)
        d, k = config.d_model, self.k_genes
        shapes = {f"proj.{stream}.{scope}": (config.stream_dims[stream], d)
                  for scope in ("spot", "ctx") for stream in STREAMS}
        for label in MCA_BLOCKS:
            shapes.update({f"{label}.{name}": (d, d) for name in MCA_WEIGHTS})
            shapes.update({f"{label}.gamma": (d,), f"{label}.beta": (d,)})
        shapes["apeg.kernel"] = (3, 3, d)
        for name in ("fused", "spot", "ctx", "global"):
            shapes.update({f"head.{name}.w": (d, k), f"head.{name}.b": (1, k)})
        self._table = {name: Tensor((np.ones if name.endswith(".gamma") else np.zeros)(shape),
                                    requires_grad=True) for name, shape in shapes.items()}
        # LayerNorm gains and shifts, the position-encoder kernel and head
        # biases keep their constant start; every weight matrix is drawn
        rng = substream(seed, "init")
        for name, values in self.records():
            if name.rpartition(".")[2] not in ("gamma", "beta", "kernel", "b"):
                bound = 1.0 / math.sqrt(values.shape[0])
                values[...] = rng.uniform(-bound, bound, size=values.shape)

    def __getitem__(self, name):
        return self._table[name]

    def block(self, label):
        """The tensors of guiding block ``label``, keyed by leaf name."""
        return {name: self._table[f"{label}.{name}"] for name in MCA_WEIGHTS + ("gamma", "beta")}

    def named(self):
        return list(self._table.items())

    def records(self):
        """(name, array) in record order; head blocks are writable column views."""
        dh = self.config.d_head
        items = []
        for name, tensor in self._table.items():
            label, _, leaf = name.partition(".")
            if leaf not in MCA_WEIGHTS:
                items.append((name, tensor.data))
            elif leaf == MCA_WEIGHTS[0]:
                block = self.block(label)
                for h in range(self.config.n_heads):
                    for weight in MCA_WEIGHTS:
                        items.append((f"{label}.h{h}.{weight}",
                                      block[weight].data[:, h * dh:(h + 1) * dh]))
        return items

    def zero_grad(self):
        for tensor in self._table.values():
            tensor.zero_grad()

    def detached(self):
        """A view of these weights that records no graph: every tensor
        shares its array, but none requires a gradient."""
        view = copy.copy(self)
        view._table = {name: tensor.detach() for name, tensor in self._table.items()}
        return view


def guided_attention(q, guides, block, config, attn_sink=None):
    """Multi-head cross-attention from projected queries to two guides.

    ``guides`` holds (keys, values, groups) for guide a, then guide b: block
    g of ``groups`` equal row blocks of ``q`` attends only to block g of the
    guide's. Each head attends to both guides with the same queries; the
    two head-concatenated streams are summed and layer-normalized by the
    ``gamma`` and ``beta`` of ``block``, a ``ModelParams.block`` dict.
    ``attn_sink``, when given, receives guide a's weights (one (T, S)
    matrix per block and head), then guide b's.
    """
    phi_a, phi_b = (ad.attention(q, k, v, config.n_heads, groups, attn_sink)
                    for k, v, groups in guides)
    return ad.layer_norm(ad.add(phi_a, phi_b), block["gamma"], block["beta"], config.eps)


def apeg_encode(tokens, positions, kernel):
    """Residual position encoding over the irregular spot grid.

    Tokens are scattered onto their (row, col) cells, convolved with a
    learned channelwise 3x3 kernel (zero padding, empty cells read as
    zero) and gathered back: out = tokens + conv. Kernel tap (a, b)
    reads the neighbor at grid offset (a-1, b-1).
    """
    tokens = ad.as_tensor(tokens)
    kernel = ad.as_tensor(kernel)
    n, d = tokens.shape
    if len(positions) != n:
        raise ValueError(f"{len(positions)} positions for {n} tokens")
    if len(set(positions)) != n:
        raise ValueError("duplicate grid positions")
    if kernel.data.shape != (3, 3, d):
        raise ShapeError(f"kernel must have shape (3, 3, {d}), got {kernel.data.shape}")
    rows = np.array([p[0] for p in positions], dtype=int)
    cols = np.array([p[1] for p in positions], dtype=int)
    ri = rows - rows.min() + 1
    ci = cols - cols.min() + 1
    n_rows = rows.max() - rows.min() + 1
    n_cols = cols.max() - cols.min() + 1
    padded = np.zeros((n_rows + 2, n_cols + 2, d))
    padded[ri, ci] = tokens.data
    conv = np.zeros((n_rows, n_cols, d))
    for a in range(3):
        for b in range(3):
            conv += kernel.data[a, b] * padded[a:a + n_rows, b:b + n_cols]
    gathered = conv[ri - 1, ci - 1]

    def backward(g):
        d_conv = np.zeros((n_rows, n_cols, d))
        d_conv[ri - 1, ci - 1] = g
        if kernel.requires_grad:
            dk = np.zeros((3, 3, d))
            for a in range(3):
                for b in range(3):
                    dk[a, b] = (d_conv * padded[a:a + n_rows, b:b + n_cols]).sum(axis=(0, 1))
            kernel._accumulate(dk)
        if tokens.requires_grad:
            d_padded = np.zeros_like(padded)
            for a in range(3):
                for b in range(3):
                    d_padded[a:a + n_rows, b:b + n_cols] += kernel.data[a, b] * d_conv
            tokens._accumulate(g + d_padded[ri, ci])

    return ad.compose(tokens.data + gathered, (tokens, kernel), backward)


def _ranges(starts, counts):
    """The row ranges starts[i]:starts[i] + counts[i], concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts + counts - ends, counts) + np.arange(ends[-1])


@dataclass
class BranchOutput:
    """A branch's stacked tokens for a block of spots, and their per-spot
    means (None for the global stream)."""

    tokens: Tensor
    pooled: Tensor | None


@dataclass
class BranchInputs:
    """What a spot or context branch reads for its query, guide a and guide
    b: a raw token stack, each target's row indices into it and the folded
    weights, (w_q,) or (w_k, w_v); or, with no graph and rows read more
    than once, the rows read projected through each folded weight, and None.
    ``block`` is the branch's ``ModelParams.block`` dict."""

    block: dict
    reads: tuple


def branch_inputs(dataset, params, config, scope, members):
    """What the ``scope`` ("spot" or "ctx") branch reads, and its weights.

    ``members`` maps each target spot to the spots whose ``scope`` tokens,
    concatenated in order, form its sequence: the spot itself, or its
    present window members in row-major order. Edge and nuclei guide the
    image tokens unless ablated. Each stream's (c, d) projection W_p is
    folded into every block weight W it feeds, one node W_p W per call. A
    training chunk projects its gathered raw rows X as X (W_p W), once per
    use, so backward is X^T g with no scatter into projected tokens. With
    no graph there is no scatter to avoid, so rows that several sequences
    read (overlapping context windows, up to D^2 each) are projected once
    and chunks gather the result. A row use for k weights costs k c d
    multiply-adds folded and c d + k d^2 unfolded, so the fold pays while
    the stream widths c (10, 6, 8 by default) are narrow against d =
    ``d_model``; for keys and values (k = 2) the crossover is at c = 2 d.
    """
    block = params.block(f"mca_{scope}")
    no_edge, no_nuclei = ((config.no_edge_spot, config.no_nuclei_spot) if scope == "spot"
                          else (config.no_edge_ctx, config.no_nuclei_ctx))
    members = {t: np.array(spots) for t, spots in members.items()}
    reads = []
    for stream, names in (("img", ("w_q",)),
                          ("img" if no_edge else "edge", ("w_k_a", "w_v_a")),
                          ("img" if no_nuclei else "nuc", ("w_k_b", "w_v_b"))):
        stack, offsets = dataset.token_stacks[(stream, scope)]
        rows = {t: _ranges(offsets[spots], offsets[spots + 1] - offsets[spots])
                for t, spots in members.items()}
        folded = [ad.matmul(params[f"proj.{stream}.{scope}"], block[name]) for name in names]
        read = np.concatenate(list(rows.values()))
        used = np.unique(read)
        if used.size < read.size and not folded[0].requires_grad:
            rows = {t: np.searchsorted(used, r) for t, r in rows.items()}
            stack, folded = [stack[used] @ w.data for w in folded], None
        reads.append((stack, rows, folded))
    return BranchInputs(block, tuple(reads))


def guided_branch(inputs, targets, config, attn_sink=None):
    """Tokens (G*T, d) and pooled means (G, d) of one branch for G targets.

    The targets' q, guide-a and guide-b sequences must have equal lengths;
    each target attends only within its own sequences, gathered by row.
    """
    projected = []
    for stack, rows, weights in inputs.reads:
        index = np.concatenate([rows[t] for t in targets])
        projected.append([np.take(p, index, axis=0) for p in stack] if weights is None
                         else [ad.matmul(np.take(stack, index, axis=0), w) for w in weights])
    (q,), *guides = projected
    tokens = guided_attention(q, [(k, v, len(targets)) for k, v in guides], inputs.block, config,
                              attn_sink)
    return BranchOutput(tokens, ad.mean_rows(tokens, len(targets)))


def global_branch(tokens, grid_positions, params):
    """Position-encode one pooled, projected image token per spot over the
    slide grid; row s stays spot s's global token."""
    return BranchOutput(apeg_encode(tokens, grid_positions, params["apeg.kernel"]), None)


def _stream_guides(stream, params, dropped):
    """Keys and values of the whole global token ``stream`` for each fusion
    guide, spot then context, that ``dropped`` flags; None for the others."""
    block = params.block("mca_fuse")
    return [(ad.matmul(stream, block[f"w_k_{guide}"]), ad.matmul(stream, block[f"w_v_{guide}"]))
            if drop else None for drop, guide in zip(dropped, "ab")]


def fuse(spot_out, ctx_out, global_out, rows, params, config, attn_sink=None,
         stream_kv=(None, None)):
    """Fused tokens (G, d) of G spots whose branch outputs share one shape.

    Spot g's query is row ``rows[g]`` of ``global_out.tokens``, and it
    attends to block g of the spot-branch and context-branch tokens. A
    dropped branch (None) is replaced by the whole global token stream,
    which every query row attends to, mirroring the guidance ablations.
    Its keys and values come from ``stream_kv``, made by ``_stream_guides``
    once per forward pass for all of its chunks.
    """
    block, stream = params.block("mca_fuse"), global_out.tokens
    guides = []
    for out, kv, guide in ((spot_out, stream_kv[0], "a"), (ctx_out, stream_kv[1], "b")):
        guides.append((*kv, 1) if out is None else
                      (ad.matmul(out.tokens, block[f"w_k_{guide}"]),
                       ad.matmul(out.tokens, block[f"w_v_{guide}"]), len(rows)))
    return guided_attention(ad.matmul(ad.take_rows(stream, rows), block["w_q"]), guides, block,
                            config, attn_sink)


def forward_batch(dataset, params, config, d_context, spot_indices=None):
    """Differentiable forward pass; returns {branch: (B, k_genes) predictions},
    row b for ``spot_indices[b]`` (every spot when None).

    Spots are grouped by the lengths of their spot and context sequences;
    each group runs in chunks of at most ``CHUNK_SPOTS`` spots, whose
    branches and fusion run as single ops over stacked rows, each spot
    attending and pooling over exactly its own rows. A spot's fusion
    query is its global token: the slide's pooled raw image tokens times
    the (linear, bias-free) spot-scope image projection, position-encoded.
    A dropped guide branch is replaced by the whole global stream, whose
    fusion keys and values are projected once per call. With
    ``drop_global`` the global stream is the stack of pooled spot-branch
    (or, failing that, context-branch) tokens; when it also replaces a
    dropped guide, that branch runs on every spot, and only chunks holding
    a requested spot are fused.
    """
    from .data import context_window

    n = dataset.n_spots
    indices = list(range(n)) if spot_indices is None else list(spot_indices)
    if not indices or not all(0 <= s < n for s in indices):
        raise ValueError(f"spot indices must be a non-empty list in [0, {n})")
    wide = config.drop_global and (config.drop_spot or config.drop_ctx)
    scope = list(range(n)) if wide else list(dict.fromkeys(indices))
    branches = {}
    if not config.drop_spot:
        branches["spot"] = branch_inputs(dataset, params, config, "spot", {s: [s] for s in scope})
    if not config.drop_ctx:
        windows = (context_window(dataset.spots, s, d_context, dataset.grid_index) for s in scope)
        branches["ctx"] = branch_inputs(dataset, params, config, "ctx", {
            w.center: [i for row in w.member_indices for i in row if i is not None]
            for w in windows})
    groups = {}
    for s in scope:
        shape = tuple(len(rows[s]) for inputs in branches.values()
                      for _, rows, _ in inputs.reads)
        groups.setdefault(shape, []).append(s)
    chunks = [group[i:i + CHUNK_SPOTS] for group in groups.values()
              for i in range(0, len(group), CHUNK_SPOTS)]
    outs = ({name: guided_branch(inputs, chunk, config) for name, inputs in branches.items()}
            for chunk in chunks)

    if config.drop_global:
        outs = list(outs)
        source = "ctx" if config.drop_spot else "spot"
        global_out = BranchOutput(ad.concat_rows([out[source].pooled for out in outs]), None)
        row_of = {s: r for r, s in enumerate(s for chunk in chunks for s in chunk)}
    else:
        pooled = ad.matmul(dataset.pooled_image_tokens, params["proj.img.spot"])
        global_out = global_branch(pooled, dataset.grid_positions(), params)
        row_of = range(n)
    stream_kv = _stream_guides(global_out.tokens, params, (config.drop_spot, config.drop_ctx))
    requested, fused_spots = set(indices), []
    stacked = {"fused": [], **{name: [] for name in branches}}
    for chunk, out in zip(chunks, outs):
        if requested.isdisjoint(chunk):
            continue
        fused_spots.extend(chunk)
        stacked["fused"].append(fuse(out.get("spot"), out.get("ctx"), global_out,
                                     [row_of[s] for s in chunk], params, config,
                                     stream_kv=stream_kv))
        for name, branch_out in out.items():
            stacked[name].append(branch_out.pooled)

    rank = {s: r for r, s in enumerate(fused_spots)}
    order = [rank[s] for s in indices]
    preds = {name: ad.take_rows(ad.concat_rows(parts), order) for name, parts in stacked.items()}
    if not config.drop_global:
        preds["global"] = ad.take_rows(global_out.tokens, indices)
    return {name: ad.add(ad.matmul(x, params[f"head.{name}.w"]), params[f"head.{name}.b"])
            for name, x in preds.items()}


def slide_forward(dataset, params, config, d_context, spot_indices=None):
    """``forward_batch`` split per spot: [(spot, {branch: (1, k_genes)
    prediction})] in ``spot_indices`` order."""
    preds = forward_batch(dataset, params, config, d_context, spot_indices)
    indices = range(dataset.n_spots) if spot_indices is None else spot_indices
    return [(s, {name: ad.take_rows(p, [b]) for name, p in preds.items()})
            for b, s in enumerate(indices)]


def forward_slide(dataset, params, config, d_context):
    """Whole-slide forward pass returning numpy prediction matrices.

    It runs on ``params.detached()``, so it builds no graph and leaves
    every gradient buffer untouched.
    """
    return {name: p.data for name, p in
            forward_batch(dataset, params.detached(), config, d_context).items()}
