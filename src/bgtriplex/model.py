"""The boundary-guided three-branch network.

Each branch reads one d x d grid window of a spot, its row of the slide's
``SpotDataset.windows(d)``. The spot (d = 1) and in-context (d = D) branches
run multi-head cross-attention in which edge and nuclei tokens guide the
image tokens; the global branch position-encodes the pooled image tokens of
the 3x3 window with a 3x3 kernel. Each spot's branch outputs are fused by the
same cross-attention block, with its global token as the query, and linear
heads map pooled tokens to per-gene predictions.

A forward pass reads only the tokens its spots need, so the cost per spot
does not grow with the slide, and runs each branch as single ops over
spots whose sequences have the same shape; the spot and context branches
project raw tokens through projections folded into their q/k/v weights.
Inference (``forward_slide``) runs on detached weights and builds no graph,
so it projects a token that overlapping context windows share only once
and can split its chunks among forked processes.

Every learned weight lives in one ordered ``name -> Tensor`` table
(``ModelParams``); its order is defined once and fixes the initialization
draws, the checkpoint records and the optimizer's walk.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .features import STREAMS, TOY_STREAM_DIMS
from .parallel import fork_map
from .seeding import substream

MCA_BLOCKS = ("mca_spot", "mca_ctx", "mca_fuse")
MCA_WEIGHTS = ("w_q", "w_k_a", "w_v_a", "w_k_b", "w_v_b")
# Spots per batched op within a shape group. It bounds the attention
# weights one op holds (spots x heads x window rows squared) when a whole
# slide runs; a training batch rarely fills it.
CHUNK_SPOTS = 8


def is_integer(value):
    """True for an integral number that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# What each field annotation of a config dataclass admits; bools are not numbers.
_KINDS = {"int": is_integer,
          "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
          "bool": lambda v: isinstance(v, bool),
          "dict[str, int]": lambda v: isinstance(v, dict) and all(map(is_integer, v.values()))}


def check_field_types(config):
    """Raise TypeError unless every field of the dataclass ``config`` holds
    what its annotation admits in ``_KINDS``; ``| None`` also admits None."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if not (_KINDS[kind](value) or optional and value is None):
            raise TypeError(f"{f.name} must be {f.type}, got {value!r}")


@dataclass
class ModelConfig:
    d_model: int = 64
    n_heads: int = 4
    stream_dims: dict[str, int] = field(default_factory=lambda: dict(TOY_STREAM_DIMS))
    drop_spot: bool = False
    drop_ctx: bool = False
    drop_global: bool = False
    no_edge_spot: bool = False
    no_nuclei_spot: bool = False
    no_edge_ctx: bool = False
    no_nuclei_ctx: bool = False
    eps: float = 1e-5

    def __post_init__(self):
        check_field_types(self)
        if self.d_model < 1 or self.n_heads < 1:
            raise ValueError(f"d_model and n_heads must be positive, got {self.d_model} "
                             f"and {self.n_heads}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"n_heads {self.n_heads} must divide d_model {self.d_model}")
        if self.drop_spot and self.drop_ctx:
            raise ValueError("cannot drop both drop_spot and drop_ctx: fusion would have no guide")
        if set(self.stream_dims) != set(STREAMS) or min(self.stream_dims.values()) < 1:
            raise ValueError(f"stream_dims must give a width of at least 1 to each of "
                             f"{', '.join(STREAMS)}, got {self.stream_dims}")

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


def parameter_shapes(config, k_genes):
    """Each learned weight's shape, by name in ``ModelParams`` table order."""
    d, k = config.d_model, int(k_genes)
    shapes = {f"proj.{stream}.{scope}": (config.stream_dims[stream], d)
              for scope in ("spot", "ctx") for stream in STREAMS}
    for label in MCA_BLOCKS:
        shapes.update({f"{label}.{name}": (d, d) for name in MCA_WEIGHTS})
        shapes.update({f"{label}.gamma": (d,), f"{label}.beta": (d,)})
    shapes["apeg.kernel"] = (3, 3, d)
    for name in ("fused", "spot", "ctx", "global"):
        shapes.update({f"head.{name}.w": (d, k), f"head.{name}.b": (1, k)})
    return shapes


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
        self._table = {name: Tensor((np.ones if name.endswith(".gamma") else np.zeros)(shape),
                                    requires_grad=True)
                       for name, shape in parameter_shapes(config, self.k_genes).items()}
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
    """Multi-head cross-attention from projected queries to one or two guides.

    ``guides`` holds (keys, values, groups) for each guide present, guide a
    before guide b: block g of ``groups`` equal row blocks of ``q`` attends
    only to block g of the guide's. Each head attends to every guide with
    the same queries; the head-concatenated streams are summed and
    layer-normalized by the ``gamma`` and ``beta`` of ``block``, a
    ``ModelParams.block`` dict. ``attn_sink``, when given, receives each
    guide's weights in turn (one (T, S) matrix per block and head).
    """
    phis = [ad.attention(q, k, v, config.n_heads, groups, attn_sink) for k, v, groups in guides]
    return ad.layer_norm(functools.reduce(ad.add, phis), block["gamma"], block["beta"],
                         config.eps)


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
    spots = [np.asarray(s) for s in members.values()]
    member_spots = np.concatenate(spots)
    last_member = np.cumsum([len(s) for s in spots]) - 1
    reads = []
    for stream, names in (("img", ("w_q",)),
                          ("img" if no_edge else "edge", ("w_k_a", "w_v_a")),
                          ("img" if no_nuclei else "nuc", ("w_k_b", "w_v_b"))):
        stack, offsets = dataset.token_stacks[(stream, scope)]
        counts = offsets[member_spots + 1] - offsets[member_spots]
        read = _ranges(offsets[member_spots], counts)
        folded = [ad.matmul(params[f"proj.{stream}.{scope}"], block[name]) for name in names]
        used = np.unique(read)
        if used.size < read.size and not folded[0].requires_grad:
            read = np.searchsorted(used, read)
            stack, folded = [stack[used] @ w.data for w in folded], None
        rows = dict(zip(members, np.split(read, np.cumsum(counts)[last_member[:-1]])))
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


def global_branch(dataset, params, spots):
    """Global tokens (m, d) of the m ``spots``, row r for ``spots[r]``.

    Each reads only its spot's row of ``dataset.windows(3)``: the pooled raw
    image tokens of those cells (zero for an empty cell) times the
    spot-scope image projection, position-encoded by the channelwise 3x3
    kernel as a residual, out = cell 4 + sum_t kernel[t] * cell t, where
    tap t = 3a + b reads grid offset (a-1, b-1). Backward scatters nothing.
    """
    cells = ad.matmul(np.take(dataset.pooled_image_tokens, dataset.windows(3)[spots].reshape(-1),
                              axis=0), params["proj.img.spot"])
    kernel = params["apeg.kernel"]
    d = cells.shape[1]
    taps, weights = cells.data.reshape(-1, 9, d), kernel.data.reshape(9, d)

    def backward(g):
        if kernel.requires_grad:
            kernel._accumulate((g[:, None] * taps).sum(axis=0).reshape(3, 3, d))
        if cells.requires_grad:
            d_taps = weights * g[:, None]
            d_taps[:, 4] += g
            cells._accumulate(d_taps.reshape(-1, d))

    return ad.compose(taps[:, 4] + sum(weights[t] * taps[:, t] for t in range(9)),
                      (cells, kernel), backward)


def fuse(spot_out, ctx_out, global_out, rows, params, config, attn_sink=None):
    """Fused tokens (G, d) of G spots whose branch outputs share one shape.

    Spot g's query is row ``rows[g]`` of ``global_out.tokens``, and it
    attends to block g of the spot-branch tokens (guide a) and of the
    context-branch tokens (guide b). A dropped branch (None) has no part in
    fusion: the query attends to the guide that remains.
    """
    block = params.block("mca_fuse")
    guides = [(ad.matmul(out.tokens, block[f"w_k_{guide}"]),
               ad.matmul(out.tokens, block[f"w_v_{guide}"]), len(rows))
              for out, guide in ((spot_out, "a"), (ctx_out, "b")) if out is not None]
    return guided_attention(ad.matmul(ad.take_rows(global_out.tokens, rows), block["w_q"]),
                            guides, block, config, attn_sink)


def forward_batch(dataset, params, config, d_context, spot_indices=None, workers=1):
    """Differentiable forward pass; returns {branch: (B, k_genes) predictions},
    row b for ``spot_indices[b]`` (every spot when None).

    The spot and context branches read the present cells of each spot's
    ``dataset.windows(d)`` row, d = 1 and ``d_context``. Spots are grouped
    by those sequence lengths; each group runs in chunks of at most
    ``CHUNK_SPOTS`` spots, whose branches and fusion run as single ops over
    stacked rows, each spot attending and pooling over exactly its own
    rows. A spot's fusion query is its global token (``global_branch``),
    and it attends to its own spot and context tokens, for the branches
    that are not dropped. With ``drop_global`` the query is the spot's
    pooled spot-branch (or, with ``drop_spot``, context-branch) token. A
    pass therefore reads only the windows of the requested spots.

    A pass that builds no graph splits its chunks between this process and
    up to ``workers - 1`` forked ones (``parallel.fork_map``), which inherit
    the projected stacks and global tokens and send back only each chunk's
    fused and pooled rows; the heads run here on the rows stacked in chunk
    order, so outputs do not depend on ``workers``. A pass that builds a
    graph, or whose ``guided_branch`` or ``fuse`` has been wrapped here (by
    a tracer or a test double), runs every chunk in this process.
    """
    n = dataset.n_spots
    indices = list(range(n)) if spot_indices is None else list(spot_indices)
    if not indices or not all(0 <= s < n for s in indices):
        raise ValueError(f"spot indices must be a non-empty list in [0, {n})")
    scope = list(dict.fromkeys(indices))
    branches = {}
    for name, d in (("spot", 1), ("ctx", d_context)):
        if not getattr(config, f"drop_{name}"):
            windows = dataset.windows(d)[scope]
            branches[name] = branch_inputs(dataset, params, config, name,
                                           {s: row[row < n] for s, row in zip(scope, windows)})
    groups = {}
    for s in scope:
        shape = tuple(len(rows[s]) for inputs in branches.values()
                      for _, rows, _ in inputs.reads)
        groups.setdefault(shape, []).append(s)
    chunks = [group[i:i + CHUNK_SPOTS] for group in groups.values()
              for i in range(0, len(group), CHUNK_SPOTS)]
    global_out = (None if config.drop_global
                  else BranchOutput(global_branch(dataset, params, scope), None))
    row_of = {s: r for r, s in enumerate(scope)}

    def run_chunk(chunk):
        """The chunk's fused rows, then the pooled rows of each branch."""
        outs = {name: guided_branch(inputs, chunk, config) for name, inputs in branches.items()}
        if global_out is None:
            query = BranchOutput(outs["ctx" if config.drop_spot else "spot"].pooled, None)
            rows = range(len(chunk))
        else:
            query, rows = global_out, [row_of[s] for s in chunk]
        return [fuse(outs.get("spot"), outs.get("ctx"), query, rows, params, config),
                *(out.pooled for out in outs.values())]

    if (any(tensor.requires_grad for _, tensor in params.named())
            or any(hasattr(fn, "__wrapped__") for fn in (guided_branch, fuse))):
        parts = [run_chunk(chunk) for chunk in chunks]
    else:
        parts = fork_map(lambda chunk: [t.data for t in run_chunk(chunk)], chunks, workers)

    rank = {s: r for r, s in enumerate(s for chunk in chunks for s in chunk)}
    order = [rank[s] for s in indices]
    preds = {name: ad.take_rows(ad.concat_rows(stacked), order)
             for name, stacked in zip(("fused", *branches), zip(*parts))}
    if global_out is not None:
        preds["global"] = ad.take_rows(global_out.tokens, [row_of[s] for s in indices])
    return {name: ad.add(ad.matmul(x, params[f"head.{name}.w"]), params[f"head.{name}.b"])
            for name, x in preds.items()}


def build_tables(dataset, d_context):
    """Build the grid windows of ``dataset`` that ``forward_batch`` reads,
    so that processes forked afterwards share them."""
    for d in (1, 3, d_context):
        dataset.windows(d)


def slide_forward(dataset, params, config, d_context, spot_indices=None):
    """``forward_batch`` split per spot: [(spot, {branch: (1, k_genes)
    prediction})] in ``spot_indices`` order."""
    preds = forward_batch(dataset, params, config, d_context, spot_indices)
    indices = range(dataset.n_spots) if spot_indices is None else spot_indices
    return [(s, {name: ad.take_rows(p, [b]) for name, p in preds.items()})
            for b, s in enumerate(indices)]


def forward_slide(dataset, params, config, d_context, workers=1):
    """Whole-slide forward pass returning numpy prediction matrices.

    It runs on ``params.detached()``, so it builds no graph and leaves
    every gradient buffer untouched. Its chunks are split between this
    process and up to ``workers - 1`` forked ones (see ``forward_batch``);
    the outputs are the same for every ``workers``.
    """
    return {name: p.data for name, p in
            forward_batch(dataset, params.detached(), config, d_context, workers=workers).items()}
