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
spots whose sequences have the same shape. The spot and context branches
pick each stream's projection plan by its cost (``branch_inputs``): narrow
streams are projected per use through projections folded into their q/k/v
weights; wide ones unfold, and a pass without a graph projects a wide token
that overlapping context windows share only once. Inference
(``forward_slide``) runs on detached weights and builds no graph, so it can
split its chunks among forked processes. Each attention op works in blocks
of at most ``autodiff.ATTENTION_BLOCK`` weights, and a training step keeps
an op's weights for backward only where each spot's fit in one block.

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
# Spots per batched op within a shape group. It bounds the token rows one
# chunk gathers and is the unit of work that whole-slide inference deals
# out to forked processes; a training batch rarely fills it. Attention
# weights are bounded per block by ``autodiff.ATTENTION_BLOCK``, except
# that a graph pass keeps a chunk's (spots x heads x window rows squared)
# weights until backward where each spot's fit in one block.
CHUNK_SPOTS = 8
# Multiply-adds that cost as much as gathering one float of a projected
# row: graph-free passes project distinct rows once only past it (see
# ``branch_inputs`` for the measurements it comes from).
GATHER_MACS = 32


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
class Read:
    """One token stream that a branch reads for its query or for one guide.

    Target i reads rows ``rows[offsets[i]:offsets[i + 1]]`` of ``stack``.
    With ``weights``, the stack holds raw tokens, and each use projects its
    gathered rows X through ``proj``, when there is one, and then through
    each weight: X (W_p W) with the projection folded into the weights,
    (X W_p) W unfolded. With ``weights`` None, the stack holds one array per
    weight: the rows read, already projected through it.
    """

    stack: np.ndarray | list
    rows: np.ndarray
    offsets: np.ndarray
    weights: list | None
    proj: Tensor | None = None

    def project(self, x):
        """The raw token rows ``x`` through each weight, in weight order."""
        x = np.asarray(x, dtype=np.float64)  # widened once, not once per weight
        if self.proj is not None:
            x = ad.matmul(x, self.proj)
        return [ad.matmul(x, w) for w in self.weights]

    def take(self, targets):
        """Each weight's rows for ``targets`` (target positions), stacked."""
        t = np.asarray(targets)
        index = self.rows[_ranges(self.offsets[t], self.offsets[t + 1] - self.offsets[t])]
        if self.weights is None:
            return [np.take(p, index, axis=0) for p in self.stack]
        return self.project(np.take(self.stack, index, axis=0))


@dataclass
class BranchInputs:
    """What a spot or context branch reads: the ``Read`` of its query, guide
    a and guide b, and ``block``, its ``ModelParams.block`` dict."""

    block: dict
    reads: tuple


def branch_inputs(dataset, params, config, scope, members):
    """What the ``scope`` ("spot" or "ctx") branch reads, and its weights.

    ``members[i]`` holds the spots whose ``scope`` tokens, concatenated in
    order, form target i's sequence: the spot itself, or its present window
    members in row-major order. Edge and nuclei guide the image tokens
    unless ablated. Each read stream of width c feeds k block weights W of
    width d = ``d_model`` (k = 1 for the query, 2 for keys and values)
    through its (c, d) projection W_p, and its plan follows the cost of a
    row use:

    - folded, X (W_p W): k c d multiply-adds, and no projected row is kept;
    - unfolded, (X W_p) W: c d + k d^2, cheaper where c > k d / (k - 1),
      that is c > 2 d for keys and values and never for the query;
    - distinct rows: without a graph, the rows that several sequences read
      (overlapping context windows, up to D^2 each) are projected once, by
      the cheaper of the two, and a use gathers k d projected floats.

    A pass that builds a graph projects per use, folded or unfolded by
    cost; both are scatter-free, as backward is X^T g on the gathered rows.
    A pass without one projects per use too, and switches to distinct rows
    where rows repeat and the cheaper per-use cost exceeds ``GATHER_MACS``
    multiply-adds per gathered float: where c > ``GATHER_MACS``, for any k
    once d >= ``GATHER_MACS`` / 2. Narrow streams so hold no projected stack
    and sort no rows before chunks fork. The threshold comes from whole-slide
    ``forward_slide`` on a 16x16 slide, 4 tokens a spot, D = 5, d = 64, one
    process (ms, best of 8 alternating rounds, 2 vCPUs, one BLAS thread):

    ============  ===  ===  ===  ===  ===  ===
    c             16   32   48   64   96   128
    ============  ===  ===  ===  ===  ===  ===
    per use       149  163  175  175  184  197
    distinct rows 161  167  162  156  161  162
    ============  ===  ===  ===  ===  ===  ===

    At d = 32 and d = 128 the two plans cross between c = 32 and 48 too.
    Unfolding wide keys and values cuts one training epoch on that slide
    from 709 to 579 ms at c = 256 and from 1059 to 839 ms at c = 512.
    """
    block = params.block(f"mca_{scope}")
    no_edge, no_nuclei = ((config.no_edge_spot, config.no_nuclei_spot) if scope == "spot"
                          else (config.no_edge_ctx, config.no_nuclei_ctx))
    member_spots = np.concatenate(members)
    bounds = np.cumsum([0] + [len(m) for m in members])
    d = config.d_model
    reads = []
    for stream, names in (("img", ("w_q",)),
                          ("img" if no_edge else "edge", ("w_k_a", "w_v_a")),
                          ("img" if no_nuclei else "nuc", ("w_k_b", "w_v_b"))):
        stack, offsets = dataset.token_stacks[(stream, scope)]
        counts = offsets[member_spots + 1] - offsets[member_spots]
        rows = _ranges(offsets[member_spots], counts)
        ends = np.concatenate(([0], np.cumsum(counts)))[bounds]
        proj, weights = params[f"proj.{stream}.{scope}"], [block[name] for name in names]
        c, k = stack.shape[1], len(weights)
        graph = any(w.requires_grad for w in (proj, *weights))
        if k * c * d <= c * d + k * d * d:
            read = Read(stack, rows, ends, [ad.matmul(proj, w) for w in weights])
        else:
            read = Read(stack, rows, ends, weights, proj)
        if not graph and min(k * c, c + k * d) > GATHER_MACS * k:
            used = np.unique(rows)
            if used.size < rows.size:
                read = Read([p.data for p in read.project(stack[used])],
                            np.searchsorted(used, rows), ends, None)
        reads.append(read)
    return BranchInputs(block, tuple(reads))


def guided_branch(inputs, targets, config, attn_sink=None):
    """Tokens (G*T, d) and pooled means (G, d) of one branch for G targets,
    given by their positions in the ``members`` of ``inputs``.

    The targets' q, guide-a and guide-b sequences must have equal lengths;
    each target attends only within its own sequences, gathered by row.
    """
    (q,), *guides = [read.take(targets) for read in inputs.reads]
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

    A chunk gathers its spots' token rows at once. Each attention op
    computes its weights in blocks of at most ``autodiff.ATTENTION_BLOCK``
    (see ``autodiff.attention``). A pass that builds a graph keeps an op's
    weights until backward where each spot's fit in one block, as at 4
    tokens a spot; where one spot's are larger, as at 16 tokens a spot with
    4 heads and ``d_context`` 5, backward recomputes them block by block.

    A pass that builds no graph splits its chunks between this process and
    up to ``workers - 1`` forked ones (``parallel.fork_map``), which inherit
    the branches' reads and global tokens and send back only each chunk's
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
            branches[name] = branch_inputs(dataset, params, config, name,
                                           [row[row < n] for row in dataset.windows(d)[scope]])
    # chunks hold positions in ``scope``, grouped by their sequence lengths
    lengths = [np.diff(read.offsets).tolist() for inputs in branches.values()
               for read in inputs.reads]
    groups = {}
    for position, shape in enumerate(zip(*lengths)):
        groups.setdefault(shape, []).append(position)
    chunks = [group[i:i + CHUNK_SPOTS] for group in groups.values()
              for i in range(0, len(group), CHUNK_SPOTS)]
    global_out = (None if config.drop_global
                  else BranchOutput(global_branch(dataset, params, scope), None))

    def run_chunk(chunk):
        """The chunk's fused rows, then the pooled rows of each branch."""
        outs = {name: guided_branch(inputs, chunk, config) for name, inputs in branches.items()}
        if global_out is None:
            query = BranchOutput(outs["ctx" if config.drop_spot else "spot"].pooled, None)
            rows = range(len(chunk))
        else:
            query, rows = global_out, chunk
        return [fuse(outs.get("spot"), outs.get("ctx"), query, rows, params, config),
                *(out.pooled for out in outs.values())]

    if (any(tensor.requires_grad for _, tensor in params.named())
            or any(hasattr(fn, "__wrapped__") for fn in (guided_branch, fuse))):
        parts = [run_chunk(chunk) for chunk in chunks]
    else:
        parts = fork_map(lambda chunk: [t.data for t in run_chunk(chunk)], chunks, workers)

    row_of = {s: r for r, s in enumerate(scope)}
    rank = {p: r for r, p in enumerate(p for chunk in chunks for p in chunk)}
    order = [rank[row_of[s]] for s in indices]
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
