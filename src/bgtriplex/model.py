"""The boundary-guided three-branch network.

A spot branch and an in-context branch run multi-head cross-attention in
which edge and nuclei token streams guide the image stream; a global
branch position-encodes one pooled image token per spot over the slide
grid. Each spot's branch outputs are fused by the same cross-attention
block, with that spot's global token as the query, and linear heads map
pooled tokens to per-gene predictions.

A forward pass projects only the feature bundles it reads, so the cost
per spot does not grow with the slide. Inference (``forward_slide``)
runs on detached weights and builds no autodiff graph.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .features import STREAMS, TOY_STREAM_DIMS, feature_transform
from .seeding import substream

MCA_BLOCKS = ("mca_spot", "mca_ctx", "mca_fuse")
MCA_WEIGHTS = ("w_q", "w_k_a", "w_v_a", "w_k_b", "w_v_b")


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


@dataclass
class McaParams:
    """One guiding block: five packed (d, d) projections plus its LayerNorm.

    Head h owns columns h*d_head:(h+1)*d_head of every projection.
    """

    w_q: Tensor
    w_k_a: Tensor
    w_v_a: Tensor
    w_k_b: Tensor
    w_v_b: Tensor
    gamma: Tensor
    beta: Tensor


@dataclass
class BranchOutput:
    tokens: Tensor
    pooled: Tensor | None
    prediction: Tensor | None


def _uniform(rng, fan_in, shape):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _param(values):
    return Tensor(values, requires_grad=True)


class ModelParams:
    """All learned weights, registered in a fixed, documented order.

    ``named()`` lists the trainable tensors: six stream projections, the
    three guiding blocks (spot, ctx, fuse; each its five packed
    projections, then gamma and beta), the position-encoder kernel, then
    the four prediction heads (fused, spot, ctx, global), each weight then
    bias. ``records()`` is the same list with every block's packed
    projections split into per-head column blocks, head by head and, per
    head, in ``MCA_WEIGHTS`` order. That is the initialization draw order
    and the checkpoint record order.
    """

    def __init__(self, config, k_genes, seed=0):
        self.config = config
        self.k_genes = int(k_genes)
        rng = substream(seed, "init")
        d = config.d_model
        self.proj = {}
        for scope in ("spot", "ctx"):
            for stream in STREAMS:
                c = config.stream_dims[stream]
                self.proj[(stream, scope)] = _param(_uniform(rng, c, (c, d)))
        self.mca_spot = self._init_mca(rng, config)
        self.mca_ctx = self._init_mca(rng, config)
        self.mca_fuse = self._init_mca(rng, config)
        self.apeg_kernel = _param(np.zeros((3, 3, d)))
        self.heads = {}
        for name in ("fused", "spot", "ctx", "global"):
            w = _param(_uniform(rng, d, (d, self.k_genes)))
            b = _param(np.zeros((1, self.k_genes)))
            self.heads[name] = (w, b)

    @staticmethod
    def _init_mca(rng, config):
        d, dh = config.d_model, config.d_head
        packed = {name: np.empty((d, d)) for name in MCA_WEIGHTS}
        for h in range(config.n_heads):
            for name in MCA_WEIGHTS:
                packed[name][:, h * dh:(h + 1) * dh] = _uniform(rng, d, (d, dh))
        return McaParams(gamma=_param(np.ones(d)), beta=_param(np.zeros(d)),
                         **{name: _param(values) for name, values in packed.items()})

    def named(self):
        items = []
        for scope in ("spot", "ctx"):
            for stream in STREAMS:
                items.append((f"proj.{stream}.{scope}", self.proj[(stream, scope)]))
        for label in MCA_BLOCKS:
            block = getattr(self, label)
            for name in MCA_WEIGHTS + ("gamma", "beta"):
                items.append((f"{label}.{name}", getattr(block, name)))
        items.append(("apeg.kernel", self.apeg_kernel))
        for name in ("fused", "spot", "ctx", "global"):
            w, b = self.heads[name]
            items.append((f"head.{name}.w", w))
            items.append((f"head.{name}.b", b))
        return items

    def records(self):
        """(name, array) in record order; head blocks are writable column views."""
        dh = self.config.d_head
        items = []
        for name, tensor in self.named():
            label, _, leaf = name.partition(".")
            if leaf not in MCA_WEIGHTS:
                items.append((name, tensor.data))
            elif leaf == MCA_WEIGHTS[0]:
                block = getattr(self, label)
                for h in range(self.config.n_heads):
                    for weight in MCA_WEIGHTS:
                        items.append((f"{label}.h{h}.{weight}",
                                      getattr(block, weight).data[:, h * dh:(h + 1) * dh]))
        return items

    def zero_grad(self):
        for _, tensor in self.named():
            tensor.zero_grad()

    def detached(self):
        """A view of these weights that records no graph: every tensor
        shares its array, but none requires a gradient."""
        view = copy.copy(self)
        view.proj = {key: tensor.detach() for key, tensor in self.proj.items()}
        for label in MCA_BLOCKS:
            block = getattr(self, label)
            setattr(view, label, replace(block, **{f.name: getattr(block, f.name).detach()
                                                   for f in fields(block)}))
        view.apeg_kernel = self.apeg_kernel.detach()
        view.heads = {name: (w.detach(), b.detach()) for name, (w, b) in self.heads.items()}
        return view


def mca(guide_a, query, guide_b, block, config, attn_sink=None):
    """Multi-head cross-attention guiding ``query`` by two token streams.

    Each head attends from the query to guide a and to guide b with one
    shared query projection; the two head-concatenated streams are summed
    and layer-normalized, so the output has the query's shape.
    ``attn_sink``, when given, receives one (T, S) weight matrix per head
    for stream a, then one per head for stream b.
    """
    q = ad.matmul(query, block.w_q)
    phi_a = ad.attention(q, ad.matmul(guide_a, block.w_k_a), ad.matmul(guide_a, block.w_v_a),
                         config.n_heads, attn_sink=attn_sink)
    phi_b = ad.attention(q, ad.matmul(guide_b, block.w_k_b), ad.matmul(guide_b, block.w_v_b),
                         config.n_heads, attn_sink=attn_sink)
    return ad.layer_norm(ad.add(phi_a, phi_b), block.gamma, block.beta, config.eps)


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
        if tokens.requires_grad:
            tokens._accumulate(g)
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
            tokens._accumulate(d_padded[ri, ci])

    return ad.compose(tokens.data + gathered, (tokens, kernel), backward)


def _head_apply(params, name, pooled):
    w, b = params.heads[name]
    return ad.add(ad.matmul(pooled, w), b)


def project_bundle(bundle, params, scope):
    return {stream: feature_transform(tokens, params.proj[(stream, scope)])
            for stream, tokens in bundle.streams()}


def spot_branch(projected, params, config, attn_sink=None):
    """Guided block over one spot's token streams plus its pooled prediction."""
    image = projected["img"]
    guide_a = image if config.no_edge_spot else projected["edge"]
    guide_b = image if config.no_nuclei_spot else projected["nuc"]
    tokens = mca(guide_a, image, guide_b, params.mca_spot, config, attn_sink=attn_sink)
    pooled = ad.mean_rows(tokens)
    return BranchOutput(tokens, pooled, _head_apply(params, "spot", pooled))


def context_branch(window, projected_ctx, params, config, attn_sink=None):
    """Guided block over the token streams of the window's present members,
    concatenated in row-major window order; absent cells contribute no rows."""
    members = [i for row in window.member_indices for i in row if i is not None]
    if not members:
        raise ValueError("context window has no present member")
    sequences = {stream: ad.concat_rows([projected_ctx[i][stream] for i in members])
                 for stream in STREAMS}
    image = sequences["img"]
    guide_a = image if config.no_edge_ctx else sequences["edge"]
    guide_b = image if config.no_nuclei_ctx else sequences["nuc"]
    tokens = mca(guide_a, image, guide_b, params.mca_ctx, config, attn_sink=attn_sink)
    pooled = ad.mean_rows(tokens)
    return BranchOutput(tokens, pooled, _head_apply(params, "ctx", pooled))


def global_branch(dataset_tokens, grid_positions, params):
    """Position-encode one pooled, projected image token per spot over the
    slide grid.

    The returned tokens keep one row per spot; per-spot pooling and
    prediction are row lookups performed by the caller.
    """
    tokens = apeg_encode(dataset_tokens, grid_positions, params.apeg_kernel)
    return BranchOutput(tokens, None, None)


def global_prediction(global_out, spot_index, params):
    pooled = ad.row(global_out.tokens, spot_index)
    return _head_apply(params, "global", pooled)


def fuse(spot_out, ctx_out, global_out, target_spot_index, params, config, attn_sink=None):
    """Fuse one spot's branches; the query is its row of the global tokens.

    The query is the single row ``target_spot_index`` of
    ``global_out.tokens``, so the attention weights ``attn_sink`` receives
    are (1, S). A dropped guide branch is replaced by the whole global
    token stream, mirroring the guidance ablations. Returns the fused
    prediction for the target spot.
    """
    stream = global_out.tokens
    query = ad.row(stream, target_spot_index)
    guide_a = stream if config.drop_spot else spot_out.tokens
    guide_b = stream if config.drop_ctx else ctx_out.tokens
    fused = mca(guide_a, query, guide_b, params.mca_fuse, config, attn_sink=attn_sink)
    return _head_apply(params, "fused", fused)


def slide_forward(dataset, params, config, d_context, spot_indices=None):
    """Differentiable forward pass; returns (spot, {branch: prediction}) pairs.

    A call projects only what it reads, each bundle once: the spot-scope
    bundles of the requested spots and the context-scope bundles of their
    window members. The global tokens are the slide's pooled raw image
    tokens times the (linear, bias-free) spot-scope image projection,
    position-encoded. Each spot is fused from its own global row. With
    ``drop_global`` the global stream is the stack of pooled spot-branch
    (or, failing that, context-branch) tokens; when it also replaces a
    dropped guide, that branch runs on every spot.
    """
    from .data import context_window

    n = dataset.n_spots
    indices = list(range(n)) if spot_indices is None else list(spot_indices)
    if not all(0 <= s < n for s in indices):
        raise ValueError(f"spot indices must lie in [0, {n})")
    spot_scope = range(n) if config.drop_global and config.drop_ctx else indices
    ctx_scope = range(n) if config.drop_global and config.drop_spot else indices

    spot_outs = {}
    if not config.drop_spot:
        spot_outs = {s: spot_branch(project_bundle(dataset.features[s], params, "spot"),
                                    params, config)
                     for s in dict.fromkeys(spot_scope)}
    ctx_outs = {}
    if not config.drop_ctx:
        windows = {s: context_window(dataset.spots, s, d_context, dataset.grid_index)
                   for s in dict.fromkeys(ctx_scope)}
        members = dict.fromkeys(i for w in windows.values()
                                for row in w.member_indices for i in row if i is not None)
        proj_ctx = {i: project_bundle(dataset.features_ctx[i], params, "ctx") for i in members}
        ctx_outs = {s: context_branch(w, proj_ctx, params, config) for s, w in windows.items()}

    if config.drop_global:
        source = ctx_outs if config.drop_spot else spot_outs
        row_of = {s: k for k, s in enumerate(source)}
        global_out = BranchOutput(ad.concat_rows([out.pooled for out in source.values()]),
                                  None, None)
    else:
        row_of = range(n)
        pooled = ad.matmul(dataset.pooled_image_tokens, params.proj[("img", "spot")])
        global_out = global_branch(pooled, dataset.grid_positions(), params)

    results = []
    for s in indices:
        preds = {}
        if not config.drop_spot:
            preds["spot"] = spot_outs[s].prediction
        if not config.drop_ctx:
            preds["ctx"] = ctx_outs[s].prediction
        if not config.drop_global:
            preds["global"] = global_prediction(global_out, s, params)
        preds["fused"] = fuse(spot_outs.get(s), ctx_outs.get(s), global_out, row_of[s],
                              params, config)
        results.append((s, preds))
    return results


def forward_slide(dataset, params, config, d_context):
    """Whole-slide forward pass returning numpy prediction matrices.

    It runs on ``params.detached()``, so it builds no graph and leaves
    every gradient buffer untouched.
    """
    results = slide_forward(dataset, params.detached(), config, d_context)
    names = ["fused"] + [b for b in ("spot", "ctx", "global") if b in results[0][1]]
    return {name: np.vstack([preds[name].data for _, preds in results]) for name in names}
