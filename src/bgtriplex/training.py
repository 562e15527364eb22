"""Composite loss, Adam with step-decayed learning rate, and cross-validation.

Each branch is trained against a convex combination of the true label
and the (detached) fused prediction; the total objective is the fused
MSE plus the per-branch terms. Batches are target spots; the gradient of
a step is the mean of per-spot totals over the batch, taken as one loss
over each slide's stacked predictions. A step splits its spots into two
parts of near-equal attention cost and sums the parts' gradients, so the
second part can run in a forked partner process at the same time.
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .data import log1p_normalize, select_top_k_genes
from .errors import NumericsError
from .metrics import evaluate_predictions
from .model import ModelParams, build_tables, check_field_types, forward_batch, forward_slide
from .parallel import Partner, default_workers, fork_map
from .seeding import substream

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 1e-4
    step_size: int = 50
    decay: float = 0.9
    batch_size: int = 12
    epochs: int = 20
    lambda_: float = 0.3
    d_context: int = 5
    k_genes: int = 250
    seed: int = 0
    distill_detach: bool = True
    grad_clip: float | None = None

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lambda_}")
        for name in ("lr", "step_size", "decay", "batch_size", "d_context", "k_genes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.d_context % 2 == 0:
            raise ValueError(f"d_context must be odd, got {self.d_context}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be positive, got {self.grad_clip}")

    def to_dict(self):
        return asdict(self)


@dataclass
class AdamState:
    """First/second moment buffers per parameter plus the shared step count."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def _mse(a, b):
    diff = ad.add(ad.as_tensor(a), ad.mul(ad.as_tensor(b), -1.0))
    return ad.mean_all(ad.mul(diff, diff))


def loss_fused(p_f, g):
    """Mean squared error of the fused prediction against the label."""
    return _mse(p_f, g)


def loss_branch(p_i, g, p_f, lambda_, detach_fused=True):
    """(1 - lambda) * mse(p_i, g) + lambda * mse(p_i, p_f).

    With ``detach_fused`` the fused prediction is treated as a constant
    target, so the branch term never drags the fused head.
    """
    if not 0.0 <= lambda_ <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lambda_}")
    p_f = ad.as_tensor(p_f)
    if detach_fused:
        p_f = p_f.detach()
    label_term = ad.mul(_mse(p_i, g), 1.0 - lambda_)
    distill_term = ad.mul(_mse(p_i, p_f), lambda_)
    return ad.add(label_term, distill_term)


def loss_total(predictions, g, lambda_, detach_fused=True):
    """Fused MSE plus the per-branch terms for every active branch.

    ``predictions`` maps 'fused' plus any of 'spot'/'ctx'/'global' to
    prediction tensors. Each MSE averages over every entry, so over (B, k)
    stacked predictions every term is the mean of the B per-spot terms.
    Returns (total, terms): ``terms`` maps the same keys to the scalar
    tensors that were summed, in that order.
    """
    terms = {"fused": loss_fused(predictions["fused"], g)}
    total = terms["fused"]
    for branch in ("spot", "ctx", "global"):
        if branch in predictions:
            terms[branch] = loss_branch(predictions[branch], g, predictions["fused"],
                                        lambda_, detach_fused=detach_fused)
            total = ad.add(total, terms[branch])
    return total, terms


def adam_step(named_params, state, lr):
    """One bias-corrected Adam update; parameters with no gradient keep moving
    on their moment history (grad treated as zero)."""
    state.t += 1
    correction1 = 1.0 - ADAM_BETA1 ** state.t
    correction2 = 1.0 - ADAM_BETA2 ** state.t
    for name, tensor in named_params:
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if grad.shape != tensor.data.shape:
            raise ValueError(f"{name}: gradient shape {grad.shape} != parameter {tensor.data.shape}")
        m = state.m.setdefault(name, np.zeros_like(tensor.data))
        v = state.v.setdefault(name, np.zeros_like(tensor.data))
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / correction1
        v_hat = v / correction2
        tensor.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def lr_at(epoch, cfg):
    """Step-decayed learning rate: lr * decay^floor(epoch / step_size)."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    return cfg.lr * cfg.decay ** (epoch // cfg.step_size)


def _clip_gradients(named_params, max_norm):
    total = 0.0
    for _, tensor in named_params:
        if tensor.grad is not None:
            total += float((tensor.grad * tensor.grad).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for _, tensor in named_params:
            if tensor.grad is not None:
                tensor.grad *= scale


def _check_finite(params, loss_value):
    if np.isfinite(loss_value):
        return
    for name, tensor in params.named():
        if not np.isfinite(tensor.data).all():
            raise NumericsError(f"non-finite loss; parameter block {name} has diverged")
    raise NumericsError("non-finite loss with finite parameters (bad input?)")


def gene_targets(datasets, k_genes):
    """Select the top-k genes over all slides and return per-slide label
    matrices of log1p-normalized expression restricted to them."""
    norms = [log1p_normalize(ds.expr) for ds in datasets]
    genes = datasets[0].expr.genes
    for ds in datasets[1:]:
        if ds.expr.genes != genes:
            raise ValueError("all slides must share one gene list")
    stacked = np.vstack(norms)
    k = min(k_genes, stacked.shape[1])
    indices, names = select_top_k_genes(stacked, genes, k)
    return [norm[:, indices] for norm in norms], indices, names


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss_total: float
    loss_fused: float
    loss_spot: float
    loss_ctx: float
    loss_global: float


def train(datasets, params, cfg, targets=None, progress=None, workers=None):
    """Optimize ``params`` in place over the given slides.

    Returns the per-epoch loss log. ``targets`` (per-slide label
    matrices) may be precomputed via ``gene_targets``; otherwise they
    are derived here with ``cfg.k_genes``.

    Each batch's spots are split into two parts of near-equal attention
    cost (``_split``), and each part's share of the batch loss is
    backpropagated on its own. A step's gradient is part 0's plus part 1's,
    so the weights and the loss log are the same for every ``workers``.
    With two or more ``workers`` (by default ``parallel.default_workers()``)
    a partner process forked before the first step computes part 1 while
    this one computes part 0. The weights and the two parts' gradients live
    in one shared anonymous map, so the partner reads the weights that this
    process's Adam step updates in place; only spot lists and loss values
    cross the pipe. The slides' grid windows are built before the fork.
    With one worker, where the platform cannot fork, or where
    ``forward_batch`` or ``loss_total`` has been wrapped here (by a tracer
    or a test double), both parts run in turn in this process.
    """
    if not isinstance(datasets, (list, tuple)):
        datasets = [datasets]
    if targets is None:
        targets, _, _ = gene_targets(datasets, cfg.k_genes)
    for ds, t in zip(datasets, targets):
        if t.shape != (ds.n_spots, params.k_genes):
            raise ValueError(f"target matrix {t.shape} does not match slide "
                             f"({ds.n_spots} spots, {params.k_genes} genes)")
    if workers is None:
        workers = default_workers()
    if any(hasattr(fn, "__wrapped__") for fn in (forward_batch, loss_total)):
        workers = 1
    for ds in datasets:
        build_tables(ds, cfg.d_context)
    costs = [_spot_costs(ds, params.config, cfg.d_context) for ds in datasets]

    named = params.named()
    originals = [tensor.data for _, tensor in named]
    # Rows: the weights, then the gradients of parts 0 and 1; shared with
    # a partner, private (and cheaper to map) without one.
    size = 3 * 8 * sum(a.size for a in originals)
    buffer = mmap.mmap(-1, size) if workers > 1 else bytearray(size)
    shared = np.frombuffer(buffer, dtype=np.float64).reshape(3, -1)
    weights, *slots = (_views(row, originals) for row in shared)
    for (_, tensor), view in zip(named, weights):
        view[...] = tensor.data
        tensor.data = view

    def run_part(part, batch_size, slot):
        """Backpropagate ``part``'s share of the batch loss into gradient
        slot ``slot``; returns (spots, total, terms) per slide of the part.
        A non-finite loss is not backpropagated: the step raises."""
        params.zero_grad()
        shares, values = [], []
        for d_idx, spots in _group_by_slide(part):
            preds = forward_batch(datasets[d_idx], params, params.config, cfg.d_context,
                                  spot_indices=spots)
            total, terms = loss_total(preds, targets[d_idx][spots], cfg.lambda_,
                                      detach_fused=cfg.distill_detach)
            shares.append(ad.mul(total, len(spots) / batch_size))
            values.append((len(spots), total.item(),
                           {name: term.item() for name, term in terms.items()}))
        if shares and all(np.isfinite(total) for _, total, _ in values):
            functools.reduce(ad.add, shares).backward()
        for (_, tensor), view in zip(named, slots[slot]):
            view[...] = 0.0 if tensor.grad is None else tensor.grad
        return values

    state = AdamState()
    shuffle = substream(cfg.seed, "shuffle")
    spot_pool = [(d, s) for d in range(len(datasets)) for s in range(datasets[d].n_spots)]
    log = []
    try:
        with Partner(run_part, fork=workers > 1) as partner:
            for epoch in range(cfg.epochs):
                lr = lr_at(epoch, cfg)
                order = list(spot_pool)
                shuffle.shuffle(order)
                sums = {"total": 0.0, "fused": 0.0, "spot": 0.0, "ctx": 0.0, "global": 0.0}
                seen = 0
                for start in range(0, len(order), cfg.batch_size):
                    batch = order[start:start + cfg.batch_size]
                    own, other = _split(batch, costs)
                    partner.send(other, len(batch), 1)
                    values = run_part(own, len(batch), 0) + partner.receive()
                    for count, total, terms in values:
                        sums["total"] += total * count
                        for name, term in terms.items():
                            sums[name] += term * count
                        seen += count
                    _check_finite(params, sum(total for _, total, _ in values))
                    np.add(shared[1], shared[2], out=shared[1])
                    for (_, tensor), grad in zip(named, slots[0]):
                        tensor.grad = grad
                    if cfg.grad_clip is not None:
                        _clip_gradients(named, cfg.grad_clip)
                    adam_step(named, state, lr)
                stats = EpochStats(epoch, lr, sums["total"] / seen, sums["fused"] / seen,
                                   sums["spot"] / seen, sums["ctx"] / seen,
                                   sums["global"] / seen)
                log.append(stats)
                if progress is not None:
                    progress(stats)
    finally:
        for (_, tensor), original in zip(named, originals):
            original[...] = tensor.data
            tensor.data = original
    return log


def _views(flat, arrays):
    """Views of the 1-D ``flat``, laid end to end and shaped like ``arrays``."""
    ends = np.cumsum([a.size for a in arrays])
    return [part.reshape(a.shape) for part, a in zip(np.split(flat, ends[:-1]), arrays)]


def _spot_costs(dataset, config, d_context):
    """Each spot's attention cost: the squared lengths of its spot and
    context sequences (the image-token rows of its present window cells),
    summed over the branches that run."""
    cost = np.zeros(dataset.n_spots, dtype=np.int64)
    for name, d in (("spot", 1), ("ctx", d_context)):
        if not getattr(config, f"drop_{name}"):
            # one more entry, 0 rows, for the index of an empty window cell
            rows = np.append(np.diff(dataset.token_stacks[("img", name)][1]), 0)
            cost += rows[dataset.windows(d)].sum(axis=1) ** 2
    return cost.tolist()


def _split(batch, costs):
    """The batch's (slide, spot) pairs in two parts of near-equal cost, each
    in batch order. The pairs are ordered by slide, then cost, largest
    first, then batch position, and cut where the first part's cost comes
    nearest half the total, the later cut on a tie. Spots of one slide and
    one cost mostly share their sequence shapes, so a part runs them as one
    chunk and the two parts together run about as many chunks and
    ``forward_batch`` calls as the whole batch would."""
    cost = [costs[d][s] for d, s in batch]
    order = sorted(range(len(batch)), key=lambda i: (batch[i][0], -cost[i], i))
    total, before, cut = sum(cost), 0, 0
    for i in order:
        if abs(2 * (before + cost[i]) - total) > abs(2 * before - total):
            break
        before += cost[i]
        cut += 1
    return [[batch[i] for i in sorted(part)] for part in (order[:cut], order[cut:])]


def _group_by_slide(batch):
    grouped = {}
    for d_idx, s in batch:
        grouped.setdefault(d_idx, []).append(s)
    return sorted(grouped.items())


def write_loss_log(path, log):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,lr,loss_total,loss_fused,loss_spot,loss_ctx,loss_global\n")
        for row in log:
            fh.write(f"{row.epoch},{row.lr},{row.loss_total},{row.loss_fused},"
                     f"{row.loss_spot},{row.loss_ctx},{row.loss_global}\n")


def cross_validate(datasets, cfg, model_config, pcch_selector="predictive", make_params=None,
                   workers=1):
    """Leave-one-slide-out cross-validation.

    Fold i trains fresh parameters on every slide but slide i and
    evaluates on slide i. Returns (per-fold reports in fold order,
    aggregate mean/sd over folds).

    The folds are split into round-robin shares among ``min(workers,
    folds)`` processes forked from this one (``parallel.fork_map``), since
    training is Python code that threads could not run in parallel; this
    process computes none, so no fold's graph is built here. Each fold
    trains with one worker, both parts of a step in turn in its process,
    since the fold processes already fill the CPUs. The slides' grid
    windows are built here before the fork, so the workers share them.
    Only reports come back, so every output equals that of ``workers=1``.
    A worker stops at its first failing fold, and the exception of the
    lowest-index failing fold is raised here once every worker has exited.
    With one worker, or where the platform cannot fork, the folds run in
    turn in this process. So they do where a fold function has been
    wrapped in this process, by a tracer or a test double: the wrapper's
    records from a forked fold would stay in the worker.
    """
    if len(datasets) < 2:
        raise ValueError("leave-one-slide-out needs at least 2 slides")
    targets, indices, names = gene_targets(datasets, cfg.k_genes)
    if make_params is None:
        make_params = lambda: ModelParams(model_config, k_genes=len(indices), seed=cfg.seed)
    for ds in datasets:
        build_tables(ds, cfg.d_context)
    if any(hasattr(fn, "__wrapped__") for fn in (train, forward_slide, evaluate_predictions)):
        workers = 1

    def run_fold(held):
        train_ids = [i for i in range(len(datasets)) if i != held]
        params = make_params()
        train([datasets[i] for i in train_ids], params, cfg,
              targets=[targets[i] for i in train_ids], workers=1)
        pred = forward_slide(datasets[held], params, model_config, cfg.d_context)["fused"]
        return evaluate_predictions(pred, targets[held], names, selector=pcch_selector)

    fold_reports = fork_map(run_fold, range(len(datasets)), workers, caller_share=False)
    aggregate = {}
    for metric in ("mse", "pcc_m", "pcc_h"):
        values = np.array([getattr(r, metric) for r in fold_reports], dtype=np.float64)
        sd = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        aggregate[metric] = (float(values.mean()), sd)
    return fold_reports, aggregate
