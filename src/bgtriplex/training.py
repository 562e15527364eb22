"""Composite loss, Adam with step-decayed learning rate, and cross-validation.

Each branch is trained against a convex combination of the true label
and the (detached) fused prediction; the total objective is the fused
MSE plus the per-branch terms. Batches are target spots; the gradient of
a step is the mean of per-spot totals over the batch, taken as one loss
over each slide's stacked predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import log1p_normalize, select_top_k_genes
from .errors import NumericsError
from .metrics import evaluate_predictions
from .model import forward_batch, forward_slide
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
        if tensor.grad is not None and not np.isfinite(tensor.grad).all():
            raise NumericsError(f"non-finite loss; gradient of {name} has diverged")
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


def train(datasets, params, cfg, targets=None, progress=None):
    """Optimize ``params`` in place over the given slides.

    Returns the per-epoch loss log. ``targets`` (per-slide label
    matrices) may be precomputed via ``gene_targets``; otherwise they
    are derived here with ``cfg.k_genes``.
    """
    if not isinstance(datasets, (list, tuple)):
        datasets = [datasets]
    if targets is None:
        targets, _, _ = gene_targets(datasets, cfg.k_genes)
    for ds, t in zip(datasets, targets):
        if t.shape != (ds.n_spots, params.k_genes):
            raise ValueError(f"target matrix {t.shape} does not match slide "
                             f"({ds.n_spots} spots, {params.k_genes} genes)")

    state = AdamState()
    shuffle = substream(cfg.seed, "shuffle")
    spot_pool = [(d, s) for d in range(len(datasets)) for s in range(datasets[d].n_spots)]
    log = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = list(spot_pool)
        shuffle.shuffle(order)
        sums = {"total": 0.0, "fused": 0.0, "spot": 0.0, "ctx": 0.0, "global": 0.0}
        seen = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            params.zero_grad()
            batch_loss = None
            for d_idx, spots in _group_by_slide(batch):
                preds = forward_batch(datasets[d_idx], params, params.config, cfg.d_context,
                                      spot_indices=spots)
                total, terms = loss_total(preds, targets[d_idx][spots], cfg.lambda_,
                                          detach_fused=cfg.distill_detach)
                share = ad.mul(total, len(spots) / len(batch))
                batch_loss = share if batch_loss is None else ad.add(batch_loss, share)
                sums["total"] += total.item() * len(spots)
                for name, term in terms.items():
                    sums[name] += term.item() * len(spots)
                seen += len(spots)
            _check_finite(params, batch_loss.item())
            batch_loss.backward()
            if cfg.grad_clip is not None:
                _clip_gradients(params.named(), cfg.grad_clip)
            adam_step(params.named(), state, lr)
        stats = EpochStats(epoch, lr, sums["total"] / seen, sums["fused"] / seen,
                           sums["spot"] / seen, sums["ctx"] / seen, sums["global"] / seen)
        log.append(stats)
        if progress is not None:
            progress(stats)
    return log


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
                   progress=None, workers=1):
    """Leave-one-slide-out cross-validation.

    Fold i trains fresh parameters on every slide but slide i and
    evaluates on slide i. Folds share nothing, so ``workers`` may run
    them concurrently without changing any output. Returns (per-fold
    reports, aggregate mean/sd over folds).
    """
    # imported here, not at module level, so commands other than cv do not
    # load it (about 0.5 MB of resident memory)
    from concurrent.futures import ThreadPoolExecutor

    from .model import ModelParams

    if len(datasets) < 2:
        raise ValueError("leave-one-slide-out needs at least 2 slides")
    targets, indices, names = gene_targets(datasets, cfg.k_genes)
    if make_params is None:
        make_params = lambda: ModelParams(model_config, k_genes=len(indices), seed=cfg.seed)

    def run_fold(held):
        train_ids = [i for i in range(len(datasets)) if i != held]
        params = make_params()
        train([datasets[i] for i in train_ids], params, cfg,
              targets=[targets[i] for i in train_ids], progress=progress)
        pred = forward_slide(datasets[held], params, model_config, cfg.d_context)["fused"]
        return evaluate_predictions(pred, targets[held], names, selector=pcch_selector)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        fold_reports = list(pool.map(run_fold, range(len(datasets))))
    aggregate = {}
    for metric in ("mse", "pcc_m", "pcc_h"):
        values = np.array([getattr(r, metric) for r in fold_reports], dtype=np.float64)
        sd = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        aggregate[metric] = (float(values.mean()), sd)
    return fold_reports, aggregate
