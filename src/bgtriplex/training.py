"""Composite loss, Adam with step-decayed learning rate, and cross-validation.

Each branch is trained against a convex combination of the true label
and the (detached) fused prediction; the total objective is the fused
MSE plus the per-branch terms. Batches are target spots; the gradient of
a step is the mean of per-spot totals over the batch, taken as one loss
over each slide's stacked predictions. A step splits its spots into two
parts of near-equal attention cost and sums the parts' gradients, so the
second part can run in a forked partner process at the same time. A
fold's weights and Adam moments are flat rows of one map, so its training
can stop after any step and go on in another process that maps them.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import functools
import itertools
import math
import mmap
import os
import select
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .data import log1p_normalize, select_top_k_genes
from .errors import NumericsError
from .metrics import evaluate_predictions
from .model import (ModelParams, build_tables, check_field_types, forward_batch, forward_slide,
                    parameter_shapes)
from .parallel import Partner, default_workers
from .seeding import substream

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# The time to predict and score one held-out spot over the time to train on
# one: 0.256-0.265 with the default model on 8x8 slides (64 genes, D = 5,
# one process and one BLAS thread).
HELD_OUT_COST = 0.26


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


def adam_step(rows, t, lr):
    """Adam's bias-corrected update number ``t`` (from 1), in place over
    flat rows: ``rows[0]`` the weights, ``rows[1]`` and ``rows[2]`` the
    moments, ``rows[3]`` the gradient (zero for a parameter without one,
    which moves on its moment history) and ``rows[4]`` scratch; the last
    two are overwritten. Each entry takes the per-tensor update's
    operations in its order, so the bytes are the same."""
    weights, m, v, grad, scratch = rows
    correction1 = 1.0 - ADAM_BETA1 ** t
    correction2 = 1.0 - ADAM_BETA2 ** t
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=scratch)
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=scratch)
    v += np.multiply(scratch, grad, out=scratch)
    step = np.divide(m, correction1, out=grad)
    step *= lr
    np.divide(v, correction2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    step /= scratch
    weights -= step


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


# Rows of a fold's map: its weights and Adam moments, which are its whole
# numeric state, then the gradients of a step's parts 0 and 1.
ROWS = 5


@dataclass
class _Place:
    """Where a fold's training stands between steps, beside its rows: the
    steps taken (one Adam update each), the shuffle generator as it stood
    before the current epoch's shuffle, and the epoch's loss sums. Its size
    grows with neither the spots nor the epochs, so a cut fold's place
    always fits in the pipe to the worker that goes on with it."""

    shuffle: np.random.Generator
    step: int = 0
    sums: dict = field(default_factory=dict)
    seen: int = 0


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
    this one computes part 0. The weights, the Adam moments and the two
    parts' gradients are flat rows of one shared anonymous map, so the
    partner reads the weights that this process's Adam step updates in
    place; only spot lists and loss values cross the pipe. The slides' grid
    windows are built before the fork. With one worker, where the platform
    cannot fork, or where ``forward_batch`` or ``loss_total`` has been
    wrapped here (by a tracer or a test double), both parts run in turn in
    this process. The tensors of ``params`` keep their arrays, and no
    gradient is left on them.
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

    named = params.named()
    originals = [tensor.data for _, tensor in named]
    # shared with a partner, private (and cheaper to map) without one
    size = ROWS * 8 * sum(a.size for a in originals)
    buffer = mmap.mmap(-1, size) if workers > 1 else bytearray(size)
    rows = np.frombuffer(buffer, dtype=np.float64).reshape(ROWS, -1)
    _bind(params, rows[0], load=True)
    place = _Place(substream(cfg.seed, "shuffle"))
    steps = cfg.epochs * len(_batches(sum(ds.n_spots for ds in datasets), cfg.batch_size))
    try:
        return _run_steps(datasets, targets, params, cfg, rows, place, steps, workers > 1,
                          progress)
    finally:
        for (_, tensor), original in zip(named, originals):
            original[...] = tensor.data
            tensor.data = original
        params.zero_grad()


def _run_steps(datasets, targets, params, cfg, rows, place, stop, fork=False, progress=None):
    """Take training steps ``place.step`` up to ``stop``, updating ``place``;
    returns the stats of the epochs that end among them.

    ``rows`` is a fold's (ROWS, n) map; the tensors of ``params`` view its
    weights (``_bind``). A step reads and writes nothing else, so a run
    cut at any step goes on, in any process bound to the same rows, with
    the bytes of one that was not. With ``fork`` a ``Partner`` computes
    each step's part 1 (see ``train``).
    """
    named = params.named()
    slots = [_views(row, [tensor.data for _, tensor in named]) for row in rows[3:]]
    costs = [_spot_costs(ds, params.config, cfg.d_context) for ds in datasets]
    pool = [(d, s) for d in range(len(datasets)) for s in range(datasets[d].n_spots)]
    batches = len(_batches(len(pool), cfg.batch_size))

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
        _store_gradients(named, slots[slot])
        return values

    log, order = [], None
    with Partner(run_part, fork=fork) as partner:
        while place.step < stop:
            epoch, b = divmod(place.step, batches)
            if b == 0:
                place.sums = dict.fromkeys(("total", "fused", "spot", "ctx", "global"), 0.0)
                place.seen = 0
            if b == 0 or order is None:
                # a run cut inside an epoch draws its order again from the
                # generator as it stood before the epoch's shuffle
                shuffle = copy.deepcopy(place.shuffle)
                order = list(pool)
                shuffle.shuffle(order)
            lr = lr_at(epoch, cfg)
            batch = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            own, other = _split(batch, costs)
            partner.send(other, len(batch), 1)
            values = run_part(own, len(batch), 0) + partner.receive()
            for count, total, terms in values:
                place.sums["total"] += total * count
                for name, term in terms.items():
                    place.sums[name] += term * count
                place.seen += count
            _check_finite(params, sum(total for _, total, _ in values))
            np.add(rows[3], rows[4], out=rows[3])
            for (_, tensor), grad in zip(named, slots[0]):
                tensor.grad = grad
            if cfg.grad_clip is not None:
                _clip_gradients(named, cfg.grad_clip)
            adam_step(rows, place.step + 1, lr)
            place.step += 1
            if b == batches - 1:
                place.shuffle = shuffle
                sums, seen = place.sums, place.seen
                stats = EpochStats(epoch, lr, sums["total"] / seen, sums["fused"] / seen,
                                   sums["spot"] / seen, sums["ctx"] / seen,
                                   sums["global"] / seen)
                log.append(stats)
                if progress is not None:
                    progress(stats)
    return log


def _batches(n_spots, batch_size):
    """The spot counts of one epoch's batches over ``n_spots`` spots."""
    return [min(batch_size, n_spots - start) for start in range(0, n_spots, batch_size)]


def _bind(params, row, load):
    """Point each tensor of ``params`` at its view of the flat ``row``; with
    ``load``, copy the tensor's values in first."""
    named = params.named()
    for (_, tensor), view in zip(named, _views(row, [tensor.data for _, tensor in named])):
        if load:
            view[...] = tensor.data
        tensor.data = view


def _store_gradients(named, views):
    """Copy each tensor's gradient into its view of a gradient row, zeros
    where it has none."""
    for (name, tensor), view in zip(named, views):
        if tensor.grad is None:
            view[...] = 0.0
        elif tensor.grad.shape != view.shape:
            raise ValueError(f"{name}: gradient shape {tensor.grad.shape} != "
                             f"parameter {view.shape}")
        else:
            view[...] = tensor.grad


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

    The folds' training steps, each fold's held-out pass costed with its
    last step (``_fold_costs``), are dealt out by ``_plan`` to ``min(workers,
    folds)`` partner processes forked from this one, since training is
    Python code that threads could not run in parallel; this process
    computes none. A fold cut in two keeps its weights and Adam moments in
    its rows of one anonymous map shared before the fork, and only its
    ``_Place`` passes through here, so this process never holds them. Each
    fold trains with one worker, and a step reads nothing but its place
    and rows, so every output equals that of ``workers=1``. The slides'
    grid windows are built before the fork. A failing fold's exception is
    raised once every fold before it has its report, so the lowest-index
    failing fold's is raised, as with one worker; every worker has been
    killed and reaped before it leaves. With one worker,
    where the platform cannot fork, or where a fold function has been
    wrapped here (by a tracer or a test double, whose records from a
    forked fold would stay in the worker), the folds run in turn in this
    process, one ``train`` call each.
    """
    if len(datasets) < 2:
        raise ValueError("leave-one-slide-out needs at least 2 slides")
    targets, indices, names = gene_targets(datasets, cfg.k_genes)
    if make_params is None:
        make_params = lambda: ModelParams(model_config, k_genes=len(indices), seed=cfg.seed)
    for ds in datasets:
        build_tables(ds, cfg.d_context)
    if (not hasattr(os, "fork")
            or any(hasattr(fn, "__wrapped__") for fn in (train, forward_slide,
                                                           evaluate_predictions))):
        workers = 1
    folds = range(len(datasets))
    step_costs = _fold_costs(datasets, cfg)
    plan = _plan(step_costs, workers)
    cut = sorted(held for pieces in plan for held, start, _ in pieces if start > 0)
    rows = {}
    if cut:
        width = sum(math.prod(shape)
                    for shape in parameter_shapes(model_config, len(indices)).values())
        shared = np.frombuffer(mmap.mmap(-1, 8 * len(cut) * ROWS * width), dtype=np.float64)
        rows = dict(zip(cut, shared.reshape(len(cut), ROWS, width)))

    def run_fold(held, stop, place=None):
        """Fold ``held`` from ``place`` (its start where None) to step
        ``stop``: the fold's report after its last step, else its place."""
        train_ids = [i for i in folds if i != held]
        train_sets = [datasets[i] for i in train_ids]
        train_targets = [targets[i] for i in train_ids]
        params = make_params()
        if held in rows:
            _bind(params, rows[held][0], load=place is None)
            if place is None:
                place = _Place(substream(cfg.seed, "shuffle"))
            _run_steps(train_sets, train_targets, params, cfg, rows[held], place, stop)
            if stop < len(step_costs[held]):
                return place
        else:
            train(train_sets, params, cfg, targets=train_targets, workers=1)
        pred = forward_slide(datasets[held], params, model_config, cfg.d_context)["fused"]
        return evaluate_predictions(pred, targets[held], names, selector=pcch_selector)

    if len(plan) < 2:
        fold_reports = [run_fold(held, len(step_costs[held])) for held in folds]
    else:
        fold_reports = _deal(run_fold, plan, [len(costs) for costs in step_costs])
    aggregate = {}
    for metric in ("mse", "pcc_m", "pcc_h"):
        values = np.array([getattr(r, metric) for r in fold_reports], dtype=np.float64)
        sd = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        aggregate[metric] = (float(values.mean()), sd)
    return fold_reports, aggregate


def _fold_costs(datasets, cfg):
    """Each fold's step costs in training spots: its batches' spot counts,
    the last one plus its held-out pass, ``HELD_OUT_COST`` per held-out
    spot, which runs after the fold's last step on the same worker."""
    spots = sum(ds.n_spots for ds in datasets)
    costs = [_batches(spots - ds.n_spots, cfg.batch_size) * cfg.epochs for ds in datasets]
    for steps, ds in zip(costs, datasets):
        if steps:
            steps[-1] += HELD_OUT_COST * ds.n_spots
    return costs


def _plan(step_costs, workers):
    """Each worker's pieces of the folds whose steps cost ``step_costs``:
    lists of (fold, start, stop) step ranges in run order, by McNaughton's
    wrap-around rule.

    With no more folds than workers each fold runs whole on its own
    worker. Otherwise the folds, in order, fill each worker up to its
    share, max(longest fold, total / workers). The fold that overflows a
    share is cut at the step boundary that ends the worker nearest it, the
    later on a tie: its first steps start the next worker and the rest end
    this one. So no fold is cut twice, and every worker ends within a step
    of its share. Workers left without a piece are dropped.
    """
    n = min(workers, len(step_costs))
    if len(step_costs) <= n:
        return [[(fold, 0, len(costs))] for fold, costs in enumerate(step_costs)]
    totals = [sum(costs) for costs in step_costs]
    share = max(n * max(totals), sum(totals))   # n times a worker's share
    plan, w, done = [[] for _ in range(n)], 0, 0  # done: n times the cost dealt out
    for fold, costs in enumerate(step_costs):
        end = (w + 1) * share
        last = len(costs)
        if done + n * totals[fold] <= end:
            plan[w].append((fold, 0, last))
        else:
            # where worker w ends if it runs the steps from k on
            ends = [done + n * (totals[fold] - before)
                    for before in itertools.accumulate(costs, initial=0)]
            k = min(reversed(range(last + 1)), key=lambda i: abs(ends[i] - end))
            if 0 < k < last:
                plan[w].append((fold, k, last))
                plan[w + 1].append((fold, 0, k))
            else:
                plan[w + (k == last)].append((fold, 0, last))
            w += 1
        done += n * totals[fold]
    return [pieces for pieces in plan if pieces]


def _deal(run_fold, plan, steps):
    """Fold reports, in fold order, of ``plan`` run by one forked
    ``Partner`` per worker calling ``run_fold(fold, stop, place)``.

    Replies are read as they come, from whichever worker answers first, so
    no worker waits with a reply for this process to read another's. A cut
    fold's second part is sent once its first part has replied with its
    place, which is small, so the send does not wait for a busy worker. A failed piece's fold sends nothing more; the exception of the
    lowest-index failing fold is raised once every fold before it has its
    report. On any exception every worker is killed, and all are reaped
    before this returns.
    """
    reports, failures = {}, {}
    with contextlib.ExitStack() as stack:
        partners = [stack.enter_context(Partner(run_fold)) for _ in plan]
        sent = [collections.deque() for _ in plan]  # (fold, stop) not yet answered
        for partner, pieces, queue in zip(partners, plan, sent):
            for fold, start, stop in pieces:
                if start == 0:
                    partner.send(fold, stop)
                    queue.append((fold, stop))
        while any(sent):
            if failures and all(fold in reports for fold in range(min(failures))):
                break
            ready, _, _ = select.select([p for p, queue in zip(partners, sent) if queue], [], [])
            for partner in ready:
                w = partners.index(partner)
                fold, stop = sent[w].popleft()
                try:
                    reply = partner.receive()
                except Exception as exc:  # raised below if no lower fold fails
                    failures[fold] = exc
                    continue
                if stop < steps[fold]:  # a first part, whose second part ends worker w - 1
                    partners[w - 1].send(fold, steps[fold], reply)
                    sent[w - 1].append((fold, steps[fold]))
                else:
                    reports[fold] = reply
        if failures:
            raise failures[min(failures)]
    return [reports[fold] for fold in range(len(steps))]
