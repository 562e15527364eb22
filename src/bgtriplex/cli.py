"""Operator entry point: synthesize data, train, evaluate, cross-validate,
predict and export prediction maps.

Exit codes: 0 ok, 2 usage error, 3 numeric failure, 4 artifact/format
mismatch. Every command is a pure function of its flags, input files and
seed; reruns produce byte-identical outputs.

``BGT_THREADS`` is read by ``train``, ``eval``, ``cv``, ``predict`` and
``export-map``; a value that is not a positive integer exits 2 before any
output.
"""

from __future__ import annotations

import difflib
import functools
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import click
import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import load_dataset, log1p_normalize, save_dataset, synth_dataset
from .errors import FormatError, NumericsError, ParseError, ShapeError
from .features import STREAMS
from .metrics import evaluate_predictions, export_prediction_map, write_report
from .model import ModelConfig, ModelParams, forward_slide
from .parallel import default_workers
from .training import (TrainConfig, cross_validate, gene_targets, train,
                       write_loss_log)

# The config document's string entries; the flags of the same name offer these choices.
CHOICES = {"pcch_selector": ("predictive", "expressed")}
# The run.json that train writes is a valid config; its results are ignored.
RUN_RESULT_KEYS = ("final_loss_total", "train_pcc_m")


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (FormatError, ParseError, ShapeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        except NumericsError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:
            raise click.UsageError(str(exc))

    return wrapper


@click.group()
@click.version_option(package_name="bgtriplex")
def main():
    """Boundary-guided three-branch gene expression prediction.

    A slide is a manifest naming its spot table, expression table and
    BGFT feature files, <spot_id>.<img|edge|nuc>.<spot|ctx>.bgft, where a
    missing ctx file means the spot-scope tokens. A missing, malformed or
    non-finite input exits 4 before any output.

    BGT_THREADS sets how many processes split the whole-slide passes of
    eval, predict, export-map and train's closing PCC(M), and the training
    steps of cv's folds. With 2 or more, train also computes the two
    halves of each step's gradient at once, the second in one forked
    partner process. By default
    it is the number of CPUs this process may run on over the threads each
    process's BLAS starts: one per CPU unless OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS or OMP_NUM_THREADS sets fewer.
    A larger value oversubscribes the CPUs: with none of those set,
    BGT_THREADS=2 on 2 CPUs ran predict on a 20x20 slide in 0.38 s, against
    0.27 s with 1. Outputs are the same for every value.
    """


def _config_options(fn):
    decorators = [
        click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                     help="JSON config file; flags override its values."),
        click.option("--seed", type=int, default=None),
        click.option("--lr", type=float, default=None),
        click.option("--epochs", type=int, default=None),
        click.option("--batch-size", type=int, default=None),
        click.option("--lambda", "lambda_", type=float, default=None),
        click.option("--d-context", type=int, default=None),
        click.option("--k-genes", type=int, default=None),
        click.option("--grad-clip", type=float, default=None),
        click.option("--distill-detach/--no-distill-detach", default=None),
        click.option("--d-model", type=int, default=None),
        click.option("--n-heads", type=int, default=None),
        click.option("--drop-spot", is_flag=True, default=None,
                     help="Drop the spot branch; it has no part in fusion. Cannot be combined "
                          "with --drop-ctx."),
        click.option("--drop-ctx", is_flag=True, default=None,
                     help="Drop the context branch; it has no part in fusion. Cannot be "
                          "combined with --drop-spot."),
        click.option("--drop-global", is_flag=True, default=None,
                     help="Drop the global branch; the pooled spot-branch token (context-branch "
                          "with --drop-spot) is the fusion query."),
        click.option("--no-edge-spot", is_flag=True, default=None,
                     help="In the spot branch, image tokens guide themselves in place "
                          "of edge tokens."),
        click.option("--no-nuclei-spot", is_flag=True, default=None,
                     help="In the spot branch, image tokens guide themselves in place "
                          "of nuclei tokens."),
        click.option("--no-edge-ctx", is_flag=True, default=None,
                     help="In the context branch, image tokens guide themselves in place "
                          "of edge tokens."),
        click.option("--no-nuclei-ctx", is_flag=True, default=None,
                     help="In the context branch, image tokens guide themselves in place "
                          "of nuclei tokens."),
    ]
    for opt in reversed(decorators):
        fn = opt(fn)
    return fn


def _build_config(config_path, overrides):
    """(train config, model config, document). A config file holds a JSON
    object: ``train`` and ``model`` objects, a ``pcch_selector`` choice and
    the ignored ``RUN_RESULT_KEYS``."""
    doc = {"train": {}, "model": {}, "pcch_selector": "predictive"}
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise click.UsageError(f"{config_path}: a config must be a JSON object")
        unknown = sorted(set(loaded) - set(doc) - set(RUN_RESULT_KEYS))
        if unknown:
            raise click.UsageError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in loaded.items():
            if key in ("train", "model") and not isinstance(value, dict):
                raise click.UsageError(f"config {key!r} must be a JSON object")
            if key in CHOICES and value not in CHOICES[key]:
                raise click.UsageError(f"config {key} must be one of {', '.join(CHOICES[key])}, "
                                       f"got {value!r}")
        doc.update(loaded)
    train_names = {f.name for f in fields(TrainConfig)}
    for key, value in overrides.items():
        if value is not None:
            doc["train" if key in train_names else "model"][key] = value
    try:
        return TrainConfig(**doc["train"]), ModelConfig.from_dict(doc["model"]), doc
    except TypeError as exc:  # an unknown train key or a value of the wrong type
        raise click.UsageError(f"bad config: {exc}") from None


def _load_slides(manifests, model_cfg, doc):
    """Load every slide and fit ``model_cfg.stream_dims`` to the feature widths.

    Unset widths are taken from the first slide; every slide must then have
    them, or the run stops before any output.
    """
    datasets = [load_dataset(m) for m in manifests]
    if "stream_dims" not in doc["model"]:
        model_cfg.stream_dims = _stream_widths(datasets[0])
    for manifest, ds in zip(manifests, datasets):
        _check_widths(manifest, ds, model_cfg.stream_dims, click.UsageError)
    return datasets


def _load_for_checkpoint(checkpoint, manifest):
    """(params, d_context, genes) of the checkpoint, and the slide; its
    feature widths must be the checkpoint's ``stream_dims`` (exit 4)."""
    params, d_context, genes = load_checkpoint(checkpoint)
    ds = load_dataset(manifest)
    _check_widths(manifest, ds, params.config.stream_dims, FormatError)
    return params, d_context, genes, ds


def _check_widths(manifest, dataset, stream_dims, error):
    """Raise ``error`` unless the slide's feature widths are ``stream_dims``."""
    widths = _stream_widths(dataset)
    if widths != stream_dims:
        raise error(f"{manifest}: feature widths {widths} do not match stream_dims {stream_dims}")


def _stream_widths(dataset):
    return {stream: dataset.token_stacks[(stream, "spot")][0].shape[1] for stream in STREAMS}


def _workers():
    """The process count ``BGT_THREADS`` sets, by default ``default_workers()``."""
    threads = os.environ.get("BGT_THREADS")
    if threads is None:
        return default_workers()
    if not threads.isdecimal() or int(threads) < 1:
        raise click.UsageError(f"BGT_THREADS must be a positive integer, got {threads!r}")
    return int(threads)


def _parent_exists(ctx, param, value):
    """Reject an output path whose directory does not exist, before any work."""
    if value is not None and not Path(value).parent.is_dir():
        raise click.BadParameter(f"directory {Path(value).parent} does not exist")
    return value


def _echo_header(command, train_cfg, model_cfg, extra=None):
    doc = {"command": command, "train": train_cfg.to_dict(), "model": model_cfg.to_dict()}
    if extra:
        doc.update(extra)
    click.echo(json.dumps(doc, sort_keys=True))


@main.command()
@click.option("--rows", type=click.IntRange(min=1), required=True)
@click.option("--cols", type=click.IntRange(min=1), required=True)
@click.option("--genes", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--noise-sd", type=click.FloatRange(min=0.0), default=0.05, show_default=True)
@click.option("--seed", type=int, default=13, show_default=True)
@click.option("--slide-id", default="synth", show_default=True)
@click.option("--grid-tokens", type=click.Choice(["1", "4", "9", "16", "49"]), default="4",
              show_default=True)
@click.option("-o", "--out-dir", type=click.Path(), required=True)
@click.option("--force", is_flag=True, help="Overwrite an existing output directory.")
@guarded
def synth(rows, cols, genes, noise_sd, seed, slide_id, grid_tokens, out_dir, force):
    """Write a synthetic slide: spot and expression tables, BGFT features
    of the spot scope only, and its manifest."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise click.UsageError(f"output directory {out} exists; use --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    dataset, _ = synth_dataset(rows, cols, genes, noise_sd, seed,
                               slide_id=slide_id, grid_tokens=int(grid_tokens))
    manifest = save_dataset(dataset, out)
    click.echo(f"wrote {manifest}")


def _train_summary(checkpoint_path, datasets, pcch_selector, workers):
    params, d_context, genes = load_checkpoint(checkpoint_path)
    pcc_values = []
    for ds in datasets:
        target = _targets_for_genes(ds, genes)
        pred = forward_slide(ds, params, params.config, d_context, workers)["fused"]
        pcc_values.append(evaluate_predictions(pred, target, genes,
                                               selector=pcch_selector).pcc_m)
    return float(np.mean(pcc_values))


def _targets_for_genes(dataset, genes):
    norm = log1p_normalize(dataset.expr)
    index = {g: j for j, g in enumerate(dataset.expr.genes)}
    missing = [g for g in genes if g not in index]
    if missing:
        raise FormatError(f"dataset lacks {len(missing)} checkpoint genes, "
                          f"first missing: {missing[0]}")
    return norm[:, [index[g] for g in genes]]


@main.command(name="train")
@click.option("--manifest", "manifests", type=click.Path(exists=True), multiple=True,
              required=True, help="A slide's manifest (see bgt --help); repeatable.")
@click.option("-o", "--out-dir", type=click.Path(), required=True)
@_config_options
@guarded
def cmd_train(manifests, out_dir, config_path, **overrides):
    """Train on one or more slides; writes checkpoint.bgck and loss.csv.

    Each step's spots are split in two halves of near-equal cost; with
    BGT_THREADS of 2 or more (see bgt --help), a forked partner process
    computes the second half's gradient while this one computes the first.
    The closing train PCC(M) pass runs in BGT_THREADS processes.
    """
    workers = _workers()
    train_cfg, model_cfg, doc = _build_config(config_path, overrides)
    datasets = _load_slides(manifests, model_cfg, doc)
    _echo_header("train", train_cfg, model_cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    targets, indices, names = gene_targets(datasets, train_cfg.k_genes)
    params = ModelParams(model_cfg, k_genes=len(indices), seed=train_cfg.seed)
    log = train(datasets, params, train_cfg, targets=targets,
                progress=lambda s: click.echo(
                    f"epoch {s.epoch} lr {s.lr:.6g} loss_total {s.loss_total:.6f}"),
                workers=workers)
    write_loss_log(out / "loss.csv", log)
    save_checkpoint(out / "checkpoint.bgck", params, train_cfg.d_context, names)
    train_pcc_m = _train_summary(out / "checkpoint.bgck", datasets, doc["pcch_selector"],
                                 workers)
    final_loss = log[-1].loss_total if log else float("nan")
    with open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump({"final_loss_total": final_loss, "train_pcc_m": train_pcc_m,
                   "train": train_cfg.to_dict(), "model": model_cfg.to_dict()},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"final loss_total {final_loss:.6f}")
    click.echo(f"train PCC(M) {train_pcc_m:.6f}")


@main.command(name="eval")
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
@click.option("--manifest", type=click.Path(exists=True), required=True,
              help="The slide's manifest (see bgt --help).")
@click.option("--pcch-selector", type=click.Choice(CHOICES["pcch_selector"]),
              default="predictive", show_default=True)
@click.option("-o", "--report", "report_path", type=click.Path(), callback=_parent_exists)
@guarded
def cmd_eval(checkpoint, manifest, pcch_selector, report_path):
    """Evaluate a checkpoint on a slide; prints MSE, PCC(M) and PCC(H).

    The slide's spots are split among BGT_THREADS processes (see bgt
    --help).
    """
    workers = _workers()
    params, d_context, genes, ds = _load_for_checkpoint(checkpoint, manifest)
    target = _targets_for_genes(ds, genes)
    pred = forward_slide(ds, params, params.config, d_context, workers)["fused"]
    report = evaluate_predictions(pred, target, genes, selector=pcch_selector)
    if report_path is not None:
        write_report(report_path, report)
    click.echo(f"{'MSE':>8} {'PCC(M)':>8} {'PCC(H)':>8}")
    click.echo(f"{report.mse:8.4f} {report.pcc_m:8.4f} {report.pcc_h:8.4f}")


@main.command(name="cv")
@click.option("--manifest", "manifests", type=click.Path(exists=True), multiple=True,
              required=True, help="A slide's manifest (see bgt --help); repeatable.")
@click.option("-o", "--out-dir", type=click.Path(), required=True)
@click.option("--pcch-selector", type=click.Choice(CHOICES["pcch_selector"]), default=None)
@_config_options
@guarded
def cmd_cv(manifests, out_dir, pcch_selector, config_path, **overrides):
    """Leave-one-slide-out cross-validation over the given manifests.

    The folds' training steps are split into equal shares among
    BGT_THREADS forked processes (see bgt --help), so a fold may train its
    first steps in one process and go on in another; each step runs in one
    process. The reports are the same for every BGT_THREADS, and so is the
    error of a failing run: that of its lowest-index failing fold.
    """
    workers = _workers()
    if len(manifests) < 2:
        raise click.UsageError("leave-one-slide-out needs at least 2 --manifest slides")
    train_cfg, model_cfg, doc = _build_config(config_path, overrides)
    selector = pcch_selector or doc["pcch_selector"]
    datasets = _load_slides(manifests, model_cfg, doc)
    _echo_header("cv", train_cfg, model_cfg, {"folds": len(datasets)})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports, aggregate = cross_validate(datasets, train_cfg, model_cfg,
                                        pcch_selector=selector, workers=workers)
    for i, report in enumerate(reports):
        write_report(out / f"fold{i}.json", report)
    with open(out / "aggregate.json", "w", encoding="utf-8") as fh:
        json.dump({k: {"mean": v[0], "sd": v[1]} for k, v in aggregate.items()},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    for metric in ("mse", "pcc_m", "pcc_h"):
        mean, sd = aggregate[metric]
        click.echo(f"{metric} {mean:.4f} +/- {sd:.4f}")


@main.command(name="predict")
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
@click.option("--manifest", type=click.Path(exists=True), required=True,
              help="The slide's manifest (see bgt --help).")
@click.option("-o", "--out", "out_path", type=click.Path(), required=True, callback=_parent_exists)
@guarded
def cmd_predict(checkpoint, manifest, out_path):
    """Write fused per-spot, per-gene predictions as TSV.

    The slide's spots are split among BGT_THREADS processes (see bgt
    --help).
    """
    workers = _workers()
    params, d_context, genes, ds = _load_for_checkpoint(checkpoint, manifest)
    pred = forward_slide(ds, params, params.config, d_context, workers)["fused"]
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("spot_id\t" + "\t".join(genes) + "\n")
        for spot, row_values in zip(ds.spots, pred.tolist()):
            fh.write(spot.spot_id + "\t" + "\t".join(map(repr, row_values)) + "\n")
    click.echo(f"wrote {out_path}")


@main.command(name="export-map")
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
@click.option("--manifest", type=click.Path(exists=True), required=True,
              help="The slide's manifest (see bgt --help).")
@click.option("--gene", required=True)
@click.option("-o", "--out-prefix", type=click.Path(), required=True, callback=_parent_exists)
@guarded
def cmd_export_map(checkpoint, manifest, gene, out_prefix):
    """Export one gene's prediction map as CSV and grayscale PGM.

    The slide's spots are split among BGT_THREADS processes (see bgt
    --help).
    """
    workers = _workers()
    params, d_context, genes, ds = _load_for_checkpoint(checkpoint, manifest)
    if gene not in genes:
        similar = difflib.get_close_matches(gene, genes, n=3)
        hint = f"; closest: {', '.join(similar)}" if similar else ""
        raise click.UsageError(f"unknown gene {gene!r}{hint}")
    pred = forward_slide(ds, params, params.config, d_context, workers)["fused"]
    column = pred[:, genes.index(gene)]
    csv_path = Path(f"{out_prefix}.csv")
    pgm_path = Path(f"{out_prefix}.pgm")
    export_prediction_map(ds, column, csv_path, pgm_path)
    click.echo(f"wrote {csv_path} and {pgm_path}")


if __name__ == "__main__":
    main()
