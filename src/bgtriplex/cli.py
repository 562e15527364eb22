"""Operator entry point: synthesize data, train, evaluate, cross-validate,
predict and export prediction maps.

Exit codes: 0 ok, 2 usage error, 3 numeric failure, 4 artifact/format
mismatch. Every command is a pure function of its flags, input files and
seed; reruns produce byte-identical outputs.
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

import click.exceptions

from .checkpoint import load_checkpoint, save_checkpoint
from .data import load_dataset, log1p_normalize, save_dataset, synth_dataset
from .errors import FormatError, NumericsError, ParseError, ShapeError
from .metrics import evaluate_predictions, export_prediction_map, write_report
from .model import ModelConfig, ModelParams, forward_slide
from .seeding import derive_seed
from .training import (TrainConfig, cross_validate, gene_targets, train,
                       write_loss_log)


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
    """Boundary-guided three-branch gene expression prediction."""


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
        click.option("--drop-spot", is_flag=True, default=None),
        click.option("--drop-ctx", is_flag=True, default=None),
        click.option("--drop-global", is_flag=True, default=None),
        click.option("--no-edge-spot", is_flag=True, default=None),
        click.option("--no-nuclei-spot", is_flag=True, default=None),
        click.option("--no-edge-ctx", is_flag=True, default=None),
        click.option("--no-nuclei-ctx", is_flag=True, default=None),
        click.option("--provider", type=click.Choice(["toy", "precomputed"]), default=None),
    ]
    for opt in reversed(decorators):
        fn = opt(fn)
    return fn


def _build_config(config_path, overrides):
    doc = {"train": {}, "model": {}, "provider": "precomputed", "pcch_selector": "predictive"}
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        for key in ("train", "model"):
            doc[key].update(loaded.get(key, {}))
        for key in ("provider", "pcch_selector"):
            if key in loaded:
                doc[key] = loaded[key]
    train_names = {f.name for f in fields(TrainConfig)}
    model_names = {f.name for f in fields(ModelConfig)}
    for key, value in overrides.items():
        if value is None:
            continue
        if key in train_names:
            doc["train"][key] = value
        elif key in model_names:
            doc["model"][key] = value
        else:
            doc[key] = value
    unknown = sorted(set(doc["train"]) - train_names)
    if unknown:
        raise click.UsageError(f"unknown train config keys: {', '.join(unknown)}")
    train_cfg = TrainConfig(**doc["train"])
    model_cfg = ModelConfig.from_dict(doc["model"])
    return train_cfg, model_cfg, doc


def _load_slides(manifests, provider, model_cfg, doc):
    """Load every slide and fit ``model_cfg.stream_dims`` to the feature widths.

    Unset widths are taken from the first bundle; every bundle of every
    slide must then have them, or the run stops before any output.
    """
    if not manifests:
        raise click.UsageError("at least one --manifest is required")
    datasets = [load_dataset(m, provider=provider) for m in manifests]
    if "stream_dims" not in doc["model"]:
        model_cfg.stream_dims = _stream_widths(datasets[0].features[0])
    for manifest, ds in zip(manifests, datasets):
        for bundle in ds.features + ds.features_ctx:
            widths = _stream_widths(bundle)
            if widths != model_cfg.stream_dims:
                raise click.UsageError(f"{manifest}: feature widths {widths} do not match "
                                       f"stream_dims {model_cfg.stream_dims}")
    return datasets


def _stream_widths(bundle):
    return {name: tokens.shape[1] for name, tokens in bundle.streams()}


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
    """Write a synthetic slide (spots, expression, features, manifest)."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise click.UsageError(f"output directory {out} exists; use --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    dataset, _ = synth_dataset(rows, cols, genes, noise_sd, seed,
                               slide_id=slide_id, grid_tokens=int(grid_tokens))
    toy_meta = {
        "dataset_seed": derive_seed(seed, "features", slide_id),
        "grid_tokens": int(grid_tokens),
        "stream_dims": _stream_widths(dataset.features[0]),
    }
    manifest = save_dataset(dataset, out, toy_meta=toy_meta)
    click.echo(f"wrote {manifest}")


def _train_summary(checkpoint_path, datasets, pcch_selector):
    params, d_context, genes = load_checkpoint(checkpoint_path)
    pcc_values = []
    for ds in datasets:
        target = _targets_for_genes(ds, genes)
        pred = forward_slide(ds, params, params.config, d_context)["fused"]
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
              required=True)
@click.option("-o", "--out-dir", type=click.Path(), required=True)
@_config_options
@guarded
def cmd_train(manifests, out_dir, config_path, provider, **overrides):
    """Train on one or more slides; writes checkpoint.bgck and loss.csv."""
    train_cfg, model_cfg, doc = _build_config(config_path, overrides)
    provider = provider or doc["provider"]
    datasets = _load_slides(manifests, provider, model_cfg, doc)
    _echo_header("train", train_cfg, model_cfg, {"provider": provider})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    targets, indices, names = gene_targets(datasets, train_cfg.k_genes)
    params = ModelParams(model_cfg, k_genes=len(indices), seed=train_cfg.seed)
    log = train(datasets, params, train_cfg, targets=targets,
                progress=lambda s: click.echo(
                    f"epoch {s.epoch} lr {s.lr:.6g} loss_total {s.loss_total:.6f}"))
    write_loss_log(out / "loss.csv", log)
    save_checkpoint(out / "checkpoint.bgck", params, train_cfg.d_context, names)
    train_pcc_m = _train_summary(out / "checkpoint.bgck", datasets, doc["pcch_selector"])
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
@click.option("--manifest", type=click.Path(exists=True), required=True)
@click.option("--provider", type=click.Choice(["toy", "precomputed"]), default="precomputed",
              show_default=True)
@click.option("--pcch-selector", type=click.Choice(["predictive", "expressed"]),
              default="predictive", show_default=True)
@click.option("-o", "--report", "report_path", type=click.Path(), default=None)
@guarded
def cmd_eval(checkpoint, manifest, provider, pcch_selector, report_path):
    """Evaluate a checkpoint on a slide; prints MSE, PCC(M) and PCC(H)."""
    params, d_context, genes = load_checkpoint(checkpoint)
    ds = load_dataset(manifest, provider=provider)
    target = _targets_for_genes(ds, genes)
    pred = forward_slide(ds, params, params.config, d_context)["fused"]
    report = evaluate_predictions(pred, target, genes, selector=pcch_selector)
    if report_path is not None:
        write_report(report_path, report)
    click.echo(f"{'MSE':>8} {'PCC(M)':>8} {'PCC(H)':>8}")
    click.echo(f"{report.mse:8.4f} {report.pcc_m:8.4f} {report.pcc_h:8.4f}")


@main.command(name="cv")
@click.option("--manifest", "manifests", type=click.Path(exists=True), multiple=True,
              required=True)
@click.option("-o", "--out-dir", type=click.Path(), required=True)
@click.option("--pcch-selector", type=click.Choice(["predictive", "expressed"]), default=None)
@_config_options
@guarded
def cmd_cv(manifests, out_dir, pcch_selector, config_path, provider, **overrides):
    """Leave-one-slide-out cross-validation over the given manifests.

    ``BGT_THREADS`` (default 1) folds run at once.
    """
    threads = os.environ.get("BGT_THREADS", "1")
    if not threads.isdecimal() or int(threads) < 1:
        raise click.UsageError(f"BGT_THREADS must be a positive integer, got {threads!r}")
    if len(manifests) < 2:
        raise click.UsageError("leave-one-slide-out needs at least 2 --manifest slides")
    train_cfg, model_cfg, doc = _build_config(config_path, overrides)
    provider = provider or doc["provider"]
    selector = pcch_selector or doc["pcch_selector"]
    datasets = _load_slides(manifests, provider, model_cfg, doc)
    _echo_header("cv", train_cfg, model_cfg, {"provider": provider, "folds": len(datasets)})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports, aggregate = cross_validate(datasets, train_cfg, model_cfg,
                                        pcch_selector=selector, workers=int(threads))
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
@click.option("--manifest", type=click.Path(exists=True), required=True)
@click.option("--provider", type=click.Choice(["toy", "precomputed"]), default="precomputed",
              show_default=True)
@click.option("-o", "--out", "out_path", type=click.Path(), required=True)
@guarded
def cmd_predict(checkpoint, manifest, provider, out_path):
    """Write fused per-spot, per-gene predictions as TSV."""
    params, d_context, genes = load_checkpoint(checkpoint)
    ds = load_dataset(manifest, provider=provider)
    pred = forward_slide(ds, params, params.config, d_context)["fused"]
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("spot_id\t" + "\t".join(genes) + "\n")
        for spot, row_values in zip(ds.spots, pred.tolist()):
            fh.write(spot.spot_id + "\t" + "\t".join(map(repr, row_values)) + "\n")
    click.echo(f"wrote {out_path}")


@main.command(name="export-map")
@click.option("--checkpoint", type=click.Path(exists=True), required=True)
@click.option("--manifest", type=click.Path(exists=True), required=True)
@click.option("--provider", type=click.Choice(["toy", "precomputed"]), default="precomputed",
              show_default=True)
@click.option("--gene", required=True)
@click.option("-o", "--out-prefix", type=click.Path(), required=True)
@guarded
def cmd_export_map(checkpoint, manifest, provider, gene, out_prefix):
    """Export one gene's prediction map as CSV and grayscale PGM."""
    params, d_context, genes = load_checkpoint(checkpoint)
    if gene not in genes:
        similar = difflib.get_close_matches(gene, genes, n=3)
        hint = f"; closest: {', '.join(similar)}" if similar else ""
        raise click.UsageError(f"unknown gene {gene!r}{hint}")
    ds = load_dataset(manifest, provider=provider)
    pred = forward_slide(ds, params, params.config, d_context)["fused"]
    column = pred[:, genes.index(gene)]
    csv_path = Path(f"{out_prefix}.csv")
    pgm_path = Path(f"{out_prefix}.pgm")
    export_prediction_map(ds, column, csv_path, pgm_path)
    click.echo(f"wrote {csv_path} and {pgm_path}")


if __name__ == "__main__":
    main()
