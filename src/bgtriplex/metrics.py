"""Evaluation metrics: MSE, per-gene Pearson correlation and their averages.

PCC is computed per gene across spots with per-column means. Genes whose
predicted or true column is constant have no defined correlation; they
are excluded from the averages (and counted) rather than scored as zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UndefinedMetricError


@dataclass
class MetricsReport:
    mse: float
    pcc_per_gene: np.ndarray
    pcc_m: float
    pcc_h: float
    top_gene_indices: list
    gene_names: list
    excluded_genes: int = 0

    def to_json_dict(self):
        per_gene = [None if not np.isfinite(v) else float(v) for v in self.pcc_per_gene]
        return {
            "mse": self.mse,
            "pcc_m": self.pcc_m,
            "pcc_h": self.pcc_h,
            "excluded_genes": self.excluded_genes,
            "pcc_per_gene": per_gene,
            "top_genes": [self.gene_names[i] for i in self.top_gene_indices],
        }


def mse_metric(pred, truth):
    """Mean squared error over every (spot, gene) cell."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"mse_metric: shapes {pred.shape} and {truth.shape} differ")
    diff = pred - truth
    return float((diff * diff).mean())


def pcc_per_gene(pred, truth):
    """Pearson correlation of each gene column across spots.

    Columns that are constant in either matrix yield NaN (undefined
    correlation) and are meant to be excluded from averages.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"pcc_per_gene: shapes {pred.shape} and {truth.shape} differ")
    if pred.shape[0] < 2:
        raise ValueError("pcc_per_gene: need at least 2 spots")
    dp = pred - pred.mean(axis=0, keepdims=True)
    dt = truth - truth.mean(axis=0, keepdims=True)
    sp = np.sqrt((dp * dp).sum(axis=0))
    st = np.sqrt((dt * dt).sum(axis=0))
    out = np.full(pred.shape[1], np.nan)
    defined = (sp > 0) & (st > 0)
    out[defined] = (dp * dt).sum(axis=0)[defined] / (sp[defined] * st[defined])
    return out


def pcc_m(pcc_vec):
    """Mean over the defined per-gene correlations."""
    pcc_vec = np.asarray(pcc_vec, dtype=np.float64)
    defined = np.isfinite(pcc_vec)
    if not defined.any():
        raise UndefinedMetricError("pcc_m: no gene has a defined correlation")
    return float(pcc_vec[defined].mean())


def pcc_h(pcc_vec, top_indices):
    """Mean correlation over the chosen top-gene subset."""
    pcc_vec = np.asarray(pcc_vec, dtype=np.float64)
    top_indices = list(top_indices)
    if any(not 0 <= i < len(pcc_vec) for i in top_indices):
        raise ValueError("top_indices outside the gene index range")
    subset = pcc_vec[top_indices]
    defined = np.isfinite(subset)
    if not defined.any():
        raise UndefinedMetricError("pcc_h: no selected gene has a defined correlation")
    return float(subset[defined].mean())


def rank_predictive_genes(pcc_vec, gene_names, n=50):
    """Indices of the n largest per-gene correlations, ties by gene name."""
    pcc_vec = np.asarray(pcc_vec, dtype=np.float64)
    if len(gene_names) != len(pcc_vec):
        raise ValueError(f"{len(gene_names)} names for {len(pcc_vec)} correlations")
    defined = [i for i in range(len(pcc_vec)) if np.isfinite(pcc_vec[i])]
    if n > len(defined):
        raise ValueError(f"n={n} exceeds the {len(defined)} genes with defined correlation")
    ranked = sorted(defined, key=lambda i: (-pcc_vec[i], gene_names[i]))
    return ranked[:n]


def evaluate_predictions(pred, truth, gene_names, n_top=50, selector="predictive"):
    """Full metrics report for a prediction matrix against its labels.

    ``selector`` picks the top-gene subset driving PCC(H): by largest
    per-gene correlation ('predictive') or by highest mean true
    expression ('expressed').
    """
    if selector not in ("predictive", "expressed"):
        raise ValueError(f"selector must be 'predictive' or 'expressed', got {selector!r}")
    vec = pcc_per_gene(pred, truth)
    defined = np.isfinite(vec)
    n_top = min(n_top, int(defined.sum()))
    if selector == "predictive":
        top = rank_predictive_genes(vec, gene_names, n=n_top)
    else:
        truth = np.asarray(truth, dtype=np.float64)
        means = truth.mean(axis=0)
        order = sorted([i for i in range(len(vec)) if defined[i]],
                       key=lambda i: (-means[i], gene_names[i]))
        top = order[:n_top]
    return MetricsReport(
        mse=mse_metric(pred, truth),
        pcc_per_gene=vec,
        pcc_m=pcc_m(vec),
        pcc_h=pcc_h(vec, top),
        top_gene_indices=top,
        gene_names=list(gene_names),
        excluded_genes=int((~defined).sum()),
    )


def write_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")


def export_prediction_map(dataset, values, csv_path, image_path):
    """Per-spot scalar map as CSV plus a grayscale PGM over the spot grid.

    The image is min-max normalized to 0..255; grid cells without a spot
    are black. Output bytes are a pure function of the inputs.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(values) != dataset.n_spots:
        raise ValueError(f"{len(values)} values for {dataset.n_spots} spots")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("spot_id,px_x,px_y,value\n")
        for spot, value in zip(dataset.spots, values):
            fh.write(f"{spot.spot_id},{spot.px_x},{spot.px_y},{value}\n")

    rows = np.array([s.array_row for s in dataset.spots])
    cols = np.array([s.array_col for s in dataset.spots])
    height = int(rows.max() - rows.min() + 1)
    width = int(cols.max() - cols.min() + 1)
    image = np.zeros((height, width), dtype=np.uint8)
    span = values.max() - values.min()
    if span > 0:
        levels = np.floor((values - values.min()) / span * 255.0 + 0.5)
    else:
        levels = np.full_like(values, 255.0)
    image[rows - rows.min(), cols - cols.min()] = levels.astype(np.uint8)
    with open(image_path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
