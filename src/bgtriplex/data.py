"""Dataset model, TSV ingestion, gene preprocessing and grid windows.

Spots live on an integer array grid; expression is a nonnegative count
matrix joined to the spot table by spot_id. A deterministic synthetic
slide generator provides desk-scale data whose log1p-transformed counts
follow a known linear map of the toy features, so end-to-end learning
can be checked against ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FormatError, ParseError
from .features import STREAMS, PrecomputedFeatureProvider, ToyFeatureProvider, encode_bgft
from .seeding import derive_seed, substream

SPOT_COLUMNS = ("spot_id", "array_row", "array_col", "px_x", "px_y")


@dataclass(frozen=True)
class SpotRecord:
    spot_id: str
    array_row: int
    array_col: int
    px_x: float
    px_y: float


@dataclass
class ExpressionMatrix:
    """Raw nonnegative counts, one row per spot, one column per gene."""

    genes: list
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.genes):
            raise ValueError(
                f"expression matrix shape {self.values.shape} does not match {len(self.genes)} genes"
            )
        if (self.values < 0).any():
            raise ValueError("expression counts must be nonnegative")


@dataclass
class SpotDataset:
    """One slide: spots, expression and per-spot feature bundles.

    Treated as immutable once built: the grid windows, the stacked tokens
    and the pooled image tokens are computed on first use and kept for the
    slide's lifetime.
    """

    spots: list
    expr: ExpressionMatrix
    features: list
    slide_id: str
    features_ctx: list = field(default=None)
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.spots)
        if self.expr.values.shape[0] != n or len(self.features) != n:
            raise ValueError("spots, expression rows and feature bundles must align")
        if self.features_ctx is None:
            self.features_ctx = self.features
        elif len(self.features_ctx) != n:
            raise ValueError("context feature bundles must align with spots")

    @property
    def n_spots(self):
        return len(self.spots)

    def windows(self, d):
        """``grid_windows(spots, d)``, built once per size."""
        if d not in self._windows:
            self._windows[d] = grid_windows(self.spots, d)
        return self._windows[d]

    @cached_property
    def token_stacks(self):
        """{(stream, scope): (tokens, offsets)}: every spot's tokens stacked in
        spot order; spot s owns rows offsets[s]:offsets[s + 1]."""
        stacks = {}
        for scope, bundles in (("spot", self.features), ("ctx", self.features_ctx)):
            for k, stream in enumerate(STREAMS):
                tokens = [bundle.streams()[k][1] for bundle in bundles]
                offsets = np.cumsum([0] + [t.shape[0] for t in tokens])
                stacks[(stream, scope)] = (np.concatenate(tokens), offsets)
        return stacks

    @cached_property
    def pooled_image_tokens(self):
        """(n_spots + 1, img dim): the mean spot-scope image token of every
        spot, then a zero row for the empty cells of ``windows(d)``."""
        pooled = [b.image_tokens.mean(axis=0) for b in self.features]
        return np.array(pooled + [np.zeros_like(pooled[0])])


def _split_row(line, lineno, n_cols):
    fields = line.rstrip("\n").split("\t")
    if len(fields) != n_cols:
        raise ParseError(f"line {lineno}: expected {n_cols} fields, found {len(fields)}")
    return fields


def load_spot_table(path):
    """Parse the spot TSV; rejects duplicate grid positions and bad indices."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("line 1: empty spot table")
    header = tuple(lines[0].split("\t"))
    if header != SPOT_COLUMNS:
        raise ParseError(f"line 1: expected header {list(SPOT_COLUMNS)}, found {list(header)}")
    records = []
    seen_grid = {}
    seen_ids = {}
    for lineno, line in enumerate(lines[1:], start=2):
        spot_id, row_s, col_s, x_s, y_s = _split_row(line, lineno, len(SPOT_COLUMNS))
        try:
            row, col = int(row_s), int(col_s)
        except ValueError:
            raise ParseError(f"line {lineno}: grid indices must be integers") from None
        if row < 0 or col < 0:
            raise ParseError(f"line {lineno}: grid indices must be nonnegative")
        try:
            px_x, px_y = float(x_s), float(y_s)
        except ValueError:
            raise ParseError(f"line {lineno}: pixel coordinates must be numbers") from None
        if (row, col) in seen_grid:
            raise ParseError(
                f"line {lineno}: grid position ({row}, {col}) already used on line {seen_grid[(row, col)]}"
            )
        if spot_id in seen_ids:
            raise ParseError(f"line {lineno}: spot_id {spot_id!r} already used on line {seen_ids[spot_id]}")
        seen_grid[(row, col)] = lineno
        seen_ids[spot_id] = lineno
        records.append(SpotRecord(spot_id, row, col, px_x, px_y))
    return records


def write_spot_table(path, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(SPOT_COLUMNS) + "\n")
        for r in records:
            fh.write(f"{r.spot_id}\t{r.array_row}\t{r.array_col}\t{r.px_x}\t{r.px_y}\n")


def load_expression_matrix(path, spot_ids=None):
    """Parse the expression TSV; with ``spot_ids``, rows are joined to that order."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("line 1: empty expression table")
    header = lines[0].split("\t")
    if header[0] != "spot_id" or len(header) < 2:
        raise ParseError("line 1: expected header 'spot_id' followed by gene names")
    genes = header[1:]
    if len(set(genes)) != len(genes):
        raise ParseError("line 1: duplicate gene names")
    rows = {}
    order = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = _split_row(line, lineno, len(header))
        spot_id = fields[0]
        if spot_id in rows:
            raise ParseError(f"line {lineno}: duplicate spot_id {spot_id!r}")
        try:
            values = [float(v) for v in fields[1:]]
        except ValueError:
            raise ParseError(f"line {lineno}: counts must be numbers") from None
        if any(v < 0 for v in values):
            raise ParseError(f"line {lineno}: negative count")
        rows[spot_id] = values
        order.append(spot_id)
    if spot_ids is not None:
        known = set(spot_ids)
        unknown = [s for s in order if s not in known]
        if unknown:
            raise ParseError(f"unknown spot_id {unknown[0]!r} not present in the spot table")
        missing = [s for s in spot_ids if s not in rows]
        if missing:
            raise ParseError(f"no expression row for spot_id {missing[0]!r}")
        order = list(spot_ids)
    return ExpressionMatrix(genes, np.array([rows[s] for s in order], dtype=np.float64))


def write_expression_matrix(path, expr, spot_ids):
    if len(spot_ids) != expr.values.shape[0]:
        raise ValueError("spot_ids must match expression rows")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("spot_id\t" + "\t".join(expr.genes) + "\n")
        for spot_id, row in zip(spot_ids, expr.values):
            fh.write(spot_id + "\t" + "\t".join(str(v) for v in row) + "\n")


def log1p_normalize(expr):
    """ln(count + 1), elementwise; maps 0 to 0 exactly."""
    if (expr.values < 0).any():
        raise ValueError("log1p_normalize: counts must be nonnegative")
    return np.log1p(expr.values)


def select_top_k_genes(norm, gene_names, k):
    """Indices and names of the k genes with the highest mean normalized
    expression, descending; ties break toward the lexicographically
    smaller name."""
    n_genes = norm.shape[1]
    if len(gene_names) != n_genes:
        raise ValueError(f"{len(gene_names)} names for {n_genes} gene columns")
    if not 1 <= k <= n_genes:
        raise ValueError(f"k must lie in [1, {n_genes}], got {k}")
    means = norm.mean(axis=0)
    ranked = sorted(range(n_genes), key=lambda j: (-means[j], gene_names[j]))
    indices = ranked[:k]
    return indices, [gene_names[j] for j in indices]


def grid_windows(spots, d):
    """(n, d * d) spot indices: row s is the d x d grid window centred on
    spot s, row-major, holding n for an empty cell (the index of the zero
    row of ``SpotDataset.pooled_image_tokens``)."""
    if d < 1 or d % 2 == 0:
        raise ValueError(f"window size must be odd and >= 1, got {d}")
    n = len(spots)
    at = {(s.array_row, s.array_col): i for i, s in enumerate(spots)}
    if len(at) != n:
        raise ValueError("duplicate grid positions")
    offsets = [(r - d // 2, c - d // 2) for r in range(d) for c in range(d)]
    return np.array([[at.get((s.array_row + r, s.array_col + c), n) for r, c in offsets]
                     for s in spots], dtype=np.intp).reshape(n, d * d)


def synth_dataset(rows, cols, n_genes, noise_sd, seed, slide_id="synth",
                  grid_tokens=4, stream_dims=None):
    """A deterministic synthetic slide plus the ground-truth weight matrix.

    log1p of the generated counts approximates ``pooled_features @ w``:
    counts are round(exp(w-target + noise) - 1) clipped at zero. The
    weight matrix is shared across slides generated from the same seed
    (only the per-slide features and noise differ), so held-out slides
    are predictable from trained ones.
    """
    if rows < 1 or cols < 1 or n_genes < 1:
        raise ValueError("rows, cols and n_genes must be positive")
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    provider = ToyFeatureProvider(derive_seed(seed, "features", slide_id), grid_tokens, stream_dims)
    spots = []
    for r in range(rows):
        for c in range(cols):
            spots.append(SpotRecord(f"s{r}x{c}", r, c, c * 100.0 + 50.0, r * 100.0 + 50.0))
    bundles = [provider.bundle(s) for s in spots]
    pooled = np.array([b.pooled_vector() for b in bundles])

    n_features = pooled.shape[1]
    rng_w = substream(seed, "weights")
    shared = rng_w.uniform(0.5, 1.5, n_features)
    individual = rng_w.uniform(0.0, 1.0, (n_features, n_genes))
    gene_total = rng_w.uniform(2.4, 3.6, n_genes)
    raw = 0.8 * shared[:, None] + 0.4 * individual
    weights = raw / raw.sum(axis=0, keepdims=True) * gene_total

    targets = pooled @ weights
    rng_n = substream(seed, "noise", slide_id)
    noise = rng_n.normal(0.0, noise_sd, size=targets.shape) if noise_sd > 0 else 0.0
    counts = np.clip(np.round(np.exp(targets + noise) - 1.0), 0.0, None)

    genes = [f"G{j:04d}" for j in range(n_genes)]
    expr = ExpressionMatrix(genes, counts)
    dataset = SpotDataset(spots, expr, bundles, slide_id)
    return dataset, weights


def write_manifest(path, slide_id, spots_path, expression_path, features_prefix, toy=None):
    doc = {
        "slide_id": slide_id,
        "spots": str(spots_path),
        "expression": str(expression_path),
        "features": str(features_prefix),
    }
    if toy is not None:
        doc["toy"] = toy
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_dataset(dataset, out_dir, toy_meta=None):
    """Write spots TSV, expression TSV, BGFT feature files and the manifest."""
    out_dir = Path(out_dir)
    features_dir = out_dir / "features"
    features_dir.mkdir(parents=True, exist_ok=True)
    write_spot_table(out_dir / "spots.tsv", dataset.spots)
    write_expression_matrix(out_dir / "expression.tsv", dataset.expr, [s.spot_id for s in dataset.spots])
    for spot, bundle in zip(dataset.spots, dataset.features):
        for stream, tokens in bundle.streams():
            (features_dir / f"{spot.spot_id}.{stream}.spot.bgft").write_bytes(encode_bgft(tokens))
    write_manifest(out_dir / "manifest.json", dataset.slide_id,
                   "spots.tsv", "expression.tsv", "features", toy=toy_meta)
    return out_dir / "manifest.json"


def load_dataset(manifest_path, provider="precomputed"):
    """Assemble a SpotDataset from a manifest; paths resolve relative to it.
    A key it lacks or a file it names that cannot be read is a FormatError."""
    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    base = manifest_path.parent

    def entry(block, key):
        if not isinstance(block, dict) or key not in block:
            raise FormatError(f"{manifest_path}: no {key!r} entry in the manifest")
        return block[key]

    slide_id = entry(doc, "slide_id")
    if provider == "toy":
        toy = doc.get("toy")
        if toy is None:
            raise ValueError("manifest has no toy-provider block")
        prov = ToyFeatureProvider(entry(toy, "dataset_seed"), entry(toy, "grid_tokens"),
                                  {k: int(v) for k, v in entry(toy, "stream_dims").items()})
    elif provider == "precomputed":
        prov = PrecomputedFeatureProvider(base / entry(doc, "features"))
    else:
        raise ValueError(f"unknown provider {provider!r}")
    try:
        spots = load_spot_table(base / entry(doc, "spots"))
        expr = load_expression_matrix(base / entry(doc, "expression"), [s.spot_id for s in spots])
        bundles = [prov.bundle(s, "spot") for s in spots]
        ctx_bundles = [prov.bundle(s, "ctx", spot_bundle=b) for s, b in zip(spots, bundles)]
    except OSError as exc:
        raise FormatError(f"{manifest_path}: cannot read {exc.filename}: {exc.strerror}") from None
    return SpotDataset(spots, expr, bundles, slide_id, features_ctx=ctx_bundles)
