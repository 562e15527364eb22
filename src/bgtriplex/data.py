"""Dataset model, TSV ingestion, gene preprocessing and grid windows.

Spots live on an integer array grid; expression is a nonnegative count
matrix joined to the spot table by spot_id; a slide keeps each feature
token once, in per-stream token stacks, which ``load_dataset`` fills
straight from the BGFT files. A deterministic synthetic slide generator
provides desk-scale data whose log1p-transformed counts follow a known
linear map of the toy features, so end-to-end learning can be checked
against ground truth.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ParseError
from .features import (SCOPES, STREAMS, TOY_STREAM_DIMS, encode_bgft, read_token_stacks,
                       toy_extractor)
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
        if not np.isfinite(self.values).all():
            raise ValueError("expression counts must be finite")
        if (self.values < 0).any():
            raise ValueError("expression counts must be nonnegative")


@dataclass
class SpotDataset:
    """One slide: spots, expression and its feature tokens, kept once.

    ``token_stacks`` maps every (stream, scope) to (tokens, offsets): every
    spot's tokens, of one width in both scopes, in spot order, spot s in rows
    offsets[s]:offsets[s + 1], at least one each. ``load_dataset`` and
    ``synth_dataset`` hold them in float32, as BGFT files store them; the
    model reads them into float64, which is exact. A ctx-scope entry may be
    the spot-scope one itself. ``pooled_image_tokens`` is each spot's mean
    spot-scope image token, taken in float64, then a zero row for the empty
    cells of ``windows(d)``. Both are read-only: two scopes and forked
    processes share them. Stacks that break this layout or hold a
    non-finite token are a ValueError.
    """

    spots: list
    expr: ExpressionMatrix
    token_stacks: dict
    slide_id: str
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.spots)
        if not n or self.expr.values.shape[0] != n:
            raise ValueError("spots (at least one) and expression rows must align")
        for (stream, scope), (tokens, offsets) in self.token_stacks.items():
            if (tokens.ndim != 2 or len(offsets) != n + 1 or offsets[0] != 0
                    or offsets[-1] != len(tokens) or (np.diff(offsets) < 1).any()):
                raise ValueError(f"{stream} tokens in the {scope} scope are not a (rows, width) "
                                 f"stack that its offsets split among {n} spots")
            width = self.token_stacks[(stream, "spot")][0].shape[1]
            if tokens.shape[1] != width:
                raise ValueError(f"{stream} tokens of spot {self.spots[0].spot_id!r} are "
                                 f"{tokens.shape[1]} wide in the {scope} scope, not {width}")
            # min and max are finite only if every token is, and need no stack-sized mask
            if not (np.isfinite(tokens.min()) and np.isfinite(tokens.max())):
                row = np.flatnonzero(~np.isfinite(tokens).all(axis=1))[0]
                spot = self.spots[np.searchsorted(offsets, row, side="right") - 1]
                raise ValueError(f"{stream} tokens of spot {spot.spot_id!r} are not all finite "
                                 f"in the {scope} scope")
        image, offsets = self.token_stacks[("img", "spot")]
        self.pooled_image_tokens = np.zeros((n + 1, image.shape[1]))
        for s in range(n):
            rows = image[offsets[s]:offsets[s + 1]]
            self.pooled_image_tokens[s] = rows.mean(axis=0, dtype=np.float64)
        for array in (self.pooled_image_tokens, *itertools.chain(*self.token_stacks.values())):
            array.flags.writeable = False

    @property
    def n_spots(self):
        return len(self.spots)

    def windows(self, d):
        """``grid_windows(spots, d)``, built once per size."""
        if d not in self._windows:
            self._windows[d] = grid_windows(self.spots, d)
        return self._windows[d]


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
        if not (math.isfinite(px_x) and math.isfinite(px_y)):
            raise ParseError(f"line {lineno}: pixel coordinates must be finite")
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
        if not all(map(math.isfinite, values)):
            raise ParseError(f"line {lineno}: counts must be finite")
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
    values = np.array([rows[s] for s in order], dtype=np.float64).reshape(len(order), len(genes))
    return ExpressionMatrix(genes, values)


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
    dataset_seed = derive_seed(seed, "features", slide_id)
    dims = dict(TOY_STREAM_DIMS if stream_dims is None else stream_dims)
    spots = [SpotRecord(f"s{r}x{c}", r, c, c * 100.0 + 50.0, r * 100.0 + 50.0)
             for r in range(rows) for c in range(cols)]
    # one float32 buffer per stream; its (spots * tokens, width) view is the stream's token stack
    buffers = [np.empty((len(spots), grid_tokens, dims[stream]), dtype=np.float32)
               for stream in STREAMS]
    extract = toy_extractor(dataset_seed, grid_tokens, dims)
    for i, spot in enumerate(spots):
        for buffer, tokens in zip(buffers, extract(spot)):
            buffer[i] = tokens

    n_features = sum(dims.values())
    rng_w = substream(seed, "weights")
    shared = rng_w.uniform(0.5, 1.5, n_features)
    individual = rng_w.uniform(0.0, 1.0, (n_features, n_genes))
    gene_total = rng_w.uniform(2.4, 3.6, n_genes)
    raw = 0.8 * shared[:, None] + 0.4 * individual
    weights = raw / raw.sum(axis=0, keepdims=True) * gene_total

    # each spot's per-stream token means, taken in float64 and concatenated,
    # are its regression inputs
    targets = np.hstack([buffer.mean(axis=1, dtype=np.float64) for buffer in buffers]) @ weights
    rng_n = substream(seed, "noise", slide_id)
    noise = rng_n.normal(0.0, noise_sd, size=targets.shape) if noise_sd > 0 else 0.0
    counts = np.clip(np.round(np.exp(targets + noise) - 1.0), 0.0, None)

    genes = [f"G{j:04d}" for j in range(n_genes)]
    offsets = np.arange(0, len(spots) * grid_tokens + 1, grid_tokens)
    entries = [(buffer.reshape(-1, buffer.shape[2]), offsets) for buffer in buffers]
    stacks = {(stream, scope): entry for stream, entry in zip(STREAMS, entries) for scope in SCOPES}
    return SpotDataset(spots, ExpressionMatrix(genes, counts), stacks, slide_id), weights


def write_manifest(path, slide_id, spots_path, expression_path, features_prefix):
    doc = {
        "slide_id": slide_id,
        "spots": str(spots_path),
        "expression": str(expression_path),
        "features": str(features_prefix),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_dataset(dataset, out_dir):
    """Write spots TSV, expression TSV, BGFT feature files and the manifest:
    a spot-scope file per spot and stream, and a ctx-scope one for each
    stream whose ctx-scope entry is not the spot-scope one."""
    out_dir = Path(out_dir)
    features_dir = out_dir / "features"
    features_dir.mkdir(parents=True, exist_ok=True)
    write_spot_table(out_dir / "spots.tsv", dataset.spots)
    write_expression_matrix(out_dir / "expression.tsv", dataset.expr, [s.spot_id for s in dataset.spots])
    stacks = dataset.token_stacks
    for (stream, scope), (tokens, offsets) in stacks.items():
        if scope == "spot" or stacks[(stream, "ctx")] is not stacks[(stream, "spot")]:
            for spot, start, end in zip(dataset.spots, offsets, offsets[1:]):
                path = features_dir / f"{spot.spot_id}.{stream}.{scope}.bgft"
                path.write_bytes(encode_bgft(tokens[start:end]))
    write_manifest(out_dir / "manifest.json", dataset.slide_id,
                   "spots.tsv", "expression.tsv", "features")
    return out_dir / "manifest.json"


def load_dataset(manifest_path):
    """Assemble a SpotDataset from a manifest; paths resolve relative to it.

    The tokens are read by ``features.read_token_stacks`` straight into the
    slide's stacks. Keys other than the four it reads are ignored. A key it
    lacks, a file it names that cannot be read, a feature file that is not
    a finite matrix of its stream's width and a slide without spots are a
    FormatError; a malformed table is a ParseError that names the table's
    file and, for a bad row, its line.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    base = manifest_path.parent

    def entry(key):
        if not isinstance(doc, dict) or key not in doc:
            raise FormatError(f"{manifest_path}: no {key!r} entry in the manifest")
        return doc[key]

    slide_id = entry("slide_id")
    spots_path, expression_path, features_dir = (
        base / entry(key) for key in ("spots", "expression", "features"))

    def table(load, path, *args):
        try:
            return load(path, *args)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None

    try:
        spots = table(load_spot_table, spots_path)
        expr = table(load_expression_matrix, expression_path, [s.spot_id for s in spots])
        return SpotDataset(spots, expr, read_token_stacks(features_dir, spots), slide_id)
    except OSError as exc:
        raise FormatError(f"{manifest_path}: cannot read {exc.filename}: {exc.strerror}") from None
    except ParseError:
        raise
    except ValueError as exc:
        raise FormatError(f"{manifest_path}: {exc}") from None
