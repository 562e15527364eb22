"""Dataset ingestion, preprocessing and the synthetic slide generator."""

import hashlib
import json
import math
import os
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import bundle, bundles, token_stacks
from hypothesis import given, settings
from hypothesis import strategies as st

from bgtriplex import data, features
from bgtriplex.data import (ExpressionMatrix, SpotDataset, SpotRecord, grid_windows, load_dataset,
                            load_expression_matrix, load_spot_table, log1p_normalize,
                            save_dataset, select_top_k_genes, synth_dataset,
                            write_expression_matrix, write_spot_table)
from bgtriplex.errors import FormatError, ParseError

# sha256 of synth_dataset(6, 6, 32, 0.05, seed=13) counts; the counts are
# checked value by value against synth_oracle in TestSynthDataset
SYNTH_COUNTS_SHA256 = "eaa42876f31a0eaf8d08667d33331f5c4163785363b8f5cfd59f8586cd797b6f"
# sha256 over the sorted names and bytes of the files save_dataset writes to
# features/ for synth_dataset(3, 3, 4, 0.05, seed=21)
SAVED_FEATURES_SHA256 = "26828d5768e04927a007e4ab4ba51fa5a8957ba7a99a2db966c0e93a7f012158"


def _rng(*entropy):
    return np.random.default_rng(np.random.SeedSequence([int(e) for e in entropy]))


def _labelled(seed, *labels):
    """Entropy of a named substream: the seed, then each label as its CRC-32."""
    return [seed] + [zlib.crc32(label.encode("utf-8")) for label in labels]


def _scalar_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def synth_oracle(rows, cols, n_genes, noise_sd, seed, slide_id="synth", grid_tokens=4):
    """Straight-line scalar re-derivation of ``synth_dataset``.

    Written from the ``data``/``features`` docstrings, with the default
    stream dims (img 10, edge 6, nuc 8) and a 4-factor latent state. Only
    the random draws use numpy; every sum, product and transcendental is
    a Python scalar operation. Returns (tokens, counts): tokens[spot][stream]
    is a list of token rows, counts a list of per-spot count lists.
    """
    dims = (("img", 10, 11), ("edge", 6, 23), ("nuc", 8, 37))  # stream, channels, key
    latent_dim = 4
    dataset_seed = int(np.random.SeedSequence(_labelled(seed, "features", slide_id))
                       .generate_state(1, np.uint64)[0])

    # fixed channel loadings per (stream, dim): squared uniforms, rows sum to 1
    loadings = {}
    for stream, dim, key in dims:
        raw = _rng(8211, key, dim, latent_dim).uniform(0.05, 1.0, (dim, latent_dim)).tolist()
        loadings[stream] = [[x ** 2 / _scalar_sum(y ** 2 for y in row) for x in row]
                            for row in raw]

    # per-slide wave: direction (u, v), period and phase for each factor
    field = _rng(dataset_seed, 6007)
    u = field.uniform(-1.0, 1.0, latent_dim).tolist()
    v = field.uniform(-1.0, 1.0, latent_dim).tolist()
    period = field.uniform(4.0, 9.0, latent_dim).tolist()
    phase = field.uniform(0.0, 2.0 * math.pi, latent_dim).tolist()

    tokens, pooled = [], []
    for r in range(rows):
        for c in range(cols):
            jitter = _rng(dataset_seed, r, c, 5).uniform(-0.1, 0.1, latent_dim).tolist()
            latent = []
            for k in range(latent_dim):
                wave = 0.5 + 0.4 * math.sin(2.0 * math.pi * (u[k] * r + v[k] * c) / period[k]
                                            + phase[k])
                latent.append(min(max(wave + jitter[k], 0.0), 1.0))
            spot_tokens, spot_pooled = {}, []
            for stream, dim, key in dims:
                texture = _rng(dataset_seed, r, c, key).uniform(0.0, 1.0, (grid_tokens, dim))
                texture = texture.tolist()
                profile = [_scalar_sum(weight * state for weight, state in zip(row, latent))
                           for row in loadings[stream]]
                rows_t = [[float(np.float32(0.9 * profile[i] + 0.1 * texture[t][i]))
                           for i in range(dim)] for t in range(grid_tokens)]
                spot_tokens[stream] = rows_t
                spot_pooled += [_scalar_sum(rows_t[t][i] for t in range(grid_tokens)) / grid_tokens
                                for i in range(dim)]
            tokens.append(spot_tokens)
            pooled.append(spot_pooled)

    # weights: a shared plus an individual part per feature, columns scaled to gene_total
    n_features = len(pooled[0])
    rng_w = _rng(*_labelled(seed, "weights"))
    shared = rng_w.uniform(0.5, 1.5, n_features).tolist()
    individual = rng_w.uniform(0.0, 1.0, (n_features, n_genes)).tolist()
    gene_total = rng_w.uniform(2.4, 3.6, n_genes).tolist()
    raw = [[0.8 * shared[i] + 0.4 * individual[i][j] for j in range(n_genes)]
           for i in range(n_features)]
    col_sum = [_scalar_sum(raw[i][j] for i in range(n_features)) for j in range(n_genes)]
    weights = [[raw[i][j] / col_sum[j] * gene_total[j] for j in range(n_genes)]
               for i in range(n_features)]

    n_spots = rows * cols
    noise = [[0.0] * n_genes for _ in range(n_spots)]
    if noise_sd > 0:
        noise = _rng(*_labelled(seed, "noise", slide_id)).normal(0.0, noise_sd, (n_spots, n_genes))
        noise = noise.tolist()
    counts = []
    for s in range(n_spots):
        targets = [_scalar_sum(pooled[s][i] * weights[i][j] for i in range(n_features))
                   for j in range(n_genes)]
        counts.append([max(float(round(math.exp(targets[j] + noise[s][j]) - 1.0)), 0.0)
                       for j in range(n_genes)])
    return tokens, counts


def grid_records(rows, cols):
    return [SpotRecord(f"s{r}x{c}", r, c, c * 10.0, r * 10.0)
            for r in range(rows) for c in range(cols)]


class TestSpotTable:
    def test_single_record(self, tmp_path):
        path = tmp_path / "spots.tsv"
        path.write_text("spot_id\tarray_row\tarray_col\tpx_x\tpx_y\nA\t0\t1\t5.5\t7.25\n")
        records = load_spot_table(path)
        assert records == [SpotRecord("A", 0, 1, 5.5, 7.25)]

    def test_duplicate_grid_names_both_lines(self, tmp_path):
        path = tmp_path / "spots.tsv"
        path.write_text("spot_id\tarray_row\tarray_col\tpx_x\tpx_y\n"
                        "A\t0\t0\t0\t0\nB\t1\t0\t0\t0\nC\t0\t0\t9\t9\n")
        with pytest.raises(ParseError, match=r"line 4.*line 2"):
            load_spot_table(path)

    def test_round_trip(self, tmp_path):
        records = grid_records(3, 3)
        path = tmp_path / "spots.tsv"
        write_spot_table(path, records)
        assert load_spot_table(path) == records

    def test_bad_header(self, tmp_path):
        path = tmp_path / "spots.tsv"
        path.write_text("spot\trow\tcol\tx\ty\n")
        with pytest.raises(ParseError, match="line 1"):
            load_spot_table(path)

    def test_non_integer_grid_index(self, tmp_path):
        path = tmp_path / "spots.tsv"
        path.write_text("spot_id\tarray_row\tarray_col\tpx_x\tpx_y\nA\t0.5\t1\t0\t0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_spot_table(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "spots.tsv"
        path.write_text("spot_id\tarray_row\tarray_col\tpx_x\tpx_y\nA\t0\t1\t0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_spot_table(path)

    @pytest.mark.parametrize("px", ["nan\t0", "0\tinf", "-inf\t1"])
    def test_non_finite_pixel_coordinates(self, tmp_path, px):
        path = tmp_path / "spots.tsv"
        path.write_text("spot_id\tarray_row\tarray_col\tpx_x\tpx_y\n"
                        f"A\t0\t0\t0\t0\nB\t0\t1\t{px}\n")
        with pytest.raises(ParseError, match="line 3: pixel coordinates must be finite"):
            load_spot_table(path)


class TestExpressionMatrix:
    def test_single_cell(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("spot_id\tG1\nA\t5\n")
        expr = load_expression_matrix(path)
        assert expr.genes == ["G1"]
        np.testing.assert_array_equal(expr.values, [[5.0]])

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("spot_id\tG1\nA\t-2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_expression_matrix(path)

    def test_round_trip_and_join_order(self, tmp_path):
        rng = np.random.default_rng(11)
        genes = [f"G{j:02d}" for j in range(20)]
        values = np.floor(rng.uniform(0, 40, size=(9, 20)))
        ids = [f"s{i}" for i in range(9)]
        path = tmp_path / "expr.tsv"
        write_expression_matrix(path, ExpressionMatrix(genes, values), ids)
        back = load_expression_matrix(path, spot_ids=ids)
        np.testing.assert_array_equal(back.values, values)
        # join reorders rows to the spot table order
        shuffled = list(reversed(ids))
        reordered = load_expression_matrix(path, spot_ids=shuffled)
        np.testing.assert_array_equal(reordered.values, values[::-1])

    def test_unknown_spot_id(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("spot_id\tG1\nA\t1\nC\t2\nB\t3\n")
        with pytest.raises(ParseError, match="unknown spot_id 'C'"):
            load_expression_matrix(path, spot_ids=["A", "B"])

    def test_missing_spot_row(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("spot_id\tG1\nA\t1\n")
        with pytest.raises(ParseError, match="no expression row"):
            load_expression_matrix(path, spot_ids=["A", "B"])

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("spot_id\tG1\tG2\nA\t1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_expression_matrix(path)

    @pytest.mark.parametrize("count", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_count_rejected(self, tmp_path, count):
        path = tmp_path / "expr.tsv"
        path.write_text(f"spot_id\tG1\tG2\nA\t1\t2\nB\t3\t{count}\n")
        with pytest.raises(ParseError, match="line 3: counts must be finite"):
            load_expression_matrix(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_matrix_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError, match="must be finite"):
            ExpressionMatrix(["G1", "G2"], np.array([[1.0, value]]))

    def test_header_only_table_has_one_column_per_gene(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("spot_id\tG1\tG2\n")
        assert load_expression_matrix(path, spot_ids=[]).values.shape == (0, 2)


class TestLog1pNormalize:
    def test_zero_maps_to_zero_exactly(self):
        expr = ExpressionMatrix(["G"], np.array([[0.0]]))
        assert log1p_normalize(expr)[0, 0] == 0.0

    def test_e_minus_one_maps_to_one_exactly(self):
        expr = ExpressionMatrix(["G"], np.array([[math.e - 1.0]]))
        assert log1p_normalize(expr)[0, 0] == 1.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        counts = np.floor(rng.uniform(0, 500, size=(6, 9)))
        out = log1p_normalize(ExpressionMatrix([f"G{j}" for j in range(9)], counts))
        for i in range(6):
            for j in range(9):
                assert abs(out[i, j] - math.log(counts[i, j] + 1.0)) <= 1e-15

    def test_monotone_per_entry(self):
        counts = np.arange(0.0, 50.0)[:, None]
        out = log1p_normalize(ExpressionMatrix(["G"], counts))
        assert (np.diff(out[:, 0]) > 0).all()


class TestSelectTopK:
    def test_full_selection_sorted_descending(self):
        norm = np.array([[1.0, 3.0, 2.0], [1.0, 3.0, 2.0]])
        indices, names = select_top_k_genes(norm, ["a", "b", "c"], 3)
        assert names == ["b", "c", "a"]
        assert indices == [1, 2, 0]

    def test_tie_breaks_lexicographically(self):
        norm = np.array([[2.0, 2.0]])
        _, names = select_top_k_genes(norm, ["zz", "aa"], 1)
        assert names == ["aa"]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(200)
        norm = rng.uniform(0, 5, size=(9, 20))
        names = [f"G{j:02d}" for j in range(20)]
        indices, _ = select_top_k_genes(norm, names, 5)
        means = [(norm[:, j].sum() / 9, names[j], j) for j in range(20)]
        oracle = [j for _, _, j in sorted(means, key=lambda t: (-t[0], t[1]))][:5]
        assert indices == oracle

    def test_permutation_independent(self):
        rng = np.random.default_rng(77)
        norm = rng.uniform(0, 5, size=(6, 12))
        names = [f"G{j}" for j in range(12)]
        _, base = select_top_k_genes(norm, names, 4)
        perm = rng.permutation(12)
        _, shuffled = select_top_k_genes(norm[:, perm], [names[j] for j in perm], 4)
        assert base == shuffled

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            select_top_k_genes(np.ones((2, 3)), ["a", "b", "c"], 0)
        with pytest.raises(ValueError):
            select_top_k_genes(np.ones((2, 3)), ["a", "b", "c"], 4)


def present(row, n):
    return int((row < n).sum())


class TestGridWindows:
    def test_degenerate_window(self):
        table = grid_windows(grid_records(2, 2), 1)
        assert table.dtype == np.intp
        assert table.tolist() == [[0], [1], [2], [3]]

    def test_corner_of_3x3(self):
        table = grid_windows(grid_records(3, 3), 3)
        assert table.shape == (9, 9)
        assert table[0].reshape(3, 3).tolist() == [[9, 9, 9], [9, 0, 1], [9, 3, 4]]
        assert present(table[0], 9) == 4

    def test_interior_of_5x5(self):
        center = 12
        row = grid_windows(grid_records(5, 5), 3)[center]
        assert present(row, 25) == 9
        assert row[4] == center

    @pytest.mark.parametrize("d", [2, 0, -1])
    def test_even_or_nonpositive_d_rejected(self, d):
        with pytest.raises(ValueError):
            grid_windows(grid_records(2, 2), d)

    def test_duplicate_positions_rejected(self):
        spots = [SpotRecord("a", 1, 2, 0.0, 0.0), SpotRecord("b", 1, 2, 0.0, 0.0)]
        with pytest.raises(ValueError, match="duplicate"):
            grid_windows(spots, 1)

    def test_mask_count_exhaustive(self):
        for rows in range(1, 7):
            for cols in range(1, 7):
                spots = grid_records(rows, cols)
                for d in (1, 3, 5):
                    half = d // 2
                    table = grid_windows(spots, d)
                    for idx, spot in enumerate(spots):
                        in_grid = sum(
                            1
                            for dr in range(-half, half + 1)
                            for dc in range(-half, half + 1)
                            if 0 <= spot.array_row + dr < rows and 0 <= spot.array_col + dc < cols
                        )
                        assert present(table[idx], len(spots)) == in_grid

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=30)
           .flatmap(lambda cells: st.permutations(sorted(cells))),
           st.sampled_from([1, 3, 5, 7]), st.data())
    def test_membership_on_irregular_grids(self, cells, d, data):
        spots = [SpotRecord(f"s{i}", r, c, 0.0, 0.0) for i, (r, c) in enumerate(cells)]
        n = len(spots)
        center = data.draw(st.integers(0, n - 1), label="center")
        table = grid_windows(spots, d)
        assert table.shape == (n, d * d)
        row, col, half = spots[center].array_row, spots[center].array_col, d // 2
        for k, idx in enumerate(table[center]):
            at = (row + k // d - half, col + k % d - half)
            assert idx == (cells.index(at) if at in cells else n)
        in_reach = sum(1 for r, c in cells if abs(r - row) <= half and abs(c - col) <= half)
        assert present(table[center], n) == in_reach


class TestSynthDataset:
    def test_noiseless_counts_recover_linear_target(self):
        ds, weights = synth_dataset(4, 4, 8, 0.0, seed=3)
        pooled = np.array([np.concatenate([t.mean(axis=0) for t in b])
                           for b in bundles(ds)])
        target = pooled @ weights
        err = np.abs(np.log1p(ds.expr.values) - target)
        bound = np.log1p(0.5 / np.maximum(1.0, ds.expr.values))
        assert (err <= bound + 1e-12).all()

    def test_same_seed_bit_identical(self):
        a, wa = synth_dataset(3, 4, 6, 0.1, seed=9)
        b, wb = synth_dataset(3, 4, 6, 0.1, seed=9)
        np.testing.assert_array_equal(a.expr.values, b.expr.values)
        np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(bundles(a), bundles(b)):
            np.testing.assert_array_equal(ba[0], bb[0])

    @pytest.mark.parametrize("args", [(6, 6, 32, 0.05, 13), (3, 3, 4, 0.05, 23),
                                      (2, 3, 5, 0.0, 4)])
    def test_matches_scalar_oracle(self, args):
        ds, _ = synth_dataset(*args[:4], seed=args[4])
        tokens, counts = synth_oracle(*args)
        np.testing.assert_array_equal(ds.expr.values, counts)
        for bundle, expected in zip(bundles(ds), tokens):
            for stream, values in zip(features.STREAMS, bundle):
                np.testing.assert_array_equal(values, expected[stream], err_msg=stream)

    def test_golden_checksum(self):
        ds, _ = synth_dataset(6, 6, 32, 0.05, seed=13)
        digest = hashlib.sha256(ds.expr.values.tobytes()).hexdigest()
        assert digest == SYNTH_COUNTS_SHA256

    def test_weights_shared_across_slides(self):
        _, wa = synth_dataset(3, 3, 6, 0.05, seed=5, slide_id="A")
        _, wb = synth_dataset(3, 3, 6, 0.05, seed=5, slide_id="B")
        np.testing.assert_array_equal(wa, wb)
        a, _ = synth_dataset(3, 3, 6, 0.05, seed=5, slide_id="A")
        b, _ = synth_dataset(3, 3, 6, 0.05, seed=5, slide_id="B")
        assert (a.expr.values != b.expr.values).any()

    def test_counts_are_nonnegative_integers(self):
        ds, _ = synth_dataset(4, 4, 10, 0.3, seed=2)
        assert (ds.expr.values >= 0).all()
        np.testing.assert_array_equal(ds.expr.values, np.round(ds.expr.values))


class TestManifestRoundTrip:
    def test_save_then_load(self, tmp_path):
        ds, _ = synth_dataset(3, 3, 6, 0.05, seed=21)
        manifest = save_dataset(ds, tmp_path / "slide")
        back = load_dataset(manifest)
        assert back.slide_id == ds.slide_id
        assert [s.spot_id for s in back.spots] == [s.spot_id for s in ds.spots]
        np.testing.assert_array_equal(back.expr.values, ds.expr.values)
        for ba, bb in zip(bundles(back), bundles(ds)):
            for tokens_a, tokens_b in zip(ba, bb, strict=True):
                np.testing.assert_array_equal(tokens_a, tokens_b)

    def test_a_manifest_with_a_toy_block_loads(self, tmp_path):
        # manifests written before the toy provider was removed carry a "toy" block
        ds, _ = synth_dataset(2, 2, 4, 0.05, seed=31, slide_id="t")
        manifest = save_dataset(ds, tmp_path / "slide")
        doc = json.loads(manifest.read_text())
        assert "toy" not in doc
        doc["toy"] = {"dataset_seed": 1, "grid_tokens": 4,
                      "stream_dims": {"img": 10, "edge": 6, "nuc": 8}}
        manifest.write_text(json.dumps(doc))
        for ba, bb in zip(bundles(load_dataset(manifest)), bundles(ds)):
            for tokens_a, tokens_b in zip(ba, bb, strict=True):
                np.testing.assert_array_equal(tokens_a, tokens_b)

    def test_one_ctx_stream_file_reads_each_file_once(self, tmp_path, monkeypatch):
        ds, _ = synth_dataset(2, 3, 4, 0.05, seed=37)
        manifest = save_dataset(ds, tmp_path / "slide")
        rng = np.random.default_rng(37)
        edge_ctx = [rng.uniform(size=(5, 6)).astype(np.float32).astype(np.float64)
                    for _ in ds.spots]
        for spot, values in zip(ds.spots, edge_ctx):
            path = tmp_path / "slide" / "features" / f"{spot.spot_id}.edge.ctx.bgft"
            path.write_bytes(features.encode_bgft(values))
        reads, listings = [], []
        real_load, real_listdir = features.load_feature_file, features.os.listdir

        def counting_load(path, **kwargs):
            reads.append(os.path.basename(path))
            return real_load(path, **kwargs)

        def counting_listdir(path):
            listings.append(path)
            return real_listdir(path)

        monkeypatch.setattr(features, "load_feature_file", counting_load)
        monkeypatch.setattr(features.os, "listdir", counting_listdir)
        back = load_dataset(manifest)
        # each file's payload is read once; the ctx files are found by one listing
        assert len(reads) == len(set(reads)) == 4 * ds.n_spots
        assert len(listings) == 1
        for spot_tokens, ctx_tokens, loaded, loaded_ctx, edge in zip(
                bundles(ds), bundles(ds, "ctx"), bundles(back), bundles(back, "ctx"), edge_ctx):
            for stream, values, got in zip(features.STREAMS, spot_tokens, loaded):
                np.testing.assert_array_equal(got, values, err_msg=stream)
            np.testing.assert_array_equal(loaded_ctx[0], ctx_tokens[0])
            np.testing.assert_array_equal(loaded_ctx[2], ctx_tokens[2])
            np.testing.assert_array_equal(loaded_ctx[1], edge)


    def test_saved_feature_bytes_golden(self, tmp_path):
        ds, _ = synth_dataset(3, 3, 4, 0.05, seed=21)
        save_dataset(ds, tmp_path / "slide")
        digest = hashlib.sha256()
        for path in sorted((tmp_path / "slide" / "features").iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == SAVED_FEATURES_SHA256

    def test_own_ctx_files_survive_a_round_trip(self, tmp_path):
        manifest = mixed_ctx_slide(tmp_path / "slide")
        ds = load_dataset(manifest)
        back = load_dataset(save_dataset(ds, tmp_path / "again"))
        assert ds.token_stacks.keys() == back.token_stacks.keys()
        for key, (tokens, offsets) in ds.token_stacks.items():
            np.testing.assert_array_equal(back.token_stacks[key][0], tokens, err_msg=str(key))
            np.testing.assert_array_equal(back.token_stacks[key][1], offsets, err_msg=str(key))


def mixed_ctx_slide(out_dir):
    """A saved 2x3 slide (manifest path) in which every other spot has
    edge tokens of its own in the ctx scope, 5 of them."""
    ds, _ = synth_dataset(2, 3, 4, 0.05, seed=37)
    manifest = save_dataset(ds, out_dir)
    rng = np.random.default_rng(37)
    for spot in ds.spots[::2]:
        values = rng.uniform(size=(5, 6)).astype(np.float32).astype(np.float64)
        (out_dir / "features" / f"{spot.spot_id}.edge.ctx.bgft").write_bytes(
            features.encode_bgft(values))
    return manifest


def shared_streams(ds):
    """The streams whose ctx-scope stack is the spot-scope one."""
    return [stream for stream in features.STREAMS
            if ds.token_stacks[(stream, "ctx")] is ds.token_stacks[(stream, "spot")]]


class TestTokenStacks:
    def test_synth_and_fallback_slides_share_every_stream(self, tmp_path):
        ds, _ = synth_dataset(2, 3, 4, 0.05, seed=31, slide_id="t")
        manifest = save_dataset(ds, tmp_path / "slide")
        for slide in (ds, load_dataset(manifest)):
            assert shared_streams(slide) == ["img", "edge", "nuc"]

    def test_synth_stacks_are_views_of_one_buffer_per_stream(self):
        ds, _ = synth_dataset(2, 3, 4, 0.05, seed=31)
        for stream in features.STREAMS:
            tokens, offsets = ds.token_stacks[(stream, "spot")]
            assert tokens.base is not None and tokens.base.ndim == 3
            assert offsets.tolist() == list(range(0, 25, 4))

    def test_stacks_hold_float32_and_pooled_means_float64(self, tmp_path):
        synth, _ = synth_dataset(2, 3, 4, 0.05, seed=31)
        for slide in (synth, load_dataset(mixed_ctx_slide(tmp_path / "slide"))):
            assert {tokens.dtype for tokens, _ in slide.token_stacks.values()} == {np.dtype(np.float32)}
            image, offsets = slide.token_stacks[("img", "spot")]
            means = [np.array(image[a:b], dtype=np.float64).mean(axis=0)
                     for a, b in zip(offsets, offsets[1:])]
            assert slide.pooled_image_tokens.dtype == np.float64
            np.testing.assert_array_equal(slide.pooled_image_tokens[:-1], means)

    def test_own_edge_ctx_files_keep_a_stack_of_their_own(self, tmp_path):
        ds = load_dataset(mixed_ctx_slide(tmp_path / "slide"))
        assert shared_streams(ds) == ["img", "nuc"]
        tokens, offsets = ds.token_stacks[("edge", "ctx")]
        assert np.diff(offsets).tolist() == [5, 4, 5, 4, 5, 4]
        spot_tokens, spot_offsets = ds.token_stacks[("edge", "spot")]
        np.testing.assert_array_equal(tokens[offsets[1]:offsets[2]],
                                      spot_tokens[spot_offsets[1]:spot_offsets[2]])

    def test_a_write_into_a_stack_raises(self):
        ds, _ = synth_dataset(2, 2, 4, 0.05, seed=5)
        tokens, offsets = ds.token_stacks[("img", "ctx")]
        for array in (tokens, offsets, ds.pooled_image_tokens, bundle(ds, 1, "ctx")[1]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    @pytest.mark.parametrize("scope", ["spot", "ctx"])
    def test_a_stream_of_two_widths_in_its_files_is_refused(self, tmp_path, scope):
        ds, _ = synth_dataset(2, 2, 4, 0.05, seed=5)
        manifest = save_dataset(ds, tmp_path / "slide")
        path = tmp_path / "slide" / "features" / f"s1x0.nuc.{scope}.bgft"
        path.write_bytes(features.encode_bgft(bundle(ds, 2)[2][:, :5]))
        with pytest.raises(FormatError, match=f"nuc tokens of spot 's1x0' are 5 wide in the "
                                              f"{scope} scope, not 8"):
            load_dataset(manifest)

    def test_a_stream_of_two_widths_across_scopes_is_refused(self):
        ds, _ = synth_dataset(2, 2, 4, 0.05, seed=5)
        narrow = [(image, edge, nuclei[:, :5]) for image, edge, nuclei in bundles(ds)]
        with pytest.raises(ValueError, match="nuc tokens of spot 's0x0' are 5 wide in the "
                                             "ctx scope, not 8"):
            SpotDataset(ds.spots, ds.expr, token_stacks(bundles(ds), narrow), "ragged")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scope", ["spot", "ctx"])
    def test_a_non_finite_token_is_refused(self, scope, value):
        ds, _ = synth_dataset(2, 2, 4, 0.05, seed=5)
        bad = [[tokens.copy() for tokens in spot_tokens] for spot_tokens in bundles(ds)]
        bad[3][1][2, 4] = value
        spot, ctx = (bad, None) if scope == "spot" else (bundles(ds), bad)
        with pytest.raises(ValueError, match=f"edge tokens of spot 's1x1' are not all finite "
                                             f"in the {scope} scope"):
            SpotDataset(ds.spots, ds.expr, token_stacks(spot, ctx), "bad")

    @pytest.mark.parametrize("fault", ["rows", "offsets", "empty spot", "3-D"])
    def test_stacks_that_do_not_fit_the_spots_are_refused(self, fault):
        ds, _ = synth_dataset(2, 2, 4, 0.05, seed=5)
        stacks = dict(ds.token_stacks)
        tokens, offsets = stacks[("edge", "spot")]
        if fault == "rows":
            stacks[("edge", "spot")] = (tokens[:-1], offsets)
        elif fault == "offsets":
            stacks[("edge", "spot")] = (tokens, offsets[:-1])
        elif fault == "empty spot":
            stacks[("edge", "spot")] = (tokens[:-4], np.array([0, 4, 4, 8, 12]))
        else:
            stacks[("edge", "spot")] = (tokens.reshape(4, 4, 6), offsets)
        with pytest.raises(ValueError, match="edge tokens in the spot scope are not a"):
            SpotDataset(ds.spots, ds.expr, stacks, "bad")


class TestManifestFaults:
    @pytest.mark.parametrize("key", ["spots", "expression", "slide_id", "features"])
    def test_missing_key_names_it(self, tmp_path, key):
        ds, _ = synth_dataset(2, 2, 4, 0.05, seed=41)
        manifest = save_dataset(ds, tmp_path / "slide")
        doc = json.loads(manifest.read_text())
        del doc[key]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=repr(key)):
            load_dataset(manifest)

    def test_a_slide_without_spots_is_refused(self, tmp_path):
        ds, _ = synth_dataset(2, 2, 4, 0.05, seed=41)
        manifest = save_dataset(ds, tmp_path / "slide")
        write_spot_table(tmp_path / "slide" / "spots.tsv", [])
        write_expression_matrix(tmp_path / "slide" / "expression.tsv", ExpressionMatrix(
            ds.expr.genes, np.zeros((0, 4))), [])
        with pytest.raises(FormatError, match="spots \\(at least one\\)"):
            load_dataset(manifest)

    def test_non_object_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[1]")
        with pytest.raises(FormatError, match="entry in the manifest"):
            load_dataset(manifest)

    @pytest.mark.parametrize("name", ["spots.tsv", "expression.tsv",
                                      "features/s1x0.nuc.spot.bgft"])
    def test_missing_named_file_names_it(self, tmp_path, name):
        ds, _ = synth_dataset(2, 2, 4, 0.05, seed=41)
        manifest = save_dataset(ds, tmp_path / "slide")
        (tmp_path / "slide" / name).unlink()
        with pytest.raises(FormatError, match=Path(name).name):
            load_dataset(manifest)


def test_windows_are_built_once_per_size(monkeypatch):
    ds, _ = synth_dataset(3, 4, 4, 0.05, seed=43)
    calls = []
    real = data.grid_windows

    def counting(spots, d):
        calls.append(d)
        return real(spots, d)

    monkeypatch.setattr(data, "grid_windows", counting)
    first = ds.windows(3)
    np.testing.assert_array_equal(first, real(ds.spots, 3))
    assert ds.windows(3) is first and ds.windows(1) is ds.windows(1)
    assert calls == [3, 1]
