"""Dataset ingestion, preprocessing and the synthetic slide generator."""

import hashlib
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgtriplex import features
from bgtriplex.data import (ExpressionMatrix, SpotRecord, context_window, grid_index,
                            load_dataset, load_expression_matrix, load_spot_table,
                            log1p_normalize, save_dataset, select_top_k_genes,
                            synth_dataset, write_expression_matrix, write_spot_table)
from bgtriplex.errors import ParseError

# sha256 of synth_dataset(6, 6, 32, 0.05, seed=13) counts; the counts are
# checked value by value against synth_oracle in TestSynthDataset
SYNTH_COUNTS_SHA256 = "eaa42876f31a0eaf8d08667d33331f5c4163785363b8f5cfd59f8586cd797b6f"


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


def present(window):
    return sum(idx is not None for row in window.member_indices for idx in row)


class TestContextWindow:
    def test_degenerate_window(self):
        spots = grid_records(2, 2)
        win = context_window(spots, 3, 1)
        assert win.member_indices == [[3]]
        assert present(win) == 1

    def test_corner_of_3x3(self):
        spots = grid_records(3, 3)
        win = context_window(spots, 0, 3)
        assert present(win) == 4
        assert win.member_indices[1][1] == 0
        assert win.member_indices[1][2] == 1
        assert win.member_indices[2][1] == 3
        assert win.member_indices[2][2] == 4
        assert win.member_indices[0] == [None, None, None]

    def test_interior_of_5x5(self):
        spots = grid_records(5, 5)
        center = 12
        win = context_window(spots, center, 3)
        assert present(win) == 9
        assert win.member_indices[1][1] == center

    def test_even_d_rejected(self):
        with pytest.raises(ValueError):
            context_window(grid_records(2, 2), 0, 2)

    def test_mask_count_exhaustive(self):
        for rows in range(1, 7):
            for cols in range(1, 7):
                spots = grid_records(rows, cols)
                for d in (1, 3, 5):
                    half = d // 2
                    for idx, spot in enumerate(spots):
                        win = context_window(spots, idx, d)
                        in_grid = sum(
                            1
                            for dr in range(-half, half + 1)
                            for dc in range(-half, half + 1)
                            if 0 <= spot.array_row + dr < rows and 0 <= spot.array_col + dc < cols
                        )
                        assert present(win) == in_grid

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=30)
           .flatmap(lambda cells: st.permutations(sorted(cells))),
           st.sampled_from([1, 3, 5, 7]), st.data())
    def test_membership_on_irregular_grids(self, cells, d, data):
        spots = [SpotRecord(f"s{i}", r, c, 0.0, 0.0) for i, (r, c) in enumerate(cells)]
        center = data.draw(st.integers(0, len(spots) - 1), label="center")
        win = context_window(spots, center, d)
        assert context_window(spots, center, d, grid_index(spots)) == win
        row, col, half = spots[center].array_row, spots[center].array_col, d // 2
        assert win.center == center and len(win.member_indices) == d
        for r, cells_in_row in enumerate(win.member_indices):
            assert len(cells_in_row) == d
            for c, idx in enumerate(cells_in_row):
                at = (row + r - half, col + c - half)
                expected = cells.index(at) if at in cells else None
                assert idx == expected
        in_reach = sum(1 for r, c in cells if abs(r - row) <= half and abs(c - col) <= half)
        assert present(win) == in_reach


class TestSynthDataset:
    def test_noiseless_counts_recover_linear_target(self):
        ds, weights = synth_dataset(4, 4, 8, 0.0, seed=3)
        pooled = np.array([b.pooled_vector() for b in ds.features])
        target = pooled @ weights
        err = np.abs(np.log1p(ds.expr.values) - target)
        bound = np.log1p(0.5 / np.maximum(1.0, ds.expr.values))
        assert (err <= bound + 1e-12).all()

    def test_same_seed_bit_identical(self):
        a, wa = synth_dataset(3, 4, 6, 0.1, seed=9)
        b, wb = synth_dataset(3, 4, 6, 0.1, seed=9)
        np.testing.assert_array_equal(a.expr.values, b.expr.values)
        np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.features, b.features):
            np.testing.assert_array_equal(ba.image_tokens, bb.image_tokens)

    @pytest.mark.parametrize("args", [(6, 6, 32, 0.05, 13), (3, 3, 4, 0.05, 23),
                                      (2, 3, 5, 0.0, 4)])
    def test_matches_scalar_oracle(self, args):
        ds, _ = synth_dataset(*args[:4], seed=args[4])
        tokens, counts = synth_oracle(*args)
        np.testing.assert_array_equal(ds.expr.values, counts)
        for bundle, expected in zip(ds.features, tokens):
            for stream, values in bundle.streams():
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
        for ba, bb in zip(back.features, ds.features):
            np.testing.assert_array_equal(ba.image_tokens, bb.image_tokens)
            np.testing.assert_array_equal(ba.edge_tokens, bb.edge_tokens)
            np.testing.assert_array_equal(ba.nuclei_tokens, bb.nuclei_tokens)

    def test_toy_provider_matches_files(self, tmp_path):
        from bgtriplex.seeding import derive_seed

        ds, _ = synth_dataset(2, 2, 4, 0.05, seed=31, slide_id="t")
        toy = {"dataset_seed": derive_seed(31, "features", "t"), "grid_tokens": 4,
               "stream_dims": {"img": 10, "edge": 6, "nuc": 8}}
        manifest = save_dataset(ds, tmp_path / "slide", toy_meta=toy)
        from_files = load_dataset(manifest, provider="precomputed")
        from_toy = load_dataset(manifest, provider="toy")
        for ba, bb in zip(from_files.features, from_toy.features):
            np.testing.assert_array_equal(ba.image_tokens, bb.image_tokens)

    def test_one_ctx_stream_file_reads_each_file_once(self, tmp_path, monkeypatch):
        ds, _ = synth_dataset(2, 3, 4, 0.05, seed=37)
        manifest = save_dataset(ds, tmp_path / "slide")
        rng = np.random.default_rng(37)
        edge_ctx = [rng.uniform(size=(5, 6)).astype(np.float32).astype(np.float64)
                    for _ in ds.spots]
        for spot, values in zip(ds.spots, edge_ctx):
            path = tmp_path / "slide" / "features" / f"{spot.spot_id}.edge.ctx.bgft"
            path.write_bytes(features.encode_bgft(values))
        reads = []
        real_load = features.load_feature_file

        def counting_load(path):
            reads.append(path.name)
            return real_load(path)

        monkeypatch.setattr(features, "load_feature_file", counting_load)
        back = load_dataset(manifest)
        assert len(reads) == len(set(reads)) == 4 * ds.n_spots
        for bundle, ctx_bundle, loaded, loaded_ctx, edge in zip(
                ds.features, ds.features_ctx, back.features, back.features_ctx, edge_ctx):
            for (stream, values), (_, got) in zip(bundle.streams(), loaded.streams()):
                np.testing.assert_array_equal(got, values, err_msg=stream)
            np.testing.assert_array_equal(loaded_ctx.image_tokens, ctx_bundle.image_tokens)
            np.testing.assert_array_equal(loaded_ctx.nuclei_tokens, ctx_bundle.nuclei_tokens)
            np.testing.assert_array_equal(loaded_ctx.edge_tokens, edge)
