"""Feature providers, the BGFT binary format and the stream projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bgtriplex.autodiff import Tensor, grad_check, mean_all
from bgtriplex.data import SpotRecord
from bgtriplex.errors import FormatError
from bgtriplex.features import (FeatureBundle, PrecomputedFeatureProvider,
                                ToyFeatureProvider, decode_bgft, encode_bgft,
                                feature_transform, load_feature_file, toy_extract)


def write_bgft(path, array):
    path.write_bytes(encode_bgft(array))


def spot(r, c):
    return SpotRecord(f"s{r}x{c}", r, c, 0.0, 0.0)


class TestToyExtract:
    def test_deterministic(self):
        a = toy_extract(spot(2, 3), dataset_seed=99, grid_tokens=4)
        b = toy_extract(spot(2, 3), dataset_seed=99, grid_tokens=4)
        np.testing.assert_array_equal(a.image_tokens, b.image_tokens)
        np.testing.assert_array_equal(a.edge_tokens, b.edge_tokens)
        np.testing.assert_array_equal(a.nuclei_tokens, b.nuclei_tokens)

    def test_distinct_spots_differ(self):
        for seed in range(1, 101):
            a = toy_extract(spot(0, 0), dataset_seed=seed, grid_tokens=1)
            b = toy_extract(spot(0, 1), dataset_seed=seed, grid_tokens=1)
            assert (a.image_tokens != b.image_tokens).any()

    def test_streams_are_distinct(self):
        bundle = toy_extract(spot(1, 1), dataset_seed=7, grid_tokens=4)
        assert bundle.image_tokens.shape != bundle.edge_tokens.shape or \
            (bundle.image_tokens[:, :6] != bundle.edge_tokens).any()

    def test_single_token_shapes(self):
        bundle = toy_extract(spot(0, 0), dataset_seed=1, grid_tokens=1)
        assert bundle.image_tokens.shape == (1, 10)
        assert bundle.edge_tokens.shape == (1, 6)
        assert bundle.nuclei_tokens.shape == (1, 8)

    def test_unsupported_grid_tokens(self):
        with pytest.raises(ValueError):
            toy_extract(spot(0, 0), dataset_seed=1, grid_tokens=5)

    def test_provider_referentially_transparent(self):
        p1 = ToyFeatureProvider(5, grid_tokens=4)
        p2 = ToyFeatureProvider(5, grid_tokens=4)
        a = p1.bundle(spot(3, 1))
        b = p2.bundle(spot(3, 1))
        np.testing.assert_array_equal(a.image_tokens, b.image_tokens)


class TestBundleValidation:
    def test_rejects_nan(self):
        bad = np.array([[np.nan, 1.0]])
        with pytest.raises(ValueError):
            FeatureBundle(bad, np.ones((1, 2)), np.ones((1, 2)))


class TestBgftFormat:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "one.bgft"
        write_bgft(path, np.array([2.5]))
        np.testing.assert_array_equal(load_feature_file(path), [2.5])

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.bgft"
        write_bgft(path, np.arange(6.0).reshape(2, 3))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="truncated payload"):
            load_feature_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bgft"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="bad magic at byte 0"):
            load_feature_file(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v.bgft"
        write_bgft(path, np.ones(2))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_feature_file(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.bgft"
        write_bgft(path, np.ones(2))
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(FormatError, match="trailing"):
            load_feature_file(path)

    def test_round_trip_random_shapes(self, tmp_path):
        rng = np.random.default_rng(15)
        for i in range(20):
            ndim = int(rng.integers(1, 4))
            shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
            # float32-representable values round-trip bit-exactly
            values = rng.normal(size=shape).astype(np.float32).astype(np.float64)
            path = tmp_path / f"r{i}.bgft"
            write_bgft(path, values)
            back = load_feature_file(path)
            assert back.shape == shape
            np.testing.assert_array_equal(back, values)
            write_bgft(tmp_path / "again.bgft", back)
            assert (tmp_path / "again.bgft").read_bytes() == path.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=4, max_side=4),
                               elements=st.floats(width=32, allow_nan=False)),
                    min_size=1, max_size=3))
    def test_decode_inverts_encode(self, arrays):
        # records decode back to back; float32 values, signed zeros and
        # infinities included, come back bit for bit
        blob = b"".join(encode_bgft(a.astype(np.float64)) for a in arrays)
        offset = 0
        for expected in arrays:
            back, offset = decode_bgft(blob, offset)
            assert back.dtype == np.float64 and back.shape == expected.shape
            assert back.astype(np.float32).tobytes() == expected.tobytes()
        assert offset == len(blob)


class TestPrecomputedProvider:
    def test_reads_spot_files_with_ctx_fallback(self, tmp_path):
        rng = np.random.default_rng(3)
        s = spot(0, 0)
        for stream, dim in (("img", 4), ("edge", 3), ("nuc", 5)):
            write_bgft(tmp_path / f"{s.spot_id}.{stream}.spot.bgft",
                               rng.normal(size=(2, dim)).astype(np.float32))
        provider = PrecomputedFeatureProvider(tmp_path)
        spot_bundle = provider.bundle(s, "spot")
        ctx_bundle = provider.bundle(s, "ctx")
        np.testing.assert_array_equal(spot_bundle.image_tokens, ctx_bundle.image_tokens)

    def test_ctx_files_take_precedence(self, tmp_path):
        rng = np.random.default_rng(4)
        s = spot(1, 1)
        for stream, dim in (("img", 4), ("edge", 3), ("nuc", 5)):
            write_bgft(tmp_path / f"{s.spot_id}.{stream}.spot.bgft",
                               rng.normal(size=(2, dim)).astype(np.float32))
            write_bgft(tmp_path / f"{s.spot_id}.{stream}.ctx.bgft",
                               rng.normal(size=(3, dim)).astype(np.float32))
        provider = PrecomputedFeatureProvider(tmp_path)
        assert provider.bundle(s, "ctx").image_tokens.shape == (3, 4)
        assert provider.bundle(s, "spot").image_tokens.shape == (2, 4)


class TestFeatureTransform:
    def test_identity_projection(self):
        tokens = np.random.default_rng(0).normal(size=(3, 4))
        out = feature_transform(Tensor(tokens), Tensor(np.eye(4)))
        np.testing.assert_array_equal(out.data, tokens)

    def test_zero_projection(self):
        tokens = np.ones((2, 4))
        out = feature_transform(Tensor(tokens), Tensor(np.zeros((4, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(5)
        tokens = rng.normal(size=(3, 5))
        proj = rng.normal(size=(5, 4))
        out = feature_transform(Tensor(tokens), Tensor(proj)).data
        for i in range(3):
            for j in range(4):
                expected = sum(tokens[i, t] * proj[t, j] for t in range(5))
                assert abs(out[i, j] - expected) <= 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(6)
        tokens = Tensor(rng.normal(size=(3, 5)))
        proj = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        err = grad_check(lambda p: mean_all(feature_transform(tokens, p)), proj)
        assert err <= 1e-8
