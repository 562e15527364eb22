"""The toy extractor, the BGFT binary format and the token-stack reader."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bgtriplex.data import SpotRecord
from bgtriplex.errors import FormatError
from bgtriplex.features import (decode_bgft, encode_bgft, load_feature_file, read_token_stacks,
                                toy_extract)


def write_bgft(path, array):
    path.write_bytes(encode_bgft(array))


def spot(r, c):
    return SpotRecord(f"s{r}x{c}", r, c, 0.0, 0.0)


class TestToyExtract:
    def test_deterministic(self):
        a = toy_extract(spot(2, 3), dataset_seed=99, grid_tokens=4)
        b = toy_extract(spot(2, 3), dataset_seed=99, grid_tokens=4)
        for tokens_a, tokens_b in zip(a, b, strict=True):
            np.testing.assert_array_equal(tokens_a, tokens_b)

    def test_distinct_spots_differ(self):
        for seed in range(1, 101):
            a = toy_extract(spot(0, 0), dataset_seed=seed, grid_tokens=1)
            b = toy_extract(spot(0, 1), dataset_seed=seed, grid_tokens=1)
            assert (a[0] != b[0]).any()

    def test_streams_are_distinct(self):
        image, edge, _ = toy_extract(spot(1, 1), dataset_seed=7, grid_tokens=4)
        assert image.shape != edge.shape or (image[:, :6] != edge).any()

    def test_single_token_shapes(self):
        tokens = toy_extract(spot(0, 0), dataset_seed=1, grid_tokens=1)
        assert [t.shape for t in tokens] == [(1, 10), (1, 6), (1, 8)]

    def test_unsupported_grid_tokens(self):
        with pytest.raises(ValueError):
            toy_extract(spot(0, 0), dataset_seed=1, grid_tokens=5)


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
        # infinities included, come back bit for bit, also decoded into a
        # float32 array
        blob = b"".join(encode_bgft(a.astype(np.float64)) for a in arrays)
        offset = 0
        for expected in arrays:
            out = np.empty(expected.shape, dtype=np.float32)
            assert decode_bgft(blob, offset, out)[0] is out
            assert out.tobytes() == expected.tobytes()
            back, offset = decode_bgft(blob, offset)
            assert back.dtype == np.float64 and back.shape == expected.shape
            assert back.astype(np.float32).tobytes() == expected.tobytes()
        assert offset == len(blob)

    def test_decoding_into_an_array_of_another_shape_is_refused(self):
        blob = encode_bgft(np.ones((3, 2)))
        with pytest.raises(FormatError, match=r"\(3, 2\).*\(2, 3\)"):
            decode_bgft(blob, 0, np.empty((2, 3), dtype=np.float32))


DIMS = (("img", 4), ("edge", 3), ("nuc", 5))


def write_slide(prefix, spots, counts, scope="spot", seed=3):
    """One BGFT file per spot and stream in ``scope``, ``counts[s]`` tokens
    for spot s, widths ``DIMS``; returns {(stream, spot index): tokens}."""
    rng = np.random.default_rng(seed)
    written = {}
    for s, (record, count) in enumerate(zip(spots, counts)):
        for stream, dim in DIMS:
            values = rng.normal(size=(count, dim)).astype(np.float32).astype(np.float64)
            write_bgft(prefix / f"{record.spot_id}.{stream}.{scope}.bgft", values)
            written[(stream, s)] = values
    return written


class TestReadTokenStacks:
    def test_ctx_scope_without_files_shares_the_spot_entry(self, tmp_path):
        spots = [spot(0, 0), spot(0, 1)]
        written = write_slide(tmp_path, spots, [2, 3])
        stacks = read_token_stacks(tmp_path, spots)
        for stream, dim in DIMS:
            tokens, offsets = stacks[(stream, "spot")]
            assert stacks[(stream, "ctx")] is stacks[(stream, "spot")]
            assert tokens.shape == (5, dim) and offsets.tolist() == [0, 2, 5]
            np.testing.assert_array_equal(tokens, np.vstack([written[(stream, 0)],
                                                             written[(stream, 1)]]))

    def test_ctx_files_take_precedence(self, tmp_path):
        spots = [spot(1, 1), spot(1, 2)]
        own = write_slide(tmp_path, spots, [2, 2], seed=4)
        ctx = write_slide(tmp_path, spots[:1], [3], scope="ctx", seed=5)
        stacks = read_token_stacks(tmp_path, spots)
        for stream, _ in DIMS:
            tokens, offsets = stacks[(stream, "ctx")]
            assert offsets.tolist() == [0, 3, 5]
            np.testing.assert_array_equal(tokens[:3], ctx[(stream, 0)])
            np.testing.assert_array_equal(tokens[3:], own[(stream, 1)])
            assert stacks[(stream, "spot")][1].tolist() == [0, 2, 4]

    @pytest.mark.parametrize("shape", [(2, 3, 4), (4,)])
    def test_a_file_that_is_not_a_matrix_names_its_spot_and_stream(self, tmp_path, shape):
        spots = [spot(0, 0), spot(0, 1)]
        write_slide(tmp_path, spots, [2, 2])
        write_bgft(tmp_path / "s0x1.edge.spot.bgft", np.ones(shape))
        with pytest.raises(FormatError, match=f"edge tokens of spot 's0x1' have shape "
                                              rf"\({', '.join(map(str, shape))},?\) in the spot"):
            read_token_stacks(tmp_path, spots)

    @pytest.mark.parametrize("fault", ["magic", "truncated", "trailing"])
    def test_a_malformed_file_is_named(self, tmp_path, fault):
        spots = [spot(0, 0), spot(0, 1)]
        write_slide(tmp_path, spots, [2, 2])
        path = tmp_path / "s0x1.nuc.spot.bgft"
        blob = path.read_bytes()
        path.write_bytes({"magic": b"NOPE" + blob[4:], "truncated": blob[:-1],
                          "trailing": blob + b"!"}[fault])
        with pytest.raises(FormatError, match="s0x1.nuc.spot.bgft: "):
            read_token_stacks(tmp_path, spots)
