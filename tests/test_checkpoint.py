"""BGCK checkpoints: round trip, record layout, legacy metadata and damage."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import init_oracle

from bgtriplex.checkpoint import load_checkpoint, save_checkpoint
from bgtriplex.errors import FormatError
from bgtriplex.model import ModelConfig, ModelParams

TINY = ModelConfig(d_model=4, n_heads=2, stream_dims={"img": 3, "edge": 2, "nuc": 2})
GENES = ["G0", "G1"]
TINY_RECORDS = init_oracle(TINY, len(GENES), 7)


def bgft_record(values):
    """One BGFT record from the format description: magic, u32 version 1,
    u32 ndim, u32 extents, then little-endian float32 values in C order."""
    values = np.asarray(values)
    header = b"BGFT" + struct.pack("<II", 1, values.ndim)
    header += b"".join(struct.pack("<I", extent) for extent in values.shape)
    return header + b"".join(struct.pack("<f", v) for v in values.reshape(-1).tolist())


def bgck_bytes(model_doc, d_context, genes, records):
    """A whole checkpoint: magic, u32 version 2, u32-length JSON metadata, records."""
    meta = json.dumps({"model": model_doc, "d_context": d_context, "genes": genes},
                      sort_keys=True).encode("utf-8")
    return (b"BGCK" + struct.pack("<II", 2, len(meta)) + meta
            + b"".join(bgft_record(values) for _, values in records))


def drawn_params(config, seed):
    params = ModelParams(config, k_genes=len(GENES), seed=seed)
    rng = np.random.default_rng(seed)
    for _, values in params.records():
        values[...] = rng.normal(size=values.shape)
    return params


def test_round_trip(tmp_path):
    params = drawn_params(TINY, 3)
    path = tmp_path / "a.bgck"
    save_checkpoint(path, params, 3, GENES)
    loaded, d_context, genes = load_checkpoint(path)
    assert (loaded.config, d_context, genes) == (TINY, 3, GENES)
    for (name, values), (_, back) in zip(params.named(), loaded.named()):
        np.testing.assert_array_equal(back.data, values.data.astype(np.float32), err_msg=name)
    save_checkpoint(tmp_path / "b.bgck", loaded, 3, GENES)
    assert (tmp_path / "b.bgck").read_bytes() == path.read_bytes()


FLAGS = ("drop_spot", "drop_ctx", "drop_global", "no_edge_spot", "no_nuclei_spot",
         "no_edge_ctx", "no_nuclei_ctx")

configs = st.builds(
    lambda n_heads, d_head, dims, flags, eps: ModelConfig(
        d_model=n_heads * d_head, n_heads=n_heads, stream_dims=dims, eps=eps, **flags),
    st.integers(1, 3), st.integers(1, 3),
    st.fixed_dictionaries({stream: st.integers(1, 4) for stream in ("img", "edge", "nuc")}),
    st.fixed_dictionaries({flag: st.booleans() for flag in FLAGS}).filter(
        lambda f: not (f["drop_spot"] and f["drop_ctx"])),
    st.floats(1e-12, 1e-2))


@settings(max_examples=15, deadline=None)
@given(configs, st.integers(0, 4).map(lambda k: 2 * k + 1),
       st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True),
       st.integers(0, 2 ** 32 - 1))
def test_round_trip_property(tmp_path_factory, config, d_context, genes, seed):
    params = ModelParams(config, k_genes=len(genes), seed=seed)
    rng = np.random.default_rng(seed)
    for _, values in params.records():
        values[...] = rng.normal(size=values.shape).astype(np.float32)
    path = tmp_path_factory.mktemp("bgck") / "p.bgck"
    save_checkpoint(path, params, d_context, genes)
    loaded, back_context, back_genes = load_checkpoint(path)
    assert (loaded.config, back_context, back_genes) == (config, d_context, genes)
    for (name, values), (_, back) in zip(params.named(), loaded.named()):
        np.testing.assert_array_equal(back.data, values.data, err_msg=name)


@pytest.mark.parametrize("config", [TINY, ModelConfig()])
def test_bytes_match_independent_writer_of_per_head_draws(tmp_path, config):
    params = ModelParams(config, k_genes=len(GENES), seed=5)
    save_checkpoint(tmp_path / "c.bgck", params, 5, GENES)
    expected = bgck_bytes(config.to_dict(), 5, GENES, init_oracle(config, len(GENES), 5))
    assert (tmp_path / "c.bgck").read_bytes() == expected


def test_legacy_metadata_loads(tmp_path):
    doc = dict(TINY.to_dict(), guide_mode="mca", tokens_per_stream=4)
    path = tmp_path / "legacy.bgck"
    path.write_bytes(bgck_bytes(doc, 3, GENES, TINY_RECORDS))
    params, d_context, genes = load_checkpoint(path)
    assert (params.config, d_context, genes) == (TINY, 3, GENES)
    for (name, values), (_, drawn) in zip(params.records(), TINY_RECORDS):
        np.testing.assert_array_equal(values, drawn.astype(np.float32), err_msg=name)


@pytest.mark.parametrize("extra", [{"guide_mode": "concat"}, {"guide_mode": "sum"},
                                   {"tokens_per_step": 4}, {"drop_spot": True, "drop_ctx": True},
                                   {"drop_spot": "no"}, {"eps": "1e-5"}, {"n_heads": 2.0},
                                   {"stream_dims": {"img": 3.0, "edge": 2, "nuc": 2}},
                                   {"stream_dims": {"img": 3, "edge": 2}},
                                   {"stream_dims": {"img": -10, "edge": 2, "nuc": 2}},
                                   {"stream_dims": {"img": 3, "edge": 2, "nuc": 2, "x": 4}}])
def test_unsupported_metadata_rejected(tmp_path, extra):
    path = tmp_path / "bad.bgck"
    path.write_bytes(bgck_bytes(dict(TINY.to_dict(), **extra), 3, GENES, TINY_RECORDS))
    with pytest.raises(FormatError, match="invalid metadata"):
        load_checkpoint(path)


@pytest.mark.parametrize("sizes", [{"n_heads": 0}, {"d_model": 0}, {"n_heads": -2},
                                   {"d_model": -8, "n_heads": 2}])
def test_non_positive_model_sizes_rejected(tmp_path, sizes):
    path = tmp_path / "n.bgck"
    path.write_bytes(bgck_bytes(dict(TINY.to_dict(), **sizes), 3, GENES, TINY_RECORDS))
    with pytest.raises(FormatError, match="d_model and n_heads must be positive"):
        load_checkpoint(path)


@pytest.mark.parametrize("d_context", [4, 0, -1, 3.0, 2.5, "3", True, None])
def test_window_size_must_be_positive_odd_integer_on_load(tmp_path, d_context):
    path = tmp_path / "w.bgck"
    path.write_bytes(bgck_bytes(TINY.to_dict(), d_context, GENES, TINY_RECORDS))
    with pytest.raises(FormatError, match="d_context must be a positive odd integer"):
        load_checkpoint(path)


@pytest.mark.parametrize("d_context", [4, 0, 3.0, True])
def test_window_size_must_be_positive_odd_integer_on_save(tmp_path, d_context):
    path = tmp_path / "w.bgck"
    with pytest.raises(ValueError, match="d_context must be a positive odd integer"):
        save_checkpoint(path, drawn_params(TINY, 4), d_context, GENES)
    assert not path.exists()


def field_spans(blob):
    """(start, end) of each header field, then of each field of every record."""
    meta_end = 12 + struct.unpack_from("<I", blob, 8)[0]
    spans = [(0, 4), (4, 8), (8, 12), (12, meta_end)]
    offset = meta_end
    while offset < len(blob):
        ndim = struct.unpack_from("<I", blob, offset + 8)[0]
        extents_end = offset + 12 + 4 * ndim
        count = int(np.prod(struct.unpack_from(f"<{ndim}I", blob, offset + 12)))
        spans += [(offset, offset + 4), (offset + 4, offset + 8), (offset + 8, offset + 12),
                  (offset + 12, extents_end), (extents_end, extents_end + 4 * count)]
        offset = extents_end + 4 * count
    return spans


def test_truncation_inside_every_field(tmp_path):
    path = tmp_path / "t.bgck"
    save_checkpoint(path, drawn_params(TINY, 4), 3, GENES)
    blob = path.read_bytes()
    spans = field_spans(blob)
    assert spans[-1][1] == len(blob) and len(spans) == 4 + 5 * len(TINY_RECORDS)
    for start, end in spans:
        for cut in sorted({start, end - 1}):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(path)


@pytest.mark.parametrize("damage, message", [
    (lambda b: b"BGCX" + b[4:], "bad magic"),
    (lambda b: b[:4] + struct.pack("<I", 1) + b[8:], "unsupported version 1"),
    (lambda b: b[:4] + struct.pack("<I", 3) + b[8:], "unsupported version 3"),
    (lambda b: b + b"\x00", "trailing data"),
])
def test_damaged_header_or_tail_rejected(tmp_path, damage, message):
    path = tmp_path / "d.bgck"
    save_checkpoint(path, drawn_params(TINY, 4), 3, GENES)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)


def test_record_shape_must_match_config(tmp_path):
    wide = ModelConfig(d_model=8, n_heads=2, stream_dims=TINY.stream_dims)
    path = tmp_path / "s.bgck"
    path.write_bytes(bgck_bytes(TINY.to_dict(), 3, GENES, init_oracle(wide, len(GENES), 7)))
    with pytest.raises(FormatError, match="proj.img.spot: stored shape"):
        load_checkpoint(path)
