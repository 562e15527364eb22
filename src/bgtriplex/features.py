"""Per-spot feature tokens: the BGFT tensor file format, the reader that
fills a slide's token stacks from it, and a deterministic toy extractor.

Pretrained extractors are out of scope; the model consumes their outputs
as BGFT files laid out as ``<prefix>/<spot_id>.<img|edge|nuc>.<spot|ctx>.bgft``.
``toy_extract`` and ``toy_extractor`` generate desk-scale tokens for
synthetic slides.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .autodiff import matmul  # noqa: F401 (perfbench's span tracing wraps it)
from .errors import FormatError

STREAMS = ("img", "edge", "nuc")
SCOPES = ("spot", "ctx")
TOY_GRID_TOKENS = (1, 4, 9, 16, 49)
TOY_STREAM_DIMS = {"img": 10, "edge": 6, "nuc": 8}

_BGFT_MAGIC = b"BGFT"
_BGFT_MAX_NDIM = 8
_STREAM_CODE = {"img": 11, "edge": 23, "nuc": 37}


TOY_LATENT_DIM = 4


def _toy_loadings(stream, dim):
    """Channel loadings onto the latent tissue-state factors.

    Fixed per (stream, dim) independently of any slide seed, so every
    slide shares one feature geometry and cross-slide transfer is
    well-posed. Rows are normalized to sum to 1, keeping profiles in
    the unit interval.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([8211, _STREAM_CODE[stream], int(dim), TOY_LATENT_DIM]))
    raw = rng.uniform(0.05, 1.0, size=(dim, TOY_LATENT_DIM)) ** 2
    return raw / raw.sum(axis=1, keepdims=True)


def toy_extractor(dataset_seed, grid_tokens, stream_dims=None):
    """``toy_extract`` for one slide, as a function of the spot alone.

    The slide's wave field and each stream's loadings are drawn once here,
    not once per spot; the tokens it returns are float32.
    """
    if grid_tokens not in TOY_GRID_TOKENS:
        raise ValueError(f"grid_tokens must be one of {TOY_GRID_TOKENS}, got {grid_tokens}")
    dims = dict(TOY_STREAM_DIMS if stream_dims is None else stream_dims)
    # the slide's smooth spatial wave per factor: direction, period and phase
    field = np.random.default_rng(np.random.SeedSequence([int(dataset_seed), 6007]))
    u = field.uniform(-1.0, 1.0, TOY_LATENT_DIM)
    v = field.uniform(-1.0, 1.0, TOY_LATENT_DIM)
    period = field.uniform(4.0, 9.0, TOY_LATENT_DIM)
    phase = field.uniform(0.0, 2.0 * np.pi, TOY_LATENT_DIM)
    loadings = [(_STREAM_CODE[stream], _toy_loadings(stream, dims[stream])) for stream in STREAMS]

    def extract(spot):
        row, col = int(spot.array_row), int(spot.array_col)
        # the spot's latent tissue state: the slide's wave plus per-spot jitter
        jitter = np.random.default_rng(np.random.SeedSequence([int(dataset_seed), row, col, 5]))
        wave = 0.5 + 0.4 * np.sin(2.0 * np.pi * (u * row + v * col) / period + phase)
        latent = np.clip(wave + jitter.uniform(-0.1, 0.1, TOY_LATENT_DIM), 0.0, 1.0)
        tokens = []
        for code, loading in loadings:
            rng = np.random.default_rng(np.random.SeedSequence([int(dataset_seed), row, col, code]))
            texture = rng.uniform(0.0, 1.0, size=(grid_tokens, loading.shape[0]))
            tokens.append((0.9 * (loading @ latent) + 0.1 * texture).astype(np.float32))
        return tuple(tokens)

    return extract


def toy_extract(spot, dataset_seed, grid_tokens, stream_dims=None):
    """Deterministic pseudo-features keyed on (slide seed, grid position, stream).

    Each spot draws one low-dimensional latent tissue state: a smooth
    spatial wave per factor (slide-specific direction, period and phase)
    plus per-spot jitter. Smoothness makes neighborhoods informative about
    their center, the way tissue regions are; the field itself differs per
    slide, so only the feature-to-state geometry transfers across slides.
    Every stream reflects the state through its own fixed channel
    loadings, plus token-level texture. Spots therefore vary along a few
    factor directions, the three streams carry distinct views of the same
    state, and the latent geometry is shared across slides. Returns the
    (img, edge, nuc) token matrices, rounded through float32 so in-memory
    tokens match their BGFT on-disk form bit for bit.
    """
    extract = toy_extractor(dataset_seed, grid_tokens, stream_dims)
    return tuple(tokens.astype(np.float64) for tokens in extract(spot))


def read_token_stacks(prefix, spots):
    """The ``SpotDataset.token_stacks`` of ``spots``, read from the BGFT
    files under ``prefix``.

    Each stream's file headers are read first, so its float32 stack is
    allocated once and each file's payload is decoded straight into its
    rows: the tokens are never held twice, nor widened to float64. A
    ctx-scope stream with no ``<spot_id>.<stream>.ctx.bgft`` file for any
    spot shares the spot-scope entry; otherwise spots without such a file
    take their rows from the spot-scope stack. Every payload is read once. A
    file that is not a matrix of its stream's width is a FormatError that
    names the spot, stream and scope.
    """
    listed = set(os.listdir(prefix))
    stacks = {}
    for stream in STREAMS:
        spot_paths = [os.path.join(prefix, f"{spot.spot_id}.{stream}.spot.bgft") for spot in spots]
        ctx_paths = [os.path.join(prefix, name) if name in listed else None
                     for name in (f"{spot.spot_id}.{stream}.ctx.bgft" for spot in spots)]
        entry = stacks[(stream, "spot")] = _read_stack(spots, stream, "spot", spot_paths)
        stacks[(stream, "ctx")] = (_read_stack(spots, stream, "ctx", ctx_paths, entry)
                                   if any(ctx_paths) else entry)
    return stacks


def _read_stack(spots, stream, scope, paths, spot_entry=None):
    """(tokens, offsets) of one stream in one scope from the given files;
    a spot whose path is None takes its rows of ``spot_entry``."""
    width = spot_entry[0].shape[1] if spot_entry else None
    rows = np.diff(spot_entry[1]).tolist() if spot_entry else [None] * len(spots)
    for s, (spot, path) in enumerate(zip(spots, paths)):
        if path is None:
            continue
        shape = _file_shape(path)
        if len(shape) != 2:
            raise FormatError(f"{stream} tokens of spot {spot.spot_id!r} have shape {shape} in "
                              f"the {scope} scope, not (tokens, width)")
        width = shape[1] if width is None else width
        if shape[1] != width:
            raise FormatError(f"{stream} tokens of spot {spot.spot_id!r} are {shape[1]} wide in "
                              f"the {scope} scope, not {width}")
        rows[s] = shape[0]
    offsets = np.cumsum([0] + rows)
    tokens = np.empty((offsets[-1], width or 0), dtype=np.float32)
    for s, path in enumerate(paths):
        if path is None:
            tokens[offsets[s]:offsets[s + 1]] = spot_entry[0][spot_entry[1][s]:spot_entry[1][s + 1]]
        else:
            load_feature_file(path, out=tokens[offsets[s]:offsets[s + 1]])
    return tokens, offsets


def _file_shape(path):
    """The shape a BGFT file declares, once its size is checked against it."""
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(12 + 4 * _BGFT_MAX_NDIM)
        size = os.fstat(fh.fileno()).st_size
    name = os.path.basename(path)
    try:
        shape, _, end = _decode_header(head, 0)
    except FormatError as exc:
        raise FormatError(f"{name}: {exc}") from None
    if size != end:
        raise FormatError(f"{name}: {size} bytes, not the {end} its header declares")
    return shape


def load_feature_file(path, out=None):
    """Read a BGFT file back as a float64 array of the declared shape, or
    decode its payload straight into ``out``, an array of that shape."""
    with open(path, "rb") as fh:
        blob = fh.read()
    arr, offset = decode_bgft(blob, 0, out)
    if offset != len(blob):
        raise FormatError(f"trailing data at byte {offset}")
    return arr


def encode_bgft(array):
    """A tensor as BGFT: magic, u32 version, u32 ndim, u32 extents, f32 payload."""
    arr = np.asarray(array, dtype=np.float64)
    header = _BGFT_MAGIC + struct.pack("<II", 1, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.astype("<f4").tobytes()


def decode_bgft(blob, offset, out=None):
    """Decode one BGFT record starting at ``offset``; returns (array, next
    offset). The array is float64, or ``out`` with the payload written into
    it, which must have the declared shape."""
    shape, start, end = _decode_header(blob, offset)
    if len(blob) < end:
        raise FormatError(f"truncated payload at byte {len(blob)}, expected {end}")
    values = np.frombuffer(blob, dtype="<f4", count=(end - start) // 4, offset=start)
    if out is None:
        return values.astype(np.float64).reshape(shape), end
    if out.shape != shape:
        raise FormatError(f"BGFT record of shape {shape} at byte {offset} does not fill {out.shape}")
    out[...] = values.reshape(shape)
    return out, end


def _decode_header(blob, offset):
    """(shape, payload start, payload end) of the BGFT record at ``offset``."""
    if len(blob) < offset + 4 or blob[offset:offset + 4] != _BGFT_MAGIC:
        raise FormatError(f"bad magic at byte {offset}")
    if len(blob) < offset + 12:
        raise FormatError(f"truncated header at byte {len(blob)}")
    version, ndim = struct.unpack_from("<II", blob, offset + 4)
    if version != 1:
        raise FormatError(f"unsupported version {version} at byte {offset + 4}")
    if ndim > _BGFT_MAX_NDIM:
        raise FormatError(f"implausible ndim {ndim} at byte {offset + 8}")
    extents_end = offset + 12 + 4 * ndim
    if len(blob) < extents_end:
        raise FormatError(f"truncated extents at byte {len(blob)}")
    shape = struct.unpack_from(f"<{ndim}I", blob, offset + 12)
    if any(extent < 1 for extent in shape):
        raise FormatError(f"non-positive extent in shape {shape} at byte {offset + 12}")
    return shape, extents_end, extents_end + 4 * math.prod(shape)
