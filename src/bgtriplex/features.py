"""Pluggable per-spot feature providers and the BGFT tensor file format.

Pretrained extractors are out of scope; the model consumes their outputs
through this contract instead. Two providers ship: a deterministic toy
extractor for desk-scale runs, and a loader for precomputed BGFT files
laid out as ``<prefix>/<spot_id>.<img|edge|nuc>.<spot|ctx>.bgft``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import matmul  # noqa: F401 (perfbench's span tracing wraps it)
from .errors import FormatError

STREAMS = ("img", "edge", "nuc")
SCOPES = ("spot", "ctx")
TOY_GRID_TOKENS = (1, 4, 9, 16, 49)
TOY_STREAM_DIMS = {"img": 10, "edge": 6, "nuc": 8}

_BGFT_MAGIC = b"BGFT"
_STREAM_CODE = {"img": 11, "edge": 23, "nuc": 37}


@dataclass
class FeatureBundle:
    """Three token matrices (tokens x dim) for one field of view.

    Every token is real: each branch attends over and pools all of them.
    """

    image_tokens: np.ndarray
    edge_tokens: np.ndarray
    nuclei_tokens: np.ndarray

    def __post_init__(self):
        for name, tokens in self.streams():
            if tokens.ndim != 2 or tokens.shape[0] < 1:
                raise ValueError(f"{name} tokens must be a non-empty 2-D matrix, got {tokens.shape}")
            if not np.isfinite(tokens).all():
                raise ValueError(f"{name} tokens contain non-finite entries")

    def streams(self):
        return (
            ("img", self.image_tokens),
            ("edge", self.edge_tokens),
            ("nuc", self.nuclei_tokens),
        )


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


def _toy_latent_state(dataset_seed, row, col):
    """The spot's latent tissue state: a smooth spatial wave per factor
    (slide-specific direction, period and phase) plus per-spot jitter.

    Smoothness makes neighborhoods informative about their center, the
    way tissue regions are ; the field itself differs per slide, so only
    the feature-to-state geometry transfers across slides."""
    field = np.random.default_rng(np.random.SeedSequence([int(dataset_seed), 6007]))
    u = field.uniform(-1.0, 1.0, TOY_LATENT_DIM)
    v = field.uniform(-1.0, 1.0, TOY_LATENT_DIM)
    period = field.uniform(4.0, 9.0, TOY_LATENT_DIM)
    phase = field.uniform(0.0, 2.0 * np.pi, TOY_LATENT_DIM)
    jitter = np.random.default_rng(
        np.random.SeedSequence([int(dataset_seed), int(row), int(col), 5]))
    wave = 0.5 + 0.4 * np.sin(2.0 * np.pi * (u * row + v * col) / period + phase)
    return np.clip(wave + jitter.uniform(-0.1, 0.1, TOY_LATENT_DIM), 0.0, 1.0)


def toy_extract(spot, dataset_seed, grid_tokens, stream_dims=None):
    """Deterministic pseudo-features keyed on (slide seed, grid position, stream).

    Each spot draws one low-dimensional latent tissue state; every stream
    reflects it through its own fixed channel loadings, plus token-level
    texture. Spots therefore vary along a few factor directions, the
    three streams carry distinct views of the same state, and the latent
    geometry is shared across slides. Values are rounded through float32
    so in-memory bundles match their BGFT on-disk form bit for bit.
    """
    if grid_tokens not in TOY_GRID_TOKENS:
        raise ValueError(f"grid_tokens must be one of {TOY_GRID_TOKENS}, got {grid_tokens}")
    dims = dict(TOY_STREAM_DIMS if stream_dims is None else stream_dims)
    latent = _toy_latent_state(dataset_seed, spot.array_row, spot.array_col)
    tokens = {}
    for stream in STREAMS:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [int(dataset_seed), int(spot.array_row), int(spot.array_col), _STREAM_CODE[stream]]
            )
        )
        profile = _toy_loadings(stream, dims[stream]) @ latent
        texture = rng.uniform(0.0, 1.0, size=(grid_tokens, dims[stream]))
        values = 0.9 * profile + 0.1 * texture
        tokens[stream] = values.astype(np.float32).astype(np.float64)
    return FeatureBundle(tokens["img"], tokens["edge"], tokens["nuc"])


class ToyFeatureProvider:
    """Pure deterministic extractor; same spot always yields the same bundle."""

    def __init__(self, dataset_seed, grid_tokens=4, stream_dims=None):
        self.dataset_seed = int(dataset_seed)
        self.grid_tokens = int(grid_tokens)
        self.stream_dims = dict(TOY_STREAM_DIMS if stream_dims is None else stream_dims)

    def bundle(self, spot, scope="spot", spot_bundle=None):
        """The spot's bundle; extraction ignores the scope, so a given
        ``spot_bundle`` (this spot's spot-scope bundle) is returned as is."""
        if scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
        if spot_bundle is not None:
            return spot_bundle
        return toy_extract(spot, self.dataset_seed, self.grid_tokens, self.stream_dims)


class PrecomputedFeatureProvider:
    """Reads BGFT files; context-scope files fall back to spot-scope ones."""

    def __init__(self, prefix):
        self.prefix = Path(prefix)

    def bundle(self, spot, scope="spot", spot_bundle=None):
        """The spot's bundle in ``scope``. A context-scope stream with no
        file of its own takes the array of ``spot_bundle`` (this spot's
        spot-scope bundle, already read) when given, else reads the
        spot-scope file."""
        if scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
        tokens = dict(spot_bundle.streams()) if scope == "ctx" and spot_bundle is not None else {}
        for stream in STREAMS:
            path = self.prefix / f"{spot.spot_id}.{stream}.{scope}.bgft"
            if scope == "spot" or path.exists():
                tokens[stream] = load_feature_file(path)
            elif stream not in tokens:
                tokens[stream] = load_feature_file(
                    self.prefix / f"{spot.spot_id}.{stream}.spot.bgft")
        return FeatureBundle(tokens["img"], tokens["edge"], tokens["nuc"])


def load_feature_file(path):
    """Read a BGFT file back as a float64 array of the declared shape."""
    with open(path, "rb") as fh:
        blob = fh.read()
    arr, offset = decode_bgft(blob, 0)
    if offset != len(blob):
        raise FormatError(f"trailing data at byte {offset}")
    return arr


def encode_bgft(array):
    """A tensor as BGFT: magic, u32 version, u32 ndim, u32 extents, f32 payload."""
    arr = np.asarray(array, dtype=np.float64)
    header = _BGFT_MAGIC + struct.pack("<II", 1, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.astype("<f4").tobytes()


def decode_bgft(blob, offset):
    """Decode one BGFT record starting at ``offset``; returns (array, next offset)."""
    if len(blob) < offset + 4 or blob[offset:offset + 4] != _BGFT_MAGIC:
        raise FormatError(f"bad magic at byte {offset}")
    if len(blob) < offset + 12:
        raise FormatError(f"truncated header at byte {len(blob)}")
    version, ndim = struct.unpack_from("<II", blob, offset + 4)
    if version != 1:
        raise FormatError(f"unsupported version {version} at byte {offset + 4}")
    if ndim > 8:
        raise FormatError(f"implausible ndim {ndim} at byte {offset + 8}")
    extents_end = offset + 12 + 4 * ndim
    if len(blob) < extents_end:
        raise FormatError(f"truncated extents at byte {len(blob)}")
    shape = struct.unpack_from(f"<{ndim}I", blob, offset + 12)
    if any(extent < 1 for extent in shape):
        raise FormatError(f"non-positive extent in shape {shape} at byte {offset + 12}")
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    payload_end = extents_end + 4 * count
    if len(blob) < payload_end:
        raise FormatError(f"truncated payload at byte {len(blob)}, expected {payload_end}")
    values = np.frombuffer(blob, dtype="<f4", count=count, offset=extents_end)
    return values.astype(np.float64).reshape(shape), payload_end

