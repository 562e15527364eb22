"""BGCK model checkpoints.

Layout: magic ``BGCK``, u32 version (1), u32 length-prefixed JSON
metadata blob, then one complete BGFT record per entry of
``ModelParams.records()``: every tensor of ``named()``, with each guiding
block's packed projections stored as per-head column blocks. The
metadata carries the model configuration, the context window size and
the selected gene names, so a checkpoint is self-describing for
evaluation.
"""

from __future__ import annotations

import json
import numbers
import struct

from .errors import FormatError
from .features import decode_bgft, encode_bgft
from .model import ModelConfig, ModelParams

_MAGIC = b"BGCK"


def _check_window(d_context):
    if (not isinstance(d_context, numbers.Integral) or isinstance(d_context, bool)
            or d_context < 1 or d_context % 2 == 0):
        raise ValueError(f"d_context must be a positive odd integer, got {d_context!r}")
    return int(d_context)


def save_checkpoint(path, params, d_context, genes):
    meta = {
        "model": params.config.to_dict(),
        "d_context": _check_window(d_context),
        "genes": list(genes),
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", 1, len(blob)))
        fh.write(blob)
        for _, values in params.records():
            fh.write(encode_bgft(values))


def load_checkpoint(path):
    """Returns (ModelParams, d_context, genes); raises FormatError on damage."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != _MAGIC:
        raise FormatError("bad magic at byte 0")
    if len(blob) < 12:
        raise FormatError(f"truncated header at byte {len(blob)}")
    version, meta_len = struct.unpack_from("<II", blob, 4)
    if version != 1:
        raise FormatError(f"unsupported version {version} at byte 4")
    meta_end = 12 + meta_len
    if len(blob) < meta_end:
        raise FormatError(f"truncated metadata at byte {len(blob)}")
    try:
        meta = json.loads(blob[12:meta_end].decode("utf-8"))
        config = ModelConfig.from_dict(meta["model"])
        d_context = _check_window(meta["d_context"])
        genes = list(meta["genes"])
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"invalid metadata blob at byte 12: {exc}") from exc
    params = ModelParams(config, k_genes=len(genes), seed=0)
    offset = meta_end
    for name, target in params.records():
        values, offset = decode_bgft(blob, offset)
        if values.shape != target.shape:
            raise FormatError(
                f"parameter {name}: stored shape {values.shape} does not match "
                f"configured shape {target.shape}")
        target[...] = values
    if offset != len(blob):
        raise FormatError(f"trailing data at byte {offset}")
    return params, d_context, genes
