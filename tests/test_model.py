"""Attention block, position encoder, branches and fusion.

The five goldens pin output values, not bytes: the reference arrays in
``tests/golden/`` were written (json, exact float repr) from the oracles
below and are compared with ``assert_allclose(rtol=0, atol=1e-12)``.
The ``d_model=16`` goldens come from scalar Python loops (``SCALAR``), the
6x6 default-config golden from plain numpy (``NUMPY``). Both run one
network wiring written from the ``model.py`` docstrings, with no
``autodiff`` and no ``bgtriplex.model`` function, and each golden has a
test that checks the model against its oracle. Each reference file
also records the digest of the synthetic counts it was recorded on, so a
generator change fails as an input change, not as a model change.

The float64 bytes of these outputs depend on the BLAS kernel (OpenBLAS
picks one per CPU); the values agree to ~1e-15. To check that the goldens
hold across kernels on any x86 host, run::

    for core in SkylakeX Haswell Sandybridge; do
        OPENBLAS_CORETYPE=$core PYTHONPATH=src python -m pytest -q tests/test_model.py
    done

The variable only affects the test process. CI runs the Haswell and
Sandybridge passes; SkylakeX needs AVX-512, which a runner may lack.
"""

import json
import math
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import checksum

from bgtriplex import autodiff as ad
from bgtriplex import model
from bgtriplex.autodiff import Tensor, grad_check
from bgtriplex.data import (ExpressionMatrix, SpotDataset, SpotRecord, context_window,
                            load_dataset, save_dataset, synth_dataset)
from bgtriplex.features import FeatureBundle, encode_bgft
from bgtriplex.model import (CHUNK_SPOTS, MCA_WEIGHTS, BranchOutput, ModelConfig, ModelParams,
                             branch_inputs, forward_batch, forward_slide, fuse, global_branch,
                             guided_attention, guided_branch, slide_forward)
from bgtriplex.training import gene_targets, loss_total

GOLDEN_DIR = Path(__file__).parent / "golden"
STREAM_ORDER = ("img", "edge", "nuc")


def load_reference(name, dataset):
    """The reference arrays of one golden, once its synthetic input is confirmed."""
    doc = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    digest = checksum(dataset.expr.values)
    assert digest == doc["synth_counts_digest"], (
        f"{name}: input changed, not the model: synth_dataset{tuple(doc['synth_args'])} "
        f"counts digest {digest} != recorded {doc['synth_counts_digest']}")
    return {key: np.array(value) for key, value in doc["arrays"].items()}


def assert_matches(actual, expected, name=""):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12, err_msg=name)


# Scalar oracles: Python floats and loops, no numpy reductions.

def matmul_oracle(a, b):
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    return np.array([[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
                     for row in a])


def attention_oracle(query, kv, w_q, w_k, w_v, kv_mask=None):
    """Straight-line scalar-loop attention, no numpy reductions.

    Masked kv rows are left out of the softmax and get no weight.
    """
    query, kv, w_q, w_k, w_v = (np.asarray(m).tolist() for m in (query, kv, w_q, w_k, w_v))
    t_q, d = len(query), len(query[0])
    d_h = len(w_q[0])
    keep = [j for j in range(len(kv)) if kv_mask is None or kv_mask[j]]
    q = [[sum(query[i][t] * w_q[t][j] for t in range(d)) for j in range(d_h)] for i in range(t_q)]
    k = {i: [sum(kv[i][t] * w_k[t][j] for t in range(d)) for j in range(d_h)] for i in keep}
    v = {i: [sum(kv[i][t] * w_v[t][j] for t in range(d)) for j in range(d_h)] for i in keep}
    out = np.zeros((t_q, d_h))
    for i in range(t_q):
        logits = {j: sum(q[i][x] * k[j][x] for x in range(d_h)) / math.sqrt(d_h) for j in keep}
        peak = max(logits.values())
        exps = {j: math.exp(logits[j] - peak) for j in keep}
        total = sum(exps.values())
        for x in range(d_h):
            out[i, x] = sum(exps[j] / total * v[j][x] for j in keep)
    return out


def layer_norm_oracle(x, gamma, beta, eps):
    """Per row: (x - mean) / sqrt(var + eps) * gamma + beta, two-pass variance."""
    gamma, beta = np.asarray(gamma).tolist(), np.asarray(beta).tolist()
    out = []
    for row in np.asarray(x).tolist():
        mean = sum(row) / len(row)
        var = sum((v - mean) ** 2 for v in row) / len(row)
        scale = 1.0 / math.sqrt(var + eps)
        out.append([(v - mean) * scale * g + b for v, g, b in zip(row, gamma, beta)])
    return np.array(out)


def mean_rows_oracle(x, mask=None):
    kept = [row for i, row in enumerate(np.asarray(x).tolist()) if mask is None or mask[i]]
    return np.array([[sum(col) / len(kept) for col in zip(*kept)]])


SCALAR = SimpleNamespace(matmul=matmul_oracle, attention=attention_oracle,
                         layer_norm=layer_norm_oracle, mean_rows=mean_rows_oracle)


def _numpy_attention(query, kv, w_q, w_k, w_v, kv_mask=None):
    logits = (query @ w_q) @ (kv @ w_k).T / math.sqrt(w_q.shape[1])
    if kv_mask is not None:
        logits[:, ~np.asarray(kv_mask, dtype=bool)] = -np.inf
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    return weights / weights.sum(axis=1, keepdims=True) @ (kv @ w_v)


def _numpy_layer_norm(x, gamma, beta, eps):
    centred = x - x.mean(axis=1, keepdims=True)
    return centred / np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + eps) * gamma + beta


def _numpy_mean_rows(x, mask=None):
    return (x if mask is None else x[np.asarray(mask, dtype=bool)]).mean(axis=0, keepdims=True)


NUMPY = SimpleNamespace(matmul=np.matmul, attention=_numpy_attention,
                        layer_norm=_numpy_layer_norm, mean_rows=_numpy_mean_rows)


# The network, wired from the model.py docstrings over either set of ops.

def mca_ref(ops, guide_a, query, guide_b, block, config, mask_a=None, mask_b=None):
    """Each head attends from the query to guide a and to guide b with one
    shared query projection; the two head-concatenated streams are summed
    and layer-normalized. Head h owns columns h*d_head:(h+1)*d_head of
    every packed projection."""
    d_h = config.d_model // config.n_heads
    heads = []
    for h in range(config.n_heads):
        w = {name: block[name].data[:, h * d_h:(h + 1) * d_h] for name in MCA_WEIGHTS}
        heads.append(ops.attention(query, guide_a, w["w_q"], w["w_k_a"], w["w_v_a"], mask_a)
                     + ops.attention(query, guide_b, w["w_q"], w["w_k_b"], w["w_v_b"], mask_b))
    return ops.layer_norm(np.hstack(heads), block["gamma"].data, block["beta"].data, config.eps)


def head_ref(ops, params, name, pooled):
    return ops.matmul(pooled, params[f"head.{name}.w"].data) + params[f"head.{name}.b"].data


def project_ref(ops, bundle, params, scope):
    return {stream: ops.matmul(tokens, params[f"proj.{stream}.{scope}"].data)
            for stream, tokens in bundle.streams()}


def branch_ref(ops, streams, params, name, mask=None):
    """A spot or context branch: edge and nuclei guide the image stream,
    then a masked mean over tokens feeds the branch head."""
    block = params.block(f"mca_{name}")
    tokens = mca_ref(ops, streams["edge"], streams["img"], streams["nuc"], block, params.config,
                     mask_a=mask, mask_b=mask)
    return tokens, head_ref(ops, params, name, ops.mean_rows(tokens, mask))


def window_ref(ops, ds, params, center, d):
    """Row-major d x d neighborhood token streams; absent cells are zero and masked."""
    at = {(s.array_row, s.array_col): i for i, s in enumerate(ds.spots)}
    row, col = ds.spots[center].array_row, ds.spots[center].array_col
    count = ds.features_ctx[center].image_tokens.shape[0]
    blocks = {stream: [] for stream in STREAM_ORDER}
    mask = []
    for dr in range(-(d // 2), d // 2 + 1):
        for dc in range(-(d // 2), d // 2 + 1):
            idx = at.get((row + dr, col + dc))
            if idx is None:
                for stream in STREAM_ORDER:
                    blocks[stream].append(np.zeros((count, params.config.d_model)))
            else:
                projected = project_ref(ops, ds.features_ctx[idx], params, "ctx")
                for stream in STREAM_ORDER:
                    blocks[stream].append(projected[stream])
            mask += [idx is not None] * count
    return {stream: np.vstack(blocks[stream]) for stream in STREAM_ORDER}, np.array(mask)


def global_ref(ops, ds, params):
    """One mean image token per spot plus the 3x3 channelwise kernel applied
    over grid neighbors: tap (a, b) reads the spot at offset (a-1, b-1)."""
    pooled = [ops.mean_rows(project_ref(ops, b, params, "spot")["img"])[0] for b in ds.features]
    at = {(s.array_row, s.array_col): i for i, s in enumerate(ds.spots)}
    kernel = params["apeg.kernel"].data
    out = []
    for s, spot in enumerate(ds.spots):
        token = pooled[s].copy()
        for a in range(3):
            for b in range(3):
                idx = at.get((spot.array_row + a - 1, spot.array_col + b - 1))
                if idx is not None:
                    token = token + kernel[a, b] * pooled[idx]
        out.append(token)
    return np.array(out)


def forward_ref(ops, ds, params, d_context):
    """Every spot's fused, spot, context and global predictions.

    Fusion attends from the target spot's global token alone: attention
    and LayerNorm act row by row, so this is the target row of the fused
    tokens.
    """
    global_tokens = global_ref(ops, ds, params)
    preds = {name: [] for name in ("fused", "spot", "ctx", "global")}
    for s in range(ds.n_spots):
        spot_tokens, spot_pred = branch_ref(ops, project_ref(ops, ds.features[s], params, "spot"),
                                            params, "spot")
        streams, mask = window_ref(ops, ds, params, s, d_context)
        ctx_tokens, ctx_pred = branch_ref(ops, streams, params, "ctx", mask=mask)
        fused = mca_ref(ops, spot_tokens, global_tokens[s:s + 1], ctx_tokens,
                        params.block("mca_fuse"), params.config, mask_b=mask)
        preds["fused"].append(head_ref(ops, params, "fused", fused))
        preds["spot"].append(spot_pred)
        preds["ctx"].append(ctx_pred)
        preds["global"].append(head_ref(ops, params, "global", global_tokens[s:s + 1]))
    return {name: np.vstack(rows) for name, rows in preds.items()}


def init_oracle(config, k_genes, seed):
    """``ModelParams.records()`` as its docstring orders it: one uniform
    (+-1/sqrt(fan_in)) draw per weight matrix, in record order, each
    guiding-block projection drawn head by head;
    LayerNorm gains are ones, LayerNorm shifts, head biases and the
    position-encoder kernel are zeros."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(b"init")]))
    d, d_h = config.d_model, config.d_model // config.n_heads
    named = []
    draw = lambda name, shape: named.append(
        (name, rng.uniform(-1 / math.sqrt(shape[0]), 1 / math.sqrt(shape[0]), shape)))
    for scope in ("spot", "ctx"):
        for stream in STREAM_ORDER:
            draw(f"proj.{stream}.{scope}", (config.stream_dims[stream], d))
    for block in ("mca_spot", "mca_ctx", "mca_fuse"):
        for h in range(config.n_heads):
            for name in ("w_q", "w_k_a", "w_v_a", "w_k_b", "w_v_b"):
                draw(f"{block}.h{h}.{name}", (d, d_h))
        named += [(f"{block}.gamma", np.ones(d)), (f"{block}.beta", np.zeros(d))]
    named.append(("apeg.kernel", np.zeros((3, 3, d))))
    for head in ("fused", "spot", "ctx", "global"):
        draw(f"head.{head}.w", (d, k_genes))
        named.append((f"head.{head}.b", np.zeros((1, k_genes))))
    return named


def per_head_mca(guide_a, query, guide_b, block, config, attn_sink=None):
    """``model.guided_attention`` as a per-head composition of autodiff ops: each head's
    projections are cut out of the packed ones and its output put back in
    place by 0/1 column selectors (exact in float64), and attention is one
    explicit matmul, row softmax and matmul per head and stream."""
    d, d_h = config.d_model, config.d_model // config.n_heads
    scale = 1.0 / math.sqrt(d_h)

    def transpose(x):
        return ad.compose(x.data.T, (x,), lambda g: x._accumulate(g.T))

    def softmax_rows(x):
        e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        return ad.compose(w, (x,), lambda g: x._accumulate(
            w * (g - (g * w).sum(axis=1, keepdims=True))))

    def attend(q, guide, w_k, w_v):
        logits = ad.matmul(q, transpose(ad.matmul(guide, w_k)))
        return ad.matmul(softmax_rows(logits), ad.matmul(guide, w_v))

    summed = None
    for h in range(config.n_heads):
        select = Tensor(np.eye(d)[:, h * d_h:(h + 1) * d_h])
        w = {name: ad.matmul(block[name], select) for name in MCA_WEIGHTS}
        q = ad.mul(ad.matmul(query, w["w_q"]), scale)
        head = ad.add(attend(q, guide_a, w["w_k_a"], w["w_v_a"]),
                      attend(q, guide_b, w["w_k_b"], w["w_v_b"]))
        placed = ad.matmul(head, transpose(select))
        summed = placed if summed is None else ad.add(summed, placed)
    return ad.layer_norm(summed, block["gamma"], block["beta"], config.eps)


def kernel_tap(kernel, a, b):
    """Tap (a, b) of a (3, 3, d) kernel tensor, as a (d,) tensor."""
    def backward(g):
        grad = np.zeros_like(kernel.data)
        grad[a, b] = g
        kernel._accumulate(grad)

    return ad.compose(kernel.data[a, b].copy(), (kernel,), backward)


def apeg_ref(tokens, positions, kernel):
    """Each spot's token plus the 3x3 channelwise kernel over its grid
    neighbors, spot by spot from autodiff ops: tap (a, b) reads the spot at
    grid offset (a-1, b-1), and an empty cell adds nothing."""
    at = {p: i for i, p in enumerate(positions)}
    rows = []
    for s, (row, col) in enumerate(positions):
        token = ad.take_rows(tokens, [s])
        for a in range(3):
            for b in range(3):
                idx = at.get((row + a - 1, col + b - 1))
                if idx is not None:
                    token = ad.add(token, ad.mul(kernel_tap(kernel, a, b),
                                                 ad.take_rows(tokens, [idx])))
        rows.append(token)
    return ad.concat_rows(rows)


def grid_positions(ds):
    return [(s.array_row, s.array_col) for s in ds.spots]


def mca(guide_a, query, guide_b, block, config, attn_sink=None):
    """``model.guided_attention`` for one query sequence and two guide
    sequences, each projected here and attended as a single block."""
    guides = [(ad.matmul(guide, w_k), ad.matmul(guide, w_v), 1)
              for guide, w_k, w_v in ((guide_a, block["w_k_a"], block["w_v_a"]),
                                      (guide_b, block["w_k_b"], block["w_v_b"]))]
    return guided_attention(ad.matmul(query, block["w_q"]), guides, block, config, attn_sink)


def project(bundle, params, scope):
    return {stream: ad.matmul(tokens, params[f"proj.{stream}.{scope}"])
            for stream, tokens in bundle.streams()}


def head(params, name, pooled):
    return ad.add(ad.matmul(pooled, params[f"head.{name}.w"]), params[f"head.{name}.b"])


def window_members(ds, center, d):
    return [i for row in context_window(ds.spots, center, d).member_indices
            for i in row if i is not None]


def branch(streams, params, config, name, mca=mca):
    """One spot or window's branch from its projected streams: edge and
    nuclei guide the image stream unless ablated to image guidance.
    Returns (tokens, pooled, prediction)."""
    block = params.block(f"mca_{name}")
    image = streams["img"]
    tokens = mca(image if getattr(config, f"no_edge_{name}") else streams["edge"], image,
                 image if getattr(config, f"no_nuclei_{name}") else streams["nuc"],
                 block, config)
    pooled = ad.mean_rows(tokens)
    return tokens, pooled, head(params, name, pooled)


def full_slide_forward(ds, params, config, d_context, spot_indices, mca=mca):
    """``model.slide_forward`` computed spot by spot over the whole slide:
    every bundle projected in both scopes, each spot's branches run on
    their own, one window at a time, the global tokens pooled from
    projected image tokens and position-encoded by ``apeg_ref``, and the
    fusion block run on all n global query rows before the target row is
    kept."""
    proj_spot = [project(b, params, "spot") for b in ds.features]
    proj_ctx = [project(b, params, "ctx") for b in ds.features_ctx]
    spot_outs = [branch(p, params, config, "spot", mca) for p in proj_spot]
    ctx_outs = []
    for s in range(ds.n_spots):
        members = window_members(ds, s, d_context)
        streams = {stream: ad.concat_rows([proj_ctx[i][stream] for i in members])
                   for stream in STREAM_ORDER}
        ctx_outs.append(branch(streams, params, config, "ctx", mca))
    if config.drop_global:
        source = ctx_outs if config.drop_spot else spot_outs
        stream = ad.concat_rows([pooled for _, pooled, _ in source])
    else:
        pooled = ad.concat_rows([ad.mean_rows(p["img"]) for p in proj_spot])
        stream = apeg_ref(pooled, grid_positions(ds), params["apeg.kernel"])
    results = []
    for s in spot_indices:
        guide_a = stream if config.drop_spot else spot_outs[s][0]
        guide_b = stream if config.drop_ctx else ctx_outs[s][0]
        fused = mca(guide_a, stream, guide_b, params.block("mca_fuse"), config)
        preds = {}
        if not config.drop_spot:
            preds["spot"] = spot_outs[s][2]
        if not config.drop_ctx:
            preds["ctx"] = ctx_outs[s][2]
        if not config.drop_global:
            preds["global"] = head(params, "global", ad.take_rows(stream, [s]))
        preds["fused"] = head(params, "fused", ad.take_rows(fused, [s]))
        results.append((s, preds))
    return results


def run_branch(ds, params, config, scope, members, attn_sink=None):
    """``model.guided_branch`` for targets of one shape: (tokens, prediction)."""
    out = guided_branch(branch_inputs(ds, params, config, scope, members), list(members), config,
                        attn_sink)
    return out.tokens, head(params, scope, out.pooled)


CFG8 = ModelConfig(d_model=8, n_heads=2)


def random_mca_params(rng, d_model):
    draw = lambda: Tensor(rng.normal(size=(d_model, d_model)))
    return {**{name: draw() for name in MCA_WEIGHTS},
            "gamma": Tensor(rng.uniform(0.5, 1.5, d_model)),
            "beta": Tensor(rng.normal(size=d_model))}


def tie_streams(params):
    """Make the two guide streams share key/value weights."""
    params["w_k_b"] = params["w_k_a"]
    params["w_v_b"] = params["w_v_a"]
    return params


def copy_mca(dst, src):
    for name in MCA_WEIGHTS + ("gamma", "beta"):
        dst[name].data[...] = src[name].data


def one_head(query, kv, w_q, w_k, w_v):
    return ad.attention(ad.matmul(query, w_q), ad.matmul(kv, w_k), ad.matmul(kv, w_v), 1)


class TestCrossAttention:
    def test_singleton_kv_passes_value_through(self):
        rng = np.random.default_rng(1)
        query = Tensor(rng.normal(size=(3, 6)))
        kv = Tensor(rng.normal(size=(1, 6)))
        w_q, w_k, w_v = (Tensor(rng.normal(size=(6, 2))) for _ in range(3))
        out = one_head(query, kv, w_q, w_k, w_v)
        expected = kv.data @ w_v.data
        np.testing.assert_allclose(out.data, np.repeat(expected, 3, axis=0), atol=1e-14)

    def test_duplicate_kv_rows_give_uniform_weights(self):
        rng = np.random.default_rng(2)
        query = Tensor(rng.normal(size=(2, 6)))
        one = rng.normal(size=(1, 6))
        kv = Tensor(np.vstack([one, one]))
        w_q, w_k, w_v = (Tensor(rng.normal(size=(6, 3))) for _ in range(3))
        out = one_head(query, kv, w_q, w_k, w_v)
        np.testing.assert_allclose(out.data, np.repeat(one @ w_v.data, 2, axis=0), atol=1e-14)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(5)
        d_model, n_heads = 8, 2
        d_h = d_model // n_heads
        query = rng.normal(size=(2, d_model))
        kv = rng.normal(size=(4, d_model))
        w_q, w_k, w_v = (rng.normal(size=(d_model, d_model)) for _ in range(3))
        out = ad.attention(Tensor(query @ w_q), Tensor(kv @ w_k), Tensor(kv @ w_v), n_heads)
        for h in range(n_heads):
            cols = slice(h * d_h, (h + 1) * d_h)
            np.testing.assert_allclose(
                out.data[:, cols],
                attention_oracle(query, kv, w_q[:, cols], w_k[:, cols], w_v[:, cols]),
                rtol=0, atol=1e-12)


class TestMca:
    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(9)
        params = random_mca_params(rng, 8)
        guide_a = Tensor(rng.normal(size=(3, 8)))
        query = Tensor(rng.normal(size=(2, 8)))
        guide_b = Tensor(rng.normal(size=(4, 8)))
        out = mca(guide_a, query, guide_b, params, CFG8)
        expected = per_head_mca(guide_a, query, guide_b, params, CFG8)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-13)

    def test_output_rows_have_zero_mean_with_unit_gamma(self):
        rng = np.random.default_rng(10)
        params = random_mca_params(rng, 8)
        params["gamma"] = Tensor(np.ones(8))
        params["beta"] = Tensor(np.zeros(8))
        out = mca(Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(4, 8))),
                  Tensor(rng.normal(size=(2, 8))), params, CFG8)
        assert np.abs(out.data.mean(axis=1)).max() <= 1e-10

    def test_stream_symmetry_identity(self):
        """Tied stream weights and identical guides: pre-norm sum is twice one stream."""
        rng = np.random.default_rng(11)
        params = tie_streams(random_mca_params(rng, 8))
        guide = Tensor(rng.normal(size=(3, 8)))
        q = ad.matmul(Tensor(rng.normal(size=(2, 8))), params["w_q"])
        phi_a, phi_b = (ad.attention(q, ad.matmul(guide, w_k), ad.matmul(guide, w_v), 2)
                        for w_k, w_v in ((params["w_k_a"], params["w_v_a"]),
                                         (params["w_k_b"], params["w_v_b"])))
        np.testing.assert_allclose(ad.add(phi_a, phi_b).data, 2.0 * phi_a.data, atol=1e-12)

    def test_guide_permutation_invariance(self):
        rng = np.random.default_rng(12)
        params = random_mca_params(rng, 8)
        guide_a = rng.normal(size=(5, 8))
        query = Tensor(rng.normal(size=(3, 8)))
        guide_b = Tensor(rng.normal(size=(4, 8)))
        base = mca(Tensor(guide_a), query, guide_b, params, CFG8).data
        perm = rng.permutation(5)
        shuffled = mca(Tensor(guide_a[perm]), query, guide_b, params, CFG8).data
        np.testing.assert_allclose(shuffled, base, rtol=0, atol=1e-12)

    def test_query_equivariance(self):
        rng = np.random.default_rng(13)
        params = random_mca_params(rng, 8)
        guide_a = Tensor(rng.normal(size=(4, 8)))
        guide_b = Tensor(rng.normal(size=(4, 8)))
        query = rng.normal(size=(5, 8))
        base = mca(guide_a, Tensor(query), guide_b, params, CFG8).data
        perm = rng.permutation(5)
        permuted = mca(guide_a, Tensor(query[perm]), guide_b, params, CFG8).data
        np.testing.assert_allclose(permuted, base[perm], rtol=0, atol=1e-12)

    def test_sink_holds_stream_a_heads_then_stream_b_heads(self):
        rng = np.random.default_rng(14)
        params = random_mca_params(rng, 8)
        sink = []
        mca(Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(2, 8))),
            Tensor(rng.normal(size=(5, 8))), params, CFG8, attn_sink=sink)
        assert [a.shape for a in sink] == [(2, 3), (2, 3), (2, 5), (2, 5)]


def apeg_slide(tokens, positions, kernel, projection=None):
    """A slide with one image token per spot at grid ``positions``, and
    weights with the given APEG kernel and a spot-scope image projection
    that is the identity unless given, so that ``global_branch``
    position-encodes the tokens themselves: (slide, params)."""
    n, d = tokens.shape
    spots = [SpotRecord(f"s{i}", row, col, 0.0, 0.0) for i, (row, col) in enumerate(positions)]
    bundles = [FeatureBundle(token[None], np.ones((1, 1)), np.ones((1, 1))) for token in tokens]
    ds = SpotDataset(spots, ExpressionMatrix(["g"], np.zeros((n, 1))), bundles, "apeg")
    cfg = ModelConfig(d_model=d, n_heads=1, stream_dims={"img": d, "edge": 1, "nuc": 1})
    params = ModelParams(cfg, k_genes=1)
    params["proj.img.spot"].data[...] = np.eye(d) if projection is None else projection
    params["apeg.kernel"].data[...] = kernel
    return ds, params


class TestApeg:
    def test_zero_kernel_is_identity(self):
        rng = np.random.default_rng(20)
        tokens = rng.normal(size=(4, 6))
        ds, params = apeg_slide(tokens, [(0, 0), (0, 1), (1, 0), (1, 1)], np.zeros((3, 3, 6)))
        np.testing.assert_array_equal(global_branch(ds, params, range(4)).data, tokens)

    def test_single_spot_sees_only_center_tap(self):
        rng = np.random.default_rng(21)
        token = rng.normal(size=(1, 5))
        kernel = rng.normal(size=(3, 3, 5))
        ds, params = apeg_slide(token, [(7, 9)], kernel)
        out = global_branch(ds, params, [0])
        np.testing.assert_allclose(out.data, token + kernel[1, 1] * token, atol=1e-15)

    def test_2x2_grid_matches_hand_computed_convolution(self):
        # one channel; tokens t00..t11 on a 2x2 grid; kernel taps k[a][b]
        tokens = np.array([[1.0], [2.0], [3.0], [4.0]])
        positions = [(0, 0), (0, 1), (1, 0), (1, 1)]
        kernel = np.zeros((3, 3, 1))
        kernel[:, :, 0] = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        # conv at (0,0): k11*t00 + k12*t01 + k21*t10 + k22*t11 = 5*1+6*2+8*3+9*4 = 77
        # conv at (0,1): k10*t00 + k11*t01 + k20*t10 + k21*t11 = 4*1+5*2+7*3+8*4 = 67
        # conv at (1,0): k01*t00 + k02*t01 + k11*t10 + k12*t11 = 2*1+3*2+5*3+6*4 = 47
        # conv at (1,1): k00*t00 + k01*t01 + k10*t10 + k11*t11 = 1*1+2*2+4*3+5*4 = 37
        ds, params = apeg_slide(tokens, positions, kernel)
        out = global_branch(ds, params, range(4))
        np.testing.assert_allclose(out.data[:, 0], [1 + 77, 2 + 67, 3 + 47, 4 + 37])
        # each spot reads only its own cells, whichever spots are asked for
        np.testing.assert_array_equal(global_branch(ds, params, [3, 0]).data[:, 0], [41, 78])

    def test_duplicate_positions_rejected(self):
        ds, params = apeg_slide(np.ones((2, 3)), [(0, 0), (0, 0)], np.zeros((3, 3, 3)))
        with pytest.raises(ValueError, match="duplicate"):
            global_branch(ds, params, [0])

    @pytest.mark.parametrize("spots", [[0, 1, 2, 3, 4], [2, 0, 4]])
    def test_gradients(self, spots):
        rng = np.random.default_rng(22)
        positions = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]
        ds, params = apeg_slide(rng.normal(size=(5, 4)), positions, rng.normal(size=(3, 3, 4)),
                                projection=rng.normal(size=(4, 4)))
        weights = Tensor(rng.normal(size=(len(spots), 4)))

        def f(_):
            return ad.mean_all(ad.mul(global_branch(ds, params, spots), weights))

        assert grad_check(f, params["proj.img.spot"]) <= 1e-6
        assert grad_check(f, params["apeg.kernel"]) <= 1e-6

    def test_matches_neighbor_loop_reference(self):
        # outputs and gradients of a subset of spots on a grid with holes
        rng = np.random.default_rng(23)
        positions = [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2), (3, 1), (1, 3)]
        tokens = rng.normal(size=(7, 4))
        ds, params = apeg_slide(tokens, positions, rng.normal(size=(3, 3, 4)),
                                projection=rng.normal(size=(4, 4)))
        spots = [2, 5, 0, 6]
        weights = Tensor(rng.normal(size=(len(spots), 4)))
        out = global_branch(ds, params, spots)
        ad.mean_all(ad.mul(out, weights)).backward()
        proj, kernel = (Tensor(params[name].data, requires_grad=True)
                        for name in ("proj.img.spot", "apeg.kernel"))
        ref = ad.take_rows(apeg_ref(ad.matmul(tokens, proj), positions, kernel), spots)
        ad.mean_all(ad.mul(ref, weights)).backward()
        assert_matches(out.data, ref.data, "tokens")
        assert_matches(params["proj.img.spot"].grad, proj.grad, "projection")
        assert_matches(params["apeg.kernel"].grad, kernel.grad, "kernel")


@pytest.fixture(scope="module")
def small_setup():
    ds, _ = synth_dataset(3, 3, 8, 0.05, seed=13)
    cfg = ModelConfig(d_model=16, n_heads=2)
    params = ModelParams(cfg, k_genes=5, seed=1)
    proj_spot = [project(b, params, "spot") for b in ds.features]
    proj_ctx = [project(b, params, "ctx") for b in ds.features_ctx]
    return ds, cfg, params, proj_spot, proj_ctx


def one_spot_dataset(ds, bundle):
    expr = ExpressionMatrix(ds.expr.genes, ds.expr.values[:1])
    return SpotDataset(ds.spots[:1], expr, [bundle], "one")


class TestSpotBranch:
    def test_golden(self, small_setup):
        ds, cfg, params, _, _ = small_setup
        ref = load_reference("spot_branch", ds)
        tokens, prediction = run_branch(ds, params, cfg, "spot", {4: [4]})
        assert_matches(tokens.data, ref["tokens"], "tokens")
        assert_matches(prediction.data, ref["prediction"], "prediction")

    def test_matches_scalar_oracle(self, small_setup):
        ds, cfg, params, _, _ = small_setup
        out_tokens, out_prediction = run_branch(ds, params, cfg, "spot", {4: [4]})
        tokens, prediction = branch_ref(SCALAR, project_ref(SCALAR, ds.features[4], params, "spot"),
                                        params, "spot")
        assert_matches(out_tokens.data, tokens, "tokens")
        assert_matches(out_prediction.data, prediction, "prediction")

    def test_single_token_equals_plain_mca(self, small_setup):
        ds, cfg, params, _, _ = small_setup
        from bgtriplex.features import toy_extract

        bundle = toy_extract(ds.spots[0], dataset_seed=50, grid_tokens=1)
        proj = project(bundle, params, "spot")
        tokens, _ = run_branch(one_spot_dataset(ds, bundle), params, cfg, "spot", {0: [0]})
        direct = mca(proj["edge"], proj["img"], proj["nuc"], params.block("mca_spot"), cfg)
        np.testing.assert_allclose(tokens.data, direct.data, atol=1e-14)

    def test_guidance_ablation_reduces_to_self_attention(self, small_setup):
        ds, _, params, proj_spot, _ = small_setup
        cfg = ModelConfig(d_model=16, n_heads=2, no_edge_spot=True, no_nuclei_spot=True)
        tokens, _ = run_branch(ds, params, cfg, "spot", {0: [0]})
        assert np.isfinite(tokens.data).all()
        direct = mca(proj_spot[0]["img"], proj_spot[0]["img"], proj_spot[0]["img"],
                     params.block("mca_spot"), cfg)
        np.testing.assert_allclose(tokens.data, direct.data, atol=1e-14)


class TestContextBranch:
    def test_golden(self, small_setup):
        ds, cfg, params, _, _ = small_setup
        ref = load_reference("context_branch", ds)
        tokens, prediction = run_branch(ds, params, cfg, "ctx", {4: window_members(ds, 4, 3)})
        assert_matches(tokens.data, ref["tokens"], "tokens")
        assert_matches(prediction.data, ref["prediction"], "prediction")

    @pytest.mark.parametrize("center", [4, 0])
    def test_matches_scalar_oracle(self, small_setup, center):
        ds, cfg, params, _, _ = small_setup
        out_tokens, out_prediction = run_branch(ds, params, cfg, "ctx",
                                                {center: window_members(ds, center, 3)})
        streams, mask = window_ref(SCALAR, ds, params, center, 3)
        tokens, prediction = branch_ref(SCALAR, streams, params, "ctx", mask=mask)
        assert_matches(out_tokens.data, tokens[mask], "tokens")
        assert_matches(out_prediction.data, prediction, "prediction")

    def test_d1_window_equals_spot_branch_with_tied_weights(self, small_setup):
        ds, cfg, params, proj_spot, _ = small_setup
        tied = ModelParams(cfg, k_genes=5, seed=1)
        copy_mca(tied.block("mca_ctx"), tied.block("mca_spot"))
        for stream in ("img", "edge", "nuc"):
            tied[f"proj.{stream}.ctx"].data[...] = tied[f"proj.{stream}.spot"].data
        tied["head.ctx.w"].data[...] = tied["head.spot.w"].data
        tied["head.ctx.b"].data[...] = tied["head.spot.b"].data
        ctx_tokens, ctx_prediction = run_branch(ds, tied, cfg, "ctx",
                                                {4: window_members(ds, 4, 1)})
        spot_tokens, spot_prediction = run_branch(ds, tied, cfg, "spot", {4: [4]})
        np.testing.assert_allclose(ctx_tokens.data, spot_tokens.data, atol=1e-14)
        np.testing.assert_allclose(ctx_prediction.data, spot_prediction.data, atol=1e-14)

    def test_corner_window_masks_absent_members(self, small_setup):
        ds, cfg, params, _, _ = small_setup
        sink = []
        out_tokens, _ = run_branch(ds, params, cfg, "ctx", {0: window_members(ds, 0, 3)},
                                   attn_sink=sink)
        streams, mask = window_ref(NUMPY, ds, params, 0, 3)
        tokens, _ = branch_ref(NUMPY, streams, params, "ctx", mask=mask)
        present = int(mask.sum())
        assert present < mask.size
        assert_matches(out_tokens.data, tokens[mask], "present rows")
        assert [attn.shape for attn in sink] == [(present, present)] * (2 * cfg.n_heads)
        for attn in sink:
            np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)


def global_tokens(ds, params):
    return global_branch(ds, params, range(ds.n_spots)).data


class TestGlobalBranch:
    def test_golden(self, small_setup):
        ds, cfg, params, _, _ = small_setup
        ref = load_reference("global_branch", ds)
        assert_matches(global_tokens(ds, params), ref["tokens"], "tokens")

    def test_matches_scalar_oracle(self, small_setup):
        ds, cfg, params, _, _ = small_setup
        assert_matches(global_tokens(ds, params), global_ref(SCALAR, ds, params))

    def test_single_spot_center_tap(self, small_setup):
        ds, cfg, _, _, _ = small_setup
        params = ModelParams(cfg, k_genes=5, seed=1)
        params["apeg.kernel"].data[...] = np.random.default_rng(31).normal(size=(3, 3, 16))
        one = one_spot_dataset(ds, ds.features[4])
        token = one.features[0].image_tokens.mean(axis=0, keepdims=True) @ params[
            "proj.img.spot"].data
        np.testing.assert_allclose(global_tokens(one, params),
                                   token + params["apeg.kernel"].data[1, 1] * token, atol=1e-15)

    def test_spot_permutation_equivariance(self, small_setup):
        ds, cfg, _, _, _ = small_setup
        params = ModelParams(cfg, k_genes=5, seed=1)
        params["apeg.kernel"].data[...] = np.random.default_rng(32).normal(size=(3, 3, 16))
        base = global_tokens(ds, params)
        perm = np.random.default_rng(33).permutation(ds.n_spots)
        permuted = SpotDataset([ds.spots[i] for i in perm],
                               ExpressionMatrix(ds.expr.genes, ds.expr.values[perm]),
                               [ds.features[i] for i in perm], "permuted")
        np.testing.assert_allclose(global_tokens(permuted, params), base[perm], atol=1e-14)


@pytest.fixture(scope="module")
def forward_4spot():
    ds, _ = synth_dataset(2, 2, 8, 0.05, seed=13)
    cfg = ModelConfig(d_model=16, n_heads=2)
    params = ModelParams(cfg, k_genes=5, seed=1)
    fused = np.vstack([p["fused"].data for _, p in slide_forward(ds, params, cfg, 3)])
    return ds, params, fused


class TestFuse:
    def test_bias_only_head(self, small_setup):
        ds, cfg, _, _, _ = small_setup
        params = ModelParams(cfg, k_genes=1, seed=2)
        params["head.fused.w"].data[...] = 0.0
        params["head.fused.b"].data[...] = 4.25
        pred = forward_slide(ds, params, cfg, d_context=3)["fused"]
        np.testing.assert_allclose(pred, np.full((ds.n_spots, 1), 4.25), atol=1e-15)

    def test_sink_holds_one_query_row_per_head_and_stream(self, small_setup):
        _, cfg, params, _, _ = small_setup
        rng = np.random.default_rng(42)
        mk = lambda rows: BranchOutput(Tensor(rng.normal(size=(rows, 16))), None)
        sink = []
        fuse(mk(4), mk(6), mk(9), [4, 7], params, cfg, attn_sink=sink)
        assert [a.shape for a in sink] == [(1, 2)] * 2 * cfg.n_heads + [(1, 3)] * 2 * cfg.n_heads

    def test_target_index_out_of_range(self, small_setup):
        _, cfg, params, _, _ = small_setup
        rng = np.random.default_rng(41)
        mk = lambda rows: BranchOutput(Tensor(rng.normal(size=(rows, 16))), None)
        with pytest.raises(ValueError):
            fuse(mk(2), mk(3), mk(4), [4], params, cfg)

    def test_branch_removal_changes_fused_prediction(self):
        # init-scale weights make attention near-uniform (the query barely
        # matters), so draw unit-scale attention weights for the wiring check
        ds, _ = synth_dataset(2, 2, 6, 0.05, seed=17)
        for seed in range(1, 21):
            base_cfg = ModelConfig(d_model=16, n_heads=2)
            params = ModelParams(base_cfg, k_genes=3, seed=seed)
            rng = np.random.default_rng(seed)
            for name, tensor in params.named():
                if ".w_" in name and name.startswith("mca_"):
                    tensor.data[...] = rng.normal(size=tensor.data.shape)
            base = np.vstack([p["fused"].data for _, p in
                              slide_forward(ds, params, base_cfg, 3)])
            for flag in ("drop_spot", "drop_ctx", "drop_global"):
                cfg = ModelConfig(d_model=16, n_heads=2, **{flag: True})
                ablated = np.vstack([p["fused"].data for _, p in
                                     slide_forward(ds, params, cfg, 3)])
                assert np.abs(ablated - base).max() > 1e-6, flag

    def test_full_forward_golden_on_4_spot_slide(self, forward_4spot):
        ds, _, fused = forward_4spot
        assert_matches(fused, load_reference("fuse_4spot", ds)["fused"], "fused")

    def test_full_forward_matches_scalar_oracle_on_4_spot_slide(self, forward_4spot):
        ds, params, fused = forward_4spot
        assert_matches(fused, forward_ref(SCALAR, ds, params, 3)["fused"], "fused")


@pytest.fixture(scope="module")
def forward_6x6():
    ds, _ = synth_dataset(6, 6, 32, 0.05, seed=13)
    cfg = ModelConfig()
    params = ModelParams(cfg, k_genes=10, seed=3)
    return ds, params, forward_slide(ds, params, cfg, d_context=5)


class TestForwardSlide:
    def test_minimal_slide_shapes(self):
        ds, _ = synth_dataset(1, 1, 4, 0.0, seed=7)
        cfg = ModelConfig(d_model=16, n_heads=2)
        params = ModelParams(cfg, k_genes=4, seed=5)
        out = forward_slide(ds, params, cfg, d_context=1)
        for name in ("fused", "spot", "ctx", "global"):
            assert out[name].shape == (1, 4)
            assert np.isfinite(out[name]).all()

    def test_fusion_gamma_isolated_to_fused_output(self):
        ds, _ = synth_dataset(2, 2, 6, 0.05, seed=19)
        cfg = ModelConfig(d_model=16, n_heads=2)
        params = ModelParams(cfg, k_genes=3, seed=3)
        base = forward_slide(ds, params, cfg, d_context=3)
        params["mca_fuse.gamma"].data[...] *= 2.0
        bumped = forward_slide(ds, params, cfg, d_context=3)
        assert np.abs(bumped["fused"] - base["fused"]).max() > 1e-9
        for name in ("spot", "ctx", "global"):
            np.testing.assert_array_equal(bumped[name], base[name])

    def test_golden_on_6x6_slide(self, forward_6x6):
        ds, _, out = forward_6x6
        ref = load_reference("forward_6x6", ds)
        for name in ("fused", "spot", "ctx", "global"):
            assert_matches(out[name], ref[name], name)

    def test_matches_numpy_reference_on_6x6_slide(self, forward_6x6):
        ds, params, out = forward_6x6
        ref = forward_ref(NUMPY, ds, params, 5)
        for name in ("fused", "spot", "ctx", "global"):
            assert_matches(out[name], ref[name], name)

    def test_matches_numpy_reference_with_every_parameter_drawn(self):
        # at init the LayerNorm shifts, biases and APEG kernel are zero;
        # draw them too, on a grid whose rows and columns differ
        ds, _ = synth_dataset(3, 4, 6, 0.05, seed=29)
        cfg = ModelConfig(d_model=16, n_heads=4)
        params = ModelParams(cfg, k_genes=6, seed=4)
        rng = np.random.default_rng(4)
        for _, tensor in params.named():
            tensor.data[...] = rng.normal(0.0, 0.5, tensor.data.shape)
        out = forward_slide(ds, params, cfg, d_context=3)
        ref = forward_ref(NUMPY, ds, params, 3)
        for name in ("fused", "spot", "ctx", "global"):
            assert_matches(out[name], ref[name], name)


class TestSlideForwardCost:
    def test_forward_slide_builds_no_graph(self, monkeypatch):
        ds, _ = synth_dataset(3, 3, 6, 0.05, seed=19)
        cfg = ModelConfig(d_model=16, n_heads=2)
        params = ModelParams(cfg, k_genes=3, seed=3)
        returned = {}
        real_forward = model.forward_batch

        def recording_forward(*args, **kwargs):
            returned.update(real_forward(*args, **kwargs))
            return returned

        monkeypatch.setattr(model, "forward_batch", recording_forward)
        out = forward_slide(ds, params, cfg, d_context=3)
        assert set(returned) == set(out)
        for preds in returned.values():
            assert preds.shape[0] == ds.n_spots
            assert not (preds.requires_grad or preds._parents)
        assert all(tensor.grad is None and tensor.requires_grad for _, tensor in params.named())

    @pytest.mark.parametrize("flags", [{}, {"drop_ctx": True}, {"drop_global": True}])
    def test_spot_index_out_of_range(self, flags):
        ds, _ = synth_dataset(2, 2, 6, 0.05, seed=19)
        cfg = ModelConfig(d_model=16, n_heads=2, **flags)
        params = ModelParams(cfg, k_genes=3, seed=3)
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="spot indices"):
                slide_forward(ds, params, cfg, 3, spot_indices=[0, bad])

    def test_step_projects_each_read_bundle_once(self, monkeypatch):
        ds, _ = synth_dataset(5, 5, 6, 0.05, seed=23)
        cfg = ModelConfig(d_model=16, n_heads=2)
        params = ModelParams(cfg, k_genes=3, seed=3)
        folds, rows = [], {}
        real_matmul = ad.matmul
        weight_of = {}
        for scope in ("spot", "ctx"):
            for stream, names in (("img", ("w_q",)), ("edge", ("w_k_a", "w_v_a")),
                                  ("nuc", ("w_k_b", "w_v_b"))):
                for name in names:
                    key = (id(params[f"proj.{stream}.{scope}"]), id(params[f"mca_{scope}.{name}"]))
                    weight_of[key] = (scope, stream, name)

        def counting_matmul(a, b):
            out = real_matmul(a, b)
            if (id(a), id(b)) in weight_of:
                folds.append(weight_of[(id(a), id(b))])
                rows[id(out)] = (weight_of[(id(a), id(b))], [])
            elif id(b) in rows:
                assert isinstance(a, np.ndarray)
                rows[id(b)][1].append(a.shape[0])
            return out

        monkeypatch.setattr(ad, "matmul", counting_matmul)
        batch = [0, 12, 13, 24]
        slide_forward(ds, params, cfg, 3, spot_indices=batch)
        # one folded (c, d) weight per stream, block weight and scope
        assert sorted(folds) == sorted(weight_of.values())
        # raw rows are gathered for the batch's spots and windows only, and
        # projected once per window that holds them: 4 tokens per member
        windows = sum(len(window_members(ds, s, 3)) for s in batch)
        expected = {"spot": 4 * len(batch), "ctx": 4 * windows}
        for (scope, _, _), counts in rows.values():
            assert sum(counts) == expected[scope]
        assert windows < 2 * ds.n_spots

    @pytest.mark.parametrize("flags,heads", [({}, 4), ({"drop_spot": True}, 3),
                                             ({"drop_ctx": True}, 3)])
    @pytest.mark.parametrize("size", [5, 7])
    def test_dropped_guide_projects_the_global_stream_once(self, monkeypatch, flags, heads,
                                                            size):
        # every fused chunk attends to the whole global stream in place of a
        # dropped guide; its keys and values are projected once per pass.
        # Odd spot counts keep chunk row counts (4 tokens a member) off n.
        ds, _ = synth_dataset(size, size, 6, 0.05, seed=23)
        cfg = ModelConfig(d_model=16, n_heads=2, **flags)
        params = ModelParams(cfg, k_genes=3, seed=3)
        n_row, cell_rows, real_matmul = [], [], ad.matmul

        def counting_matmul(a, b):
            out = real_matmul(a, b)
            n_row.append(out.shape[0] == ds.n_spots)
            cell_rows.append(out.shape[0] == 9 * ds.n_spots)
            return out

        monkeypatch.setattr(ad, "matmul", counting_matmul)
        forward_slide(ds, params, cfg, 3)
        # each head's input, and keys and values for a dropped guide; the
        # global tokens project the 3x3 cells of every spot once
        assert sum(n_row) == heads + 2 * len(flags)
        assert sum(cell_rows) == 1

    def test_step_global_projection_reads_only_the_batch_cells(self, monkeypatch):
        # a training step projects 9 cells per distinct batch spot, however
        # large the slide, and its backward still reaches every weight
        batch = [0, 6, 12, 6, 2]
        read = {}
        for size in (5, 9):
            ds, _ = synth_dataset(size, size, 6, 0.05, seed=23)
            cfg = ModelConfig(d_model=16, n_heads=2)
            params = ModelParams(cfg, k_genes=3, seed=3)
            targets, _, _ = gene_targets([ds], 3)
            rows, real_matmul = [], ad.matmul

            def counting_matmul(a, b):
                if b is params["proj.img.spot"]:
                    rows.append(np.shape(a)[0])
                return real_matmul(a, b)

            monkeypatch.setattr(ad, "matmul", counting_matmul)
            spots = [size * (s // 5) + s % 5 for s in batch]
            preds = forward_batch(ds, params, cfg, 3, spot_indices=spots)
            monkeypatch.setattr(ad, "matmul", real_matmul)
            loss, _ = loss_total(preds, targets[0][spots], 0.3)
            loss.backward()
            assert params["apeg.kernel"].grad is not None
            assert params["proj.img.spot"].grad is not None
            read[size] = rows
        assert read[5] == read[9] == [9 * len(set(batch))]

    def test_branches_build_no_take_rows_node(self, monkeypatch):
        # take_rows' backward is the only np.add.at scatter, so a step's
        # backward scatters only for fuse's query gathers and the
        # prediction gathers
        ds, _ = synth_dataset(5, 5, 6, 0.05, seed=23)
        cfg = ModelConfig(d_model=16, n_heads=2)
        params = ModelParams(cfg, k_genes=3, seed=3)
        targets, _, _ = gene_targets([ds], 3)
        takes, branch_takes, fuse_calls = [], [], []
        real_take_rows, real_branch, real_fuse = ad.take_rows, model.guided_branch, model.fuse

        def counting_take_rows(x, index):
            takes.append(len(index))
            return real_take_rows(x, index)

        def counting_branch(*args, **kwargs):
            before = len(takes)
            out = real_branch(*args, **kwargs)
            branch_takes.append(len(takes) - before)
            return out

        def counting_fuse(*args, **kwargs):
            fuse_calls.append(1)
            return real_fuse(*args, **kwargs)

        monkeypatch.setattr(ad, "take_rows", counting_take_rows)
        monkeypatch.setattr(model, "guided_branch", counting_branch)
        monkeypatch.setattr(model, "fuse", counting_fuse)
        batch = [0, 1, 6, 12, 24]
        preds = forward_batch(ds, params, cfg, 3, spot_indices=batch)
        assert branch_takes and not any(branch_takes)
        # one gather per fused chunk and one per predicted branch
        assert len(takes) == len(fuse_calls) + len(preds)
        loss, _ = loss_total(preds, targets[0][batch], 0.3)
        loss.backward()
        assert all(tensor.grad is not None for _, tensor in params.named())

    def test_inference_projects_each_repeated_read_row_once(self):
        # without a graph there is no scatter to avoid, so where windows
        # overlap each row read is projected once and its projected row
        # gathered; rows read once, and any graph, keep the per-use path
        ds, _ = synth_dataset(5, 5, 6, 0.05, seed=23)
        cfg = ModelConfig(d_model=16, n_heads=2)
        params = ModelParams(cfg, k_genes=3, seed=3)
        for centers, overlap in ((range(ds.n_spots), True), ([6, 7], True), ([12], False),
                                 ([0, 24], False)):
            members = {s: window_members(ds, s, 3) for s in centers}
            read = set().union(*members.values())
            assert overlap == (len(read) < sum(map(len, members.values())))
            inputs = branch_inputs(ds, params.detached(), cfg, "ctx", members)
            for stack, rows, weights in inputs.reads:
                assert {t: len(r) for t, r in rows.items()} == {
                    t: 4 * len(m) for t, m in members.items()}
                if overlap:
                    assert weights is None
                    assert [p.shape for p in stack] == [(4 * len(read), 16)] * len(stack)
                else:
                    assert [w.shape for w in weights] == [(stack.shape[1], 16)] * len(weights)
            graph = branch_inputs(ds, params, cfg, "ctx", members)
            assert all(weights[0].requires_grad for _, _, weights in graph.reads)

    @pytest.mark.parametrize("batch,groups", [([6], 1), ([6, 7, 8, 11], 1),
                                              ([6, 7, 8, 11, 12, 13, 16, 17], 1),
                                              ([0, 1, 6], 3), ([0, 4, 20, 24, 2, 10, 12], 3)])
    def test_attention_calls_follow_shape_groups_not_batch_size(self, monkeypatch, batch,
                                                                 groups):
        # on a 5x5 slide at D=3, corner, edge and interior windows differ in shape
        ds, _ = synth_dataset(5, 5, 6, 0.05, seed=23)
        cfg = ModelConfig(d_model=16, n_heads=2)
        params = ModelParams(cfg, k_genes=3, seed=3)
        calls = []
        real_attention = ad.attention

        def counting_attention(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real_attention(*args, **kwargs)

        monkeypatch.setattr(ad, "attention", counting_attention)
        slide_forward(ds, params, cfg, 3, spot_indices=batch)
        assert len(batch) <= CHUNK_SPOTS
        # two guides in each of the spot branch, the context branch and fusion
        assert len(calls) == 6 * groups

    @pytest.mark.parametrize("flags", [{}, {"drop_global": True},
                                       {"drop_global": True, "drop_spot": True},
                                       {"drop_global": True, "drop_ctx": True}])
    def test_step_gradients_match_full_slide_reference(self, flags):
        ds, _ = synth_dataset(3, 4, 6, 0.05, seed=29)
        cfg = ModelConfig(d_model=16, n_heads=4, **flags)
        targets, _, _ = gene_targets([ds], 4)

        def loss_and_grads(forward):
            params = ModelParams(cfg, k_genes=4, seed=6)
            rng = np.random.default_rng(6)
            for _, values in params.records():
                values[...] = rng.normal(0.0, 0.5, values.shape)
            loss = None
            for s, preds in forward(ds, params, cfg, 3, spot_indices=[0, 5, 6, 11]):
                term, _ = loss_total(preds, targets[0][s], 0.3)
                loss = term if loss is None else ad.add(loss, term)
            loss.backward()
            return loss.item(), {name: t.grad for name, t in params.named()}

        loss, grads = loss_and_grads(slide_forward)
        ref_loss, ref_grads = loss_and_grads(full_slide_forward)
        assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
        for name, grad in grads.items():
            assert (grad is None) == (ref_grads[name] is None), name
            if grad is not None:
                assert np.abs(grad).max() > 0.0, name
                assert_matches(grad, ref_grads[name], name)


@pytest.fixture(scope="module")
def grouping_slides(tmp_path_factory):
    """Slides whose spots fall into several shape groups, with a batch that
    spans them: (slide, d_context, batch)."""
    five, _ = synth_dataset(5, 5, 6, 0.05, seed=29)
    eight, _ = synth_dataset(8, 8, 6, 0.05, seed=31)
    interior = [r * 8 + c for r in range(2, 6) for c in range(2, 6)][:10]
    return {"5x5": (five, 3, [0, 1, 6, 12, 24, 7, 2, 18, 11]),
            "8x8": (eight, 5, interior + [0, 63, 3, 9, 1]),
            "varied": (varied_slide(tmp_path_factory.mktemp("varied")), 3,
                       list(np.random.default_rng(3).permutation(16)))}


def varied_slide(out_dir):
    """A precomputed 4x4 slide whose token counts differ by spot, stream and
    scope: every spot has its own spot-scope files, every other spot its own
    context-scope files."""
    ds, _ = synth_dataset(4, 4, 6, 0.05, seed=37)
    rng = np.random.default_rng(37)
    dims = {stream: tokens.shape[1] for stream, tokens in ds.features[0].streams()}
    draw = lambda stream: rng.uniform(size=(rng.integers(1, 4), dims[stream]))
    bundles = [FeatureBundle(*(draw(stream) for stream in STREAM_ORDER)) for _ in ds.spots]
    manifest = save_dataset(SpotDataset(ds.spots, ds.expr, bundles, "varied"), out_dir)
    for spot in ds.spots[::2]:
        for stream in STREAM_ORDER:
            path = out_dir / "features" / f"{spot.spot_id}.{stream}.ctx.bgft"
            path.write_bytes(encode_bgft(draw(stream)))
    return load_dataset(manifest)


class TestGroupedForward:
    @pytest.mark.parametrize("flags", [{}, {"drop_global": True},
                                       {"drop_global": True, "drop_spot": True},
                                       {"drop_global": True, "drop_ctx": True},
                                       {"drop_spot": True},
                                       {"no_edge_spot": True, "no_nuclei_ctx": True}])
    @pytest.mark.parametrize("slide", ["5x5", "8x8", "varied"])
    def test_step_matches_spot_by_spot_reference(self, grouping_slides, slide, flags):
        ds, d_context, batch = grouping_slides[slide]
        cfg = ModelConfig(d_model=16, n_heads=4, **flags)
        targets, _, _ = gene_targets([ds], 4)

        def run(forward):
            params = ModelParams(cfg, k_genes=4, seed=6)
            rng = np.random.default_rng(6)
            for _, values in params.records():
                values[...] = rng.normal(0.0, 0.5, values.shape)
            results = forward(ds, params, cfg, d_context, spot_indices=batch)
            loss = None
            for s, preds in results:
                term, _ = loss_total(preds, targets[0][s], 0.3)
                loss = term if loss is None else ad.add(loss, term)
            outputs = [(s, {name: p.data for name, p in preds.items()}) for s, preds in results]
            loss.backward()
            return outputs, {name: t.grad for name, t in params.named()}

        outputs, grads = run(slide_forward)
        ref_outputs, ref_grads = run(full_slide_forward)
        assert [s for s, _ in outputs] == [s for s, _ in ref_outputs] == batch
        for (s, preds), (_, ref) in zip(outputs, ref_outputs):
            assert set(preds) == set(ref)
            for name in preds:
                assert_matches(preds[name], ref[name], f"spot {s} {name}")
        for name, grad in grads.items():
            assert (grad is None) == (ref_grads[name] is None), name
            if grad is not None:
                assert_matches(grad, ref_grads[name], name)

    @pytest.mark.parametrize("flags", [{}, {"drop_global": True, "drop_spot": True},
                                       {"no_edge_spot": True, "no_nuclei_ctx": True}])
    @pytest.mark.parametrize("slide", ["5x5", "varied"])
    def test_inference_matches_the_graph_forward(self, grouping_slides, slide, flags):
        # forward_slide projects each read row once; a graph forward per use
        ds, d_context, _ = grouping_slides[slide]
        cfg = ModelConfig(d_model=16, n_heads=4, **flags)
        params = ModelParams(cfg, k_genes=4, seed=6)
        rng = np.random.default_rng(6)
        for _, values in params.records():
            values[...] = rng.normal(0.0, 0.5, values.shape)
        out = forward_slide(ds, params, cfg, d_context)
        ref = forward_batch(ds, params, cfg, d_context)
        assert set(out) == set(ref)
        for name, pred in out.items():
            assert_matches(pred, ref[name].data, name)

    @pytest.mark.parametrize("flags", [{"drop_global": True, "drop_spot": True},
                                       {"drop_global": True, "drop_ctx": True}])
    @pytest.mark.parametrize("batch", [[12], [0, 24], [6, 7, 0]])
    def test_wide_ablation_fuses_only_chunks_holding_a_requested_spot(self, monkeypatch,
                                                                       flags, batch):
        # the remaining branch runs on every spot to build the global stream
        ds, _ = synth_dataset(5, 5, 6, 0.05, seed=29)
        cfg = ModelConfig(d_model=16, n_heads=4, **flags)
        params = ModelParams(cfg, k_genes=4, seed=6)
        chunks, fused = [], []
        real_branch, real_fuse = model.guided_branch, model.fuse

        def recording_branch(inputs, targets, *args, **kwargs):
            chunks.append(tuple(targets))
            return real_branch(inputs, targets, *args, **kwargs)

        def recording_fuse(*args, **kwargs):
            fused.append(1)
            return real_fuse(*args, **kwargs)

        monkeypatch.setattr(model, "guided_branch", recording_branch)
        monkeypatch.setattr(model, "fuse", recording_fuse)
        preds = forward_batch(ds, params, cfg, 3, spot_indices=batch)
        assert sorted(s for chunk in chunks for s in chunk) == list(range(ds.n_spots))
        assert len(fused) == sum(1 for chunk in chunks if set(chunk) & set(batch))
        assert len(fused) < len(chunks)
        assert all(p.shape[0] == len(batch) for p in preds.values())

    def test_varied_slide_has_several_shapes(self, grouping_slides):
        ds, d_context, batch = grouping_slides["varied"]
        cfg = ModelConfig(d_model=16, n_heads=4)
        inputs = branch_inputs(ds, ModelParams(cfg, 4), cfg, "ctx",
                               {s: window_members(ds, s, d_context) for s in batch})
        shapes = [tuple(len(rows[s]) for _, rows, _ in inputs.reads) for s in batch]
        assert len(set(shapes)) > 3
        assert any(len(set(shape)) > 1 for shape in shapes)


class TestModelParams:
    @pytest.mark.parametrize("config", [ModelConfig(d_model=16, n_heads=2), ModelConfig()])
    def test_init_matches_documented_draw_order(self, config):
        params = ModelParams(config, k_genes=5, seed=1)
        expected = init_oracle(config, 5, 1)
        assert [name for name, _ in params.records()] == [name for name, _ in expected]
        for (name, values), (_, drawn) in zip(params.records(), expected):
            np.testing.assert_array_equal(values, drawn, err_msg=name)
        drawn = dict(expected)
        for label in model.MCA_BLOCKS:
            for name in MCA_WEIGHTS:
                heads = [drawn[f"{label}.h{h}.{name}"] for h in range(config.n_heads)]
                np.testing.assert_array_equal(params[f"{label}.{name}"].data,
                                              np.hstack(heads), err_msg=f"{label}.{name}")

    def test_gradients_match_per_head_reference_on_tiny_slide(self):
        ds, _ = synth_dataset(3, 3, 6, 0.05, seed=31)
        cfg = ModelConfig(d_model=16, n_heads=4)
        targets, _, _ = gene_targets([ds], 4)

        def loss_and_grads(forward):
            params = ModelParams(cfg, k_genes=4, seed=6)
            rng = np.random.default_rng(6)
            for _, values in params.records():
                values[...] = rng.normal(0.0, 0.5, values.shape)
            loss = None
            for s, preds in forward(ds, params, cfg, 3, spot_indices=[0, 4, 7]):
                term, _ = loss_total(preds, targets[0][s], 0.3)
                loss = term if loss is None else ad.add(loss, term)
            loss.backward()
            return loss.item(), {name: t.grad for name, t in params.named()}

        loss, grads = loss_and_grads(slide_forward)
        ref_loss, ref_grads = loss_and_grads(
            lambda *args, **kwargs: full_slide_forward(*args, **kwargs, mca=per_head_mca))
        assert abs(loss - ref_loss) <= 1e-12
        for name, grad in grads.items():
            assert np.abs(grad).max() > 0.0, name
            assert_matches(grad, ref_grads[name], name)

    def test_named_lists_the_documented_order_and_shapes(self):
        config = ModelConfig(d_model=8, n_heads=2, stream_dims={"img": 5, "edge": 3, "nuc": 4})
        params = ModelParams(config, k_genes=3, seed=1)
        expected = ([(f"proj.{stream}.{scope}", (config.stream_dims[stream], 8))
                     for scope in ("spot", "ctx") for stream in STREAM_ORDER]
                    + [(f"{block}.{name}", (8, 8) if name.startswith("w_") else (8,))
                       for block in ("mca_spot", "mca_ctx", "mca_fuse")
                       for name in ("w_q", "w_k_a", "w_v_a", "w_k_b", "w_v_b", "gamma", "beta")]
                    + [("apeg.kernel", (3, 3, 8))]
                    + [(f"head.{head}.{leaf}", (8, 3) if leaf == "w" else (1, 3))
                       for head in ("fused", "spot", "ctx", "global") for leaf in ("w", "b")])
        assert [(name, tensor.shape) for name, tensor in params.named()] == expected
        for name, tensor in params.named():
            assert params[name] is tensor
        for name, tensor in params.block("mca_ctx").items():
            assert tensor is params[f"mca_ctx.{name}"]

    def test_detached_shares_every_array_and_records_no_graph(self):
        params = ModelParams(CFG8, k_genes=3, seed=1)
        view = params.detached()
        assert [name for name, _ in view.named()] == [name for name, _ in params.named()]
        for (name, original), (_, detached) in zip(params.named(), view.named()):
            assert detached.data is original.data, name
            assert not detached.requires_grad, name
            assert original.requires_grad, name
        assert view.config is params.config and view.k_genes == params.k_genes

    def test_zero_grad_clears_every_gradient(self):
        params = ModelParams(CFG8, k_genes=3, seed=1)
        for _, tensor in params.named():
            tensor.grad = np.ones_like(tensor.data)
        params.zero_grad()
        assert all(tensor.grad is None for _, tensor in params.named())
