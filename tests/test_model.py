"""Attention block, position encoder, branches and fusion.

Each check of the model against an independent computation uses the one
network wiring in ``tests/reference.py``, written from the ``model.py``
docstrings. It imports no ``bgtriplex.model`` function and runs over three
sets of ops: scalar Python loops (``SCALAR``), plain numpy (``NUMPY``) and
autodiff tensors (``AUTODIFF``), the last for the step-gradient checks.

The five goldens pin output values, not bytes: the reference arrays in
``tests/golden/`` (json, exact float repr) are compared with
``assert_allclose(rtol=0, atol=1e-12)``. They were recorded from the
scalar and numpy backends of an earlier copy of this wiring: the
``d_model=16`` goldens (``spot_branch``, ``context_branch``,
``global_branch`` and ``fuse_4spot``) from ``SCALAR``, the 6x6
default-config golden (``forward_6x6``) from ``NUMPY``. Each golden has a
test that checks the model against the same backend of ``reference.py``.
Each reference file also records the digest of the synthetic counts it
was recorded on, so a generator change fails as an input change, not as
a model change.

The float64 bytes of these outputs depend on the BLAS kernel (OpenBLAS
picks one per CPU); the values agree to ~1e-15. To check that the goldens
hold across kernels on any x86 host, run::

    for core in SkylakeX Haswell Sandybridge; do
        OPENBLAS_CORETYPE=$core PYTHONPATH=src python -m pytest -q tests/test_model.py
    done

The variable only affects the test process. CI runs the Haswell and
Sandybridge passes; SkylakeX needs AVX-512, which a runner may lack.
"""

import functools
import json
import os
from pathlib import Path

import numpy as np
import pytest
from conftest import bundle, checksum, forbidden_fork, token_stacks
from reference import (AUTODIFF, NUMPY, SCALAR, branch, forward, global_token, guiding_block,
                       head, init_oracle, window_members)

from bgtriplex import autodiff as ad
from bgtriplex import model
from bgtriplex.autodiff import Tensor, grad_check
from bgtriplex.data import (ExpressionMatrix, SpotDataset, SpotRecord, load_dataset,
                            save_dataset, synth_dataset)
from bgtriplex.features import STREAMS, encode_bgft
from bgtriplex.model import (CHUNK_SPOTS, MCA_WEIGHTS, BranchOutput, ModelConfig, ModelParams,
                             branch_inputs, forward_batch, forward_slide, fuse, global_branch,
                             guided_attention, guided_branch, slide_forward)
from bgtriplex.training import gene_targets, loss_total

GOLDEN_DIR = Path(__file__).parent / "golden"


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


def drawn_params(config, k_genes, seed):
    """Weights with every record drawn from N(0, 0.5), in record order."""
    params = ModelParams(config, k_genes=k_genes, seed=seed)
    rng = np.random.default_rng(seed)
    for _, values in params.records():
        values[...] = rng.normal(0.0, 0.5, values.shape)
    return params


def assert_step_matches_reference(ds, config, d_context, batch):
    """One training step on ``batch``, with N(0, 0.5) weights and the loss
    summed over spots: the model's predictions, loss and every gradient
    against those of the reference over ``AUTODIFF``."""
    (targets,), _, _ = gene_targets([ds], 4)

    def step(run):
        params = drawn_params(config, 4, 6)
        preds = run(params)
        loss = functools.reduce(ad.add, [
            loss_total({name: ad.take_rows(p, [b]) for name, p in preds.items()}, targets[s],
                       0.3)[0] for b, s in enumerate(batch)])
        loss.backward()
        return ({name: p.data for name, p in preds.items()}, loss.item(),
                {name: t.grad for name, t in params.named()})

    outputs, loss, grads = step(lambda params: forward_batch(ds, params, config, d_context, batch))
    ref_outputs, ref_loss, ref_grads = step(
        lambda params: forward(AUTODIFF, ds, params, d_context, batch))
    assert outputs.keys() == ref_outputs.keys()
    for name, pred in outputs.items():
        assert_matches(pred, ref_outputs[name], name)
    assert abs(loss - ref_loss) <= 1e-12
    for name, grad in grads.items():
        assert (grad is None) == (ref_grads[name] is None), name
        if grad is not None:
            assert np.abs(grad).max() > 0.0, name
            assert_matches(grad, ref_grads[name], name)


def mca(guide_a, query, guide_b, block, config, attn_sink=None):
    """``model.guided_attention`` for one query sequence and the guide
    sequences present (None for an absent one), each projected here and
    attended as a single block."""
    guides = [(ad.matmul(guide, w_k), ad.matmul(guide, w_v), 1)
              for guide, w_k, w_v in ((guide_a, block["w_k_a"], block["w_v_a"]),
                                      (guide_b, block["w_k_b"], block["w_v_b"]))
              if guide is not None]
    return guided_attention(ad.matmul(query, block["w_q"]), guides, block, config, attn_sink)


def run_branch(ds, params, config, scope, members, attn_sink=None):
    """``model.guided_branch`` for the targets of one shape that ``members``
    maps to their member spots: (tokens, prediction)."""
    out = guided_branch(branch_inputs(ds, params, config, scope, list(members.values())),
                        range(len(members)), config, attn_sink)
    return out.tokens, ad.add(ad.matmul(out.pooled, params[f"head.{scope}.w"]),
                              params[f"head.{scope}.b"])


CFG8 = ModelConfig(d_model=8, n_heads=2)


def random_mca_params(rng):
    """``CFG8`` weights whose fusion block is drawn at unit scale."""
    params = ModelParams(CFG8, k_genes=1)
    block = params.block("mca_fuse")
    for name in MCA_WEIGHTS:
        block[name].data[...] = rng.normal(size=(8, 8))
    block["gamma"].data[...] = rng.uniform(0.5, 1.5, 8)
    block["beta"].data[...] = rng.normal(size=8)
    return params


def tie_streams(block):
    """Make the two guide streams share key/value weights."""
    block["w_k_b"] = block["w_k_a"]
    block["w_v_b"] = block["w_v_a"]
    return block


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
                SCALAR.attend(*(SCALAR.matmul(x, w[:, cols])
                                for x, w in ((query, w_q), (kv, w_k), (kv, w_v)))),
                rtol=0, atol=1e-12)


class TestMca:
    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(9)
        params = random_mca_params(rng)
        guide_a, query, guide_b = (rng.normal(size=(rows, 8)) for rows in (3, 2, 4))
        out = mca(Tensor(guide_a), Tensor(query), Tensor(guide_b), params.block("mca_fuse"), CFG8)
        expected = guiding_block(NUMPY, params, "mca_fuse", query, {"a": guide_a, "b": guide_b})
        np.testing.assert_allclose(out.data, expected, atol=1e-13)

    def test_output_rows_have_zero_mean_with_unit_gamma(self):
        rng = np.random.default_rng(10)
        params = random_mca_params(rng).block("mca_fuse")
        params["gamma"] = Tensor(np.ones(8))
        params["beta"] = Tensor(np.zeros(8))
        out = mca(Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(4, 8))),
                  Tensor(rng.normal(size=(2, 8))), params, CFG8)
        assert np.abs(out.data.mean(axis=1)).max() <= 1e-10

    def test_stream_symmetry_identity(self):
        """Tied stream weights and identical guides: pre-norm sum is twice one stream."""
        rng = np.random.default_rng(11)
        params = tie_streams(random_mca_params(rng).block("mca_fuse"))
        guide = Tensor(rng.normal(size=(3, 8)))
        q = ad.matmul(Tensor(rng.normal(size=(2, 8))), params["w_q"])
        phi_a, phi_b = (ad.attention(q, ad.matmul(guide, w_k), ad.matmul(guide, w_v), 2)
                        for w_k, w_v in ((params["w_k_a"], params["w_v_a"]),
                                         (params["w_k_b"], params["w_v_b"])))
        np.testing.assert_allclose(ad.add(phi_a, phi_b).data, 2.0 * phi_a.data, atol=1e-12)

    def test_guide_permutation_invariance(self):
        rng = np.random.default_rng(12)
        params = random_mca_params(rng).block("mca_fuse")
        guide_a = rng.normal(size=(5, 8))
        query = Tensor(rng.normal(size=(3, 8)))
        guide_b = Tensor(rng.normal(size=(4, 8)))
        base = mca(Tensor(guide_a), query, guide_b, params, CFG8).data
        perm = rng.permutation(5)
        shuffled = mca(Tensor(guide_a[perm]), query, guide_b, params, CFG8).data
        np.testing.assert_allclose(shuffled, base, rtol=0, atol=1e-12)

    def test_query_equivariance(self):
        rng = np.random.default_rng(13)
        params = random_mca_params(rng).block("mca_fuse")
        guide_a = Tensor(rng.normal(size=(4, 8)))
        guide_b = Tensor(rng.normal(size=(4, 8)))
        query = rng.normal(size=(5, 8))
        base = mca(guide_a, Tensor(query), guide_b, params, CFG8).data
        perm = rng.permutation(5)
        permuted = mca(guide_a, Tensor(query[perm]), guide_b, params, CFG8).data
        np.testing.assert_allclose(permuted, base[perm], rtol=0, atol=1e-12)

    def test_sink_holds_stream_a_heads_then_stream_b_heads(self):
        rng = np.random.default_rng(14)
        params = random_mca_params(rng).block("mca_fuse")
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
    stacks = token_stacks([(token[None], np.ones((1, 1)), np.ones((1, 1))) for token in tokens])
    ds = SpotDataset(spots, ExpressionMatrix(["g"], np.zeros((n, 1))), stacks, "apeg")
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
        grads = {name: params[name].grad for name in ("proj.img.spot", "apeg.kernel")}
        params.zero_grad()
        ref = ad.concat_rows([global_token(AUTODIFF, ds, params, s) for s in spots])
        ad.mean_all(ad.mul(ref, weights)).backward()
        assert_matches(out.data, ref.data, "tokens")
        for name, grad in grads.items():
            assert_matches(grad, params[name].grad, name)


@pytest.fixture(scope="module")
def small_setup():
    ds, _ = synth_dataset(3, 3, 8, 0.05, seed=13)
    cfg = ModelConfig(d_model=16, n_heads=2)
    return ds, cfg, ModelParams(cfg, k_genes=5, seed=1)


def one_spot_dataset(ds, bundle):
    expr = ExpressionMatrix(ds.expr.genes, ds.expr.values[:1])
    return SpotDataset(ds.spots[:1], expr, token_stacks([bundle]), "one")


class TestSpotBranch:
    def test_golden(self, small_setup):
        ds, cfg, params = small_setup
        ref = load_reference("spot_branch", ds)
        tokens, prediction = run_branch(ds, params, cfg, "spot", {4: [4]})
        assert_matches(tokens.data, ref["tokens"], "tokens")
        assert_matches(prediction.data, ref["prediction"], "prediction")

    def test_matches_scalar_oracle(self, small_setup):
        ds, cfg, params = small_setup
        out_tokens, out_prediction = run_branch(ds, params, cfg, "spot", {4: [4]})
        tokens, pooled = branch(SCALAR, ds, params, "spot", [4])
        assert_matches(out_tokens.data, tokens, "tokens")
        assert_matches(out_prediction.data, head(SCALAR, params, "spot", pooled), "prediction")

    def test_single_token_equals_plain_mca(self, small_setup):
        ds, cfg, params = small_setup
        from bgtriplex.features import toy_extract

        bundle = toy_extract(ds.spots[0], dataset_seed=50, grid_tokens=1)
        img, edge, nuc = (tokens @ params[f"proj.{stream}.spot"].data
                          for stream, tokens in zip(STREAMS, bundle))
        tokens, _ = run_branch(one_spot_dataset(ds, bundle), params, cfg, "spot", {0: [0]})
        direct = guiding_block(NUMPY, params, "mca_spot", img, {"a": edge, "b": nuc})
        np.testing.assert_allclose(tokens.data, direct, atol=1e-14)

    def test_guidance_ablation_reduces_to_self_attention(self, small_setup):
        ds, _, params = small_setup
        cfg = ModelConfig(d_model=16, n_heads=2, no_edge_spot=True, no_nuclei_spot=True)
        tokens, _ = run_branch(ds, params, cfg, "spot", {0: [0]})
        assert np.isfinite(tokens.data).all()
        img = bundle(ds, 0)[0] @ params["proj.img.spot"].data
        direct = guiding_block(NUMPY, params, "mca_spot", img, {"a": img, "b": img})
        np.testing.assert_allclose(tokens.data, direct, atol=1e-14)


class TestContextBranch:
    def test_golden(self, small_setup):
        ds, cfg, params = small_setup
        ref = load_reference("context_branch", ds)
        tokens, prediction = run_branch(ds, params, cfg, "ctx", {4: window_members(ds, 4, 3)})
        assert_matches(tokens.data, ref["tokens"], "tokens")
        assert_matches(prediction.data, ref["prediction"], "prediction")

    @pytest.mark.parametrize("center", [4, 0])
    def test_matches_scalar_oracle(self, small_setup, center):
        ds, cfg, params = small_setup
        members = window_members(ds, center, 3)
        out_tokens, out_prediction = run_branch(ds, params, cfg, "ctx", {center: members})
        tokens, pooled = branch(SCALAR, ds, params, "ctx", members)
        assert_matches(out_tokens.data, tokens, "tokens")
        assert_matches(out_prediction.data, head(SCALAR, params, "ctx", pooled), "prediction")

    def test_d1_window_equals_spot_branch_with_tied_weights(self, small_setup):
        ds, cfg, _ = small_setup
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

    def test_corner_window_reads_only_present_members(self, small_setup):
        ds, cfg, params = small_setup
        sink = []
        members = window_members(ds, 0, 3)
        out_tokens, _ = run_branch(ds, params, cfg, "ctx", {0: members}, attn_sink=sink)
        tokens, _ = branch(NUMPY, ds, params, "ctx", members)
        present = tokens.shape[0]
        assert len(members) < 9
        assert_matches(out_tokens.data, tokens, "present rows")
        assert [attn.shape for attn in sink] == [(present, present)] * (2 * cfg.n_heads)
        for attn in sink:
            np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)


def run_global(ds, params):
    return global_branch(ds, params, range(ds.n_spots)).data


class TestGlobalBranch:
    def test_golden(self, small_setup):
        ds, cfg, params = small_setup
        ref = load_reference("global_branch", ds)
        assert_matches(run_global(ds, params), ref["tokens"], "tokens")

    def test_matches_scalar_oracle(self, small_setup):
        # the default init's kernel is zero, so a drawn one pins the taps
        ds, cfg, params = small_setup
        drawn = ModelParams(cfg, k_genes=5, seed=1)
        drawn["apeg.kernel"].data[...] = np.random.default_rng(34).normal(size=(3, 3, 16))
        for weights in (params, drawn):
            assert_matches(run_global(ds, weights), np.vstack(
                [global_token(SCALAR, ds, weights, s) for s in range(ds.n_spots)]))

    def test_single_spot_center_tap(self, small_setup):
        ds, cfg, _ = small_setup
        params = ModelParams(cfg, k_genes=5, seed=1)
        params["apeg.kernel"].data[...] = np.random.default_rng(31).normal(size=(3, 3, 16))
        one = one_spot_dataset(ds, bundle(ds, 4))
        image = np.array(bundle(one, 0)[0], dtype=np.float64)
        token = image.mean(axis=0, keepdims=True) @ params["proj.img.spot"].data
        np.testing.assert_allclose(run_global(one, params),
                                   token + params["apeg.kernel"].data[1, 1] * token, atol=1e-15)

    def test_spot_permutation_equivariance(self, small_setup):
        ds, cfg, _ = small_setup
        params = ModelParams(cfg, k_genes=5, seed=1)
        params["apeg.kernel"].data[...] = np.random.default_rng(32).normal(size=(3, 3, 16))
        base = run_global(ds, params)
        perm = np.random.default_rng(33).permutation(ds.n_spots)
        permuted = SpotDataset([ds.spots[i] for i in perm],
                               ExpressionMatrix(ds.expr.genes, ds.expr.values[perm]),
                               token_stacks([bundle(ds, i) for i in perm]), "permuted")
        np.testing.assert_allclose(run_global(permuted, params), base[perm], atol=1e-14)


@pytest.fixture(scope="module")
def forward_4spot():
    ds, _ = synth_dataset(2, 2, 8, 0.05, seed=13)
    cfg = ModelConfig(d_model=16, n_heads=2)
    params = ModelParams(cfg, k_genes=5, seed=1)
    fused = np.vstack([p["fused"].data for _, p in slide_forward(ds, params, cfg, 3)])
    return ds, params, fused


class TestFuse:
    def test_bias_only_head(self, small_setup):
        ds, cfg, _ = small_setup
        params = ModelParams(cfg, k_genes=1, seed=2)
        params["head.fused.w"].data[...] = 0.0
        params["head.fused.b"].data[...] = 4.25
        pred = forward_slide(ds, params, cfg, d_context=3)["fused"]
        np.testing.assert_allclose(pred, np.full((ds.n_spots, 1), 4.25), atol=1e-15)

    @pytest.mark.parametrize("spot,ctx", [(True, True), (False, True), (True, False)])
    def test_sink_holds_one_query_row_per_head_and_stream(self, small_setup, spot, ctx):
        # a dropped branch (None) is no guide, so it leaves no weights
        _, cfg, params = small_setup
        rng = np.random.default_rng(42)
        mk = lambda rows: BranchOutput(Tensor(rng.normal(size=(rows, 16))), None)
        sink = []
        fuse(mk(4) if spot else None, mk(6) if ctx else None, mk(9), [4, 7], params, cfg,
             attn_sink=sink)
        assert [a.shape for a in sink] == ([(1, 2)] * 2 * cfg.n_heads * spot
                                           + [(1, 3)] * 2 * cfg.n_heads * ctx)

    def test_target_index_out_of_range(self, small_setup):
        _, cfg, params = small_setup
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
        assert_matches(fused, forward(SCALAR, ds, params, 3)["fused"], "fused")


# A config of each kind ModelConfig admits: no flag, each ablation, and
# drop_global with each guide branch dropped.
ALLOWED_FLAGS = [{}, {"drop_spot": True}, {"drop_ctx": True}, {"drop_global": True},
                 {"drop_global": True, "drop_spot": True}, {"drop_global": True, "drop_ctx": True},
                 {"no_edge_spot": True, "no_nuclei_spot": True},
                 {"no_edge_ctx": True, "no_nuclei_ctx": True}]
# Each guide ablation alone in a branch, so that no_edge and no_nuclei differ.
SPLIT_GUIDE_FLAGS = [{"no_edge_spot": True, "no_nuclei_ctx": True},
                     {"no_nuclei_spot": True, "no_edge_ctx": True}]


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
        ref = forward(NUMPY, ds, params, 5)
        assert out.keys() == ref.keys()
        for name, pred in out.items():
            assert_matches(pred, ref[name], name)

    @pytest.mark.parametrize("d_context", [1, 3])
    @pytest.mark.parametrize("flags", ALLOWED_FLAGS + SPLIT_GUIDE_FLAGS,
                             ids=lambda f: "+".join(f) or "default")
    def test_matches_numpy_reference_with_every_parameter_drawn(self, flags, d_context):
        # at init the LayerNorm shifts, biases and APEG kernel are zero;
        # draw them too, on a grid whose rows and columns differ
        ds, _ = synth_dataset(3, 4, 6, 0.05, seed=29)
        cfg = ModelConfig(d_model=16, n_heads=4, **flags)
        params = ModelParams(cfg, k_genes=6, seed=4)
        rng = np.random.default_rng(4)
        for _, tensor in params.named():
            tensor.data[...] = rng.normal(0.0, 0.5, tensor.data.shape)
        out = forward_slide(ds, params, cfg, d_context)
        ref = forward(NUMPY, ds, params, d_context)
        assert out.keys() == ref.keys()
        for name, pred in out.items():
            assert_matches(pred, ref[name], name)


class TestForwardSlideWorkers:
    @pytest.fixture(scope="class")
    def slide(self):
        # 5x4 spots: at D=1 one shape group of 20 spots, 3 chunks
        return synth_dataset(5, 4, 6, 0.05, seed=31)[0]

    @pytest.mark.parametrize("d_context", [1, 3, 5])
    @pytest.mark.parametrize("flags", ALLOWED_FLAGS, ids=lambda f: "+".join(f) or "default")
    def test_outputs_are_byte_identical_for_every_worker_count(self, slide, flags, d_context):
        cfg = ModelConfig(d_model=16, n_heads=4, **flags)
        params = drawn_params(cfg, 4, 8)
        outs = [forward_slide(slide, params, cfg, d_context, workers=w) for w in (1, 2, 3)]
        for out in outs[1:]:
            assert out.keys() == outs[0].keys()
            for name, pred in out.items():
                assert pred.tobytes() == outs[0][name].tobytes(), name

    def test_one_chunk_or_one_worker_starts_no_process(self, slide, monkeypatch):
        cfg = ModelConfig(d_model=16, n_heads=2)
        params = ModelParams(cfg, k_genes=4, seed=8)
        expected = forward_slide(slide, params, cfg, 3, workers=2)
        monkeypatch.setattr(os, "fork", forbidden_fork)
        out = forward_slide(slide, params, cfg, 3, workers=1)
        for name, pred in out.items():
            assert pred.tobytes() == expected[name].tobytes(), name
        one_chunk, _ = synth_dataset(2, 2, 6, 0.05, seed=31)
        forward_slide(one_chunk, params, cfg, 1, workers=4)

    def test_a_share_that_raises_leaves_no_child(self, slide, monkeypatch):
        cfg = ModelConfig(d_model=16, n_heads=2)
        params = ModelParams(cfg, k_genes=4, seed=8)
        real, caller, calls = model.fuse, os.getpid(), []

        def failing_fuse(*args, **kwargs):  # no __wrapped__, so the chunks fork
            # this process computes chunks 0 and 2, the child chunk 1
            calls.append(1)
            if os.getpid() != caller:
                raise FloatingPointError("chunk 1, in the child")
            if len(calls) == 2:
                raise FloatingPointError("chunk 2, in this process")
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "fuse", failing_fuse)
        with pytest.raises(FloatingPointError, match="chunk 1, in the child"):
            forward_slide(slide, params, cfg, 1, workers=2)
        assert len(calls) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("name", ["guided_branch", "fuse"])
    def test_a_wrapped_stage_keeps_the_chunks_in_this_process(self, slide, monkeypatch, name):
        # a tracer's wrapper must see every chunk's call, so nothing forks
        cfg = ModelConfig(d_model=16, n_heads=2)
        params = ModelParams(cfg, k_genes=4, seed=8)
        expected = forward_slide(slide, params, cfg, 3, workers=2)
        calls, real = [], getattr(model, name)

        @functools.wraps(real)
        def recording(*args, **kwargs):
            calls.append(os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(model, name, recording)
        monkeypatch.setattr(os, "fork", forbidden_fork)
        out = forward_slide(slide, params, cfg, 3, workers=2)
        assert calls and set(calls) == {os.getpid()}
        for key, pred in out.items():
            assert pred.tobytes() == expected[key].tobytes(), key

    def test_a_graph_pass_never_forks(self, slide, monkeypatch):
        cfg = ModelConfig(d_model=16, n_heads=2)
        params = ModelParams(cfg, k_genes=4, seed=8)
        monkeypatch.setattr(os, "fork", forbidden_fork)
        preds = forward_batch(slide, params, cfg, 3, workers=3)
        assert all(p.requires_grad for p in preds.values())


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

    @pytest.mark.parametrize("flags", [{}, {"drop_spot": True}, {"drop_ctx": True},
                                       {"drop_global": True},
                                       {"drop_global": True, "drop_spot": True},
                                       {"drop_global": True, "drop_ctx": True}])
    @pytest.mark.parametrize("size", [5, 7])
    def test_batch_pass_reads_only_the_batch_windows(self, monkeypatch, flags, size):
        # a dropped branch has no part in fusion, so no product spans the
        # slide and the branches that remain run on the requested spots only.
        # Odd spot counts keep row counts (4 tokens a member, 9 cells) off n.
        ds, _ = synth_dataset(size, size, 6, 0.05, seed=23)
        cfg = ModelConfig(d_model=16, n_heads=2, **flags)
        params = ModelParams(cfg, k_genes=3, seed=3)
        rows, targets = [], []
        real_matmul, real_branch = ad.matmul, model.guided_branch

        def counting_matmul(a, b):
            out = real_matmul(a, b)
            rows.append(out.shape[0])
            return out

        def recording_branch(inputs, chunk, *args, **kwargs):
            targets.extend(chunk)
            return real_branch(inputs, chunk, *args, **kwargs)

        monkeypatch.setattr(ad, "matmul", counting_matmul)
        monkeypatch.setattr(model, "guided_branch", recording_branch)
        batch = [size * r + c for r, c in ((0, 0), (1, 1), (2, 2), (1, 1), (0, 2), (4, 4))]
        scope = list(dict.fromkeys(batch))  # the spots of chunk positions
        preds = forward_batch(ds, params, cfg, 3, spot_indices=batch)
        assert rows and ds.n_spots not in rows
        branches = 2 - cfg.drop_spot - cfg.drop_ctx
        spots = [scope[p] for p in targets]
        assert {s: spots.count(s) for s in spots} == dict.fromkeys(batch, branches)
        assert all(p.shape[0] == len(batch) for p in preds.values())
        # whole-slide inference: n rows only at each head's input, and the
        # global branch projects the 3x3 cells of every spot once
        rows.clear()
        forward_slide(ds, params, cfg, 3)
        assert rows.count(ds.n_spots) == len(preds)
        assert rows.count(9 * ds.n_spots) == (not cfg.drop_global)

    def test_step_global_projection_reads_only_the_batch_cells(self, monkeypatch):
        # a training step's global branch projects 9 cells per distinct
        # batch spot, however large the slide, and its backward still
        # reaches every weight
        batch = [0, 6, 12, 6, 2]
        read = {}
        real_matmul, real_global = ad.matmul, model.global_branch
        for size in (5, 9):
            ds, _ = synth_dataset(size, size, 6, 0.05, seed=23)
            cfg = ModelConfig(d_model=16, n_heads=2)
            params = ModelParams(cfg, k_genes=3, seed=3)
            targets, _, _ = gene_targets([ds], 3)
            rows, inside = [], []

            def counting_matmul(a, b):
                if inside and b is params["proj.img.spot"]:
                    rows.append(np.shape(a)[0])
                return real_matmul(a, b)

            def counted_global_branch(*args):
                inside.append(True)
                try:
                    return real_global(*args)
                finally:
                    inside.pop()

            monkeypatch.setattr(ad, "matmul", counting_matmul)
            monkeypatch.setattr(model, "global_branch", counted_global_branch)
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

    @pytest.mark.parametrize("d_model,widths,plans", [
        # d, stream widths, and the (graph-free, graph) plans of the query and
        # of keys and values where windows overlap; c <= GATHER_MACS is narrow
        (16, None, (("fold", "fold"), ("fold", "fold"))),
        (32, {"img": 48, "edge": 40, "nuc": 34}, (("distinct", "fold"), ("distinct", "fold"))),
        (16, {"img": 40, "edge": 36, "nuc": 33}, (("distinct", "fold"), ("distinct", "unfold")))])
    def test_each_read_projects_by_the_cost_of_its_width(self, d_model, widths, plans):
        # graph-free passes project distinct rows once only for wide streams
        # whose rows repeat; graph passes fold, or unfold where k c d > c d + k d^2
        ds, _ = synth_dataset(5, 5, 6, 0.05, seed=23, stream_dims=widths)
        cfg = ModelConfig(d_model=d_model, n_heads=2, **({} if widths is None
                                                         else {"stream_dims": widths}))
        params = ModelParams(cfg, k_genes=3, seed=3)
        assert model.GATHER_MACS == 32
        for centers, overlap in ((range(ds.n_spots), True), ([6, 7], True), ([12], False),
                                 ([0, 24], False)):
            members = [window_members(ds, s, 3) for s in centers]
            read = set().union(*members)
            assert overlap == (len(read) < sum(map(len, members)))
            for graph, view in ((False, params.detached()), (True, params)):
                inputs = branch_inputs(ds, view, cfg, "ctx", members)
                for (stream, names), r in zip((("img", ("w_q",)), ("edge", ("w_k_a", "w_v_a")),
                                               ("nuc", ("w_k_b", "w_v_b"))), inputs.reads):
                    assert np.diff(r.offsets).tolist() == [4 * len(m) for m in members]
                    # rows read once are projected per use, as with a graph
                    plan = plans[len(names) - 1][graph or not overlap]
                    raw = view[f"proj.{stream}.ctx"]
                    if plan == "distinct":
                        assert r.weights is None and r.proj is None
                        assert [p.shape for p in r.stack] == [(4 * len(read), d_model)] * len(names)
                        continue
                    assert r.stack is ds.token_stacks[(stream, "ctx")][0]
                    if plan == "unfold":
                        assert r.proj is raw
                        assert r.weights == [view[f"mca_ctx.{name}"] for name in names]
                    else:
                        assert r.proj is None
                        assert [w.shape for w in r.weights] == [raw.shape] * len(names)
                    assert all(w.requires_grad == graph for w in r.weights)

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
        assert_step_matches_reference(ds, cfg, 3, [0, 5, 6, 11])


@pytest.fixture(scope="module")
def grouping_slides(tmp_path_factory):
    """Slides whose spots fall into several shape groups, with a batch that
    spans them: (slide, d_context, batch)."""
    five, _ = synth_dataset(5, 5, 6, 0.05, seed=29)
    eight, _ = synth_dataset(8, 8, 6, 0.05, seed=31)
    interior = [r * 8 + c for r in range(2, 6) for c in range(2, 6)][:10]
    # every stream wider than twice the tests' d_model of 16
    wide, _ = synth_dataset(5, 5, 6, 0.05, seed=29, stream_dims={"img": 40, "edge": 36, "nuc": 33})
    # context sequences of up to 400 rows: 4 heads x 400^2 weights pass the
    # default attention budget, so graph-free attention runs in row blocks
    many, _ = synth_dataset(5, 5, 6, 0.05, seed=29, grid_tokens=16)
    return {"5x5": (five, 3, [0, 1, 6, 12, 24, 7, 2, 18, 11]),
            "16 tokens": (many, 5, [0, 6, 12, 18, 24]),
            "8x8": (eight, 5, interior + [0, 63, 3, 9, 1]),
            "wide": (wide, 3, [0, 1, 6, 12, 24, 7, 2, 18, 11]),
            "varied": (varied_slide(tmp_path_factory.mktemp("varied")), 3,
                       list(np.random.default_rng(3).permutation(16)))}


def varied_slide(out_dir):
    """A precomputed 4x4 slide whose token counts differ by spot, stream and
    scope: every spot has its own spot-scope files, every other spot its own
    context-scope files."""
    ds, _ = synth_dataset(4, 4, 6, 0.05, seed=37)
    rng = np.random.default_rng(37)
    dims = {stream: tokens.shape[1] for stream, tokens in zip(STREAMS, bundle(ds, 0))}
    draw = lambda stream: rng.uniform(size=(rng.integers(1, 4), dims[stream]))
    stacks = token_stacks([[draw(stream) for stream in STREAMS] for _ in ds.spots])
    manifest = save_dataset(SpotDataset(ds.spots, ds.expr, stacks, "varied"), out_dir)
    for spot in ds.spots[::2]:
        for stream in STREAMS:
            path = out_dir / "features" / f"{spot.spot_id}.{stream}.ctx.bgft"
            path.write_bytes(encode_bgft(draw(stream)))
    return load_dataset(manifest)


def slide_config(ds, **flags):
    """The tests' d_model 16, 4-head config, at the stream widths of ``ds``."""
    widths = {stream: ds.token_stacks[(stream, "spot")][0].shape[1] for stream in STREAMS}
    return ModelConfig(d_model=16, n_heads=4, stream_dims=widths, **flags)


class TestGroupedForward:
    @pytest.mark.parametrize("flags", [{}, {"drop_global": True},
                                       {"drop_global": True, "drop_spot": True},
                                       {"drop_global": True, "drop_ctx": True},
                                       {"drop_spot": True},
                                       {"no_edge_spot": True, "no_nuclei_ctx": True}])
    @pytest.mark.parametrize("slide", ["5x5", "8x8", "varied", "wide"])
    def test_step_matches_spot_by_spot_reference(self, grouping_slides, slide, flags):
        ds, d_context, batch = grouping_slides[slide]
        cfg = slide_config(ds, **flags)
        assert_step_matches_reference(ds, cfg, d_context, batch)

    @pytest.mark.parametrize("flags", [{}, {"drop_global": True, "drop_spot": True},
                                       {"no_edge_spot": True, "no_nuclei_ctx": True}])
    @pytest.mark.parametrize("slide, budget", [("5x5", 700), ("5x5", 1), ("8x8", 1), ("varied", 1),
                                               ("wide", 1), ("16 tokens", None),
                                               ("16 tokens", 1)],
                             ids=["5x5-four query rows", "5x5-one query row", "8x8-one query row",
                                  "varied-one query row", "wide-one query row", "16 tokens",
                                  "16 tokens-one query row"])
    def test_step_in_row_blocks_matches_spot_by_spot_reference(self, grouping_slides, slide,
                                                               budget, flags, monkeypatch):
        # a graph op whose groups pass the budget recomputes each row block's
        # weights in backward: at 700, context windows of 36 rows run 4 query
        # rows a block, and at the default budget so do the 16-token slide's
        # context windows of up to 400 rows, 81 a block
        ds, d_context, batch = grouping_slides[slide]
        if budget is not None:
            monkeypatch.setattr(ad, "ATTENTION_BLOCK", budget)
        assert_step_matches_reference(ds, slide_config(ds, **flags), d_context, batch)

    @pytest.mark.parametrize("flags", [{}, {"drop_global": True, "drop_spot": True},
                                       {"no_edge_spot": True, "no_nuclei_ctx": True}])
    @pytest.mark.parametrize("slide, budget", [("5x5", None), ("varied", None), ("wide", None),
                                               ("16 tokens", None), ("16 tokens", 1)],
                             ids=["5x5", "varied", "wide", "16 tokens", "16 tokens-one query row"])
    def test_inference_matches_the_graph_forward(self, grouping_slides, slide, budget, flags,
                                                 monkeypatch):
        # on the wide slide forward_slide projects each read row once, and a
        # graph forward unfolds keys and values per use; a budget of 1 runs
        # graph-free attention one query row at a time
        ds, d_context, _ = grouping_slides[slide]
        cfg = slide_config(ds, **flags)
        params = drawn_params(cfg, 4, 6)
        ref = forward_batch(ds, params, cfg, d_context)
        if budget is not None:
            monkeypatch.setattr(ad, "ATTENTION_BLOCK", budget)
        out = forward_slide(ds, params, cfg, d_context)
        assert set(out) == set(ref)
        for name, pred in out.items():
            assert_matches(pred, ref[name].data, name)

    def test_varied_slide_has_several_shapes(self, grouping_slides):
        ds, d_context, batch = grouping_slides["varied"]
        cfg = ModelConfig(d_model=16, n_heads=4)
        inputs = branch_inputs(ds, ModelParams(cfg, 4), cfg, "ctx",
                               [window_members(ds, s, d_context) for s in batch])
        shapes = list(zip(*(np.diff(read.offsets).tolist() for read in inputs.reads)))
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
        assert_step_matches_reference(ds, ModelConfig(d_model=16, n_heads=4), 3, [0, 4, 7])

    def test_named_lists_the_documented_order_and_shapes(self):
        config = ModelConfig(d_model=8, n_heads=2, stream_dims={"img": 5, "edge": 3, "nuc": 4})
        params = ModelParams(config, k_genes=3, seed=1)
        expected = ([(f"proj.{stream}.{scope}", (config.stream_dims[stream], 8))
                     for scope in ("spot", "ctx") for stream in STREAMS]
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
