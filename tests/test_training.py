"""Composite loss, Adam, the learning-rate schedule and cross-validation."""

import functools
import math
import os

import numpy as np
import pytest
from conftest import forbidden_fork

from bgtriplex import data, training
from bgtriplex.autodiff import Tensor
from bgtriplex.data import synth_dataset
from bgtriplex.errors import NumericsError
from bgtriplex.model import ModelConfig, ModelParams, forward_batch
from bgtriplex.training import (AdamState, TrainConfig, adam_step, cross_validate,
                                gene_targets, loss_fused, loss_total, lr_at, train)

SMALL_MODEL = ModelConfig(d_model=8, n_heads=2)


class TestAdamStep:
    def test_first_step_matches_hand_computed_bias_corrected_update(self):
        value = np.array([[0.5, -1.0, 2.0]])
        grad = np.array([[0.2, -3.0, 0.0]])
        param = Tensor(value.copy(), requires_grad=True)
        param.grad = grad.copy()
        idle = Tensor(np.array([1.5]), requires_grad=True)
        state = AdamState()
        adam_step([("p", param), ("idle", idle)], state, lr=0.01)
        # m = (1 - b1) g and v = (1 - b2) g^2, so the bias-corrected moments
        # after step 1 are g and g^2: each entry moves by lr * g / (|g| + eps)
        expected = [v - 0.01 * g / (abs(g) + 1e-8) for v, g in zip(value[0], grad[0])]
        np.testing.assert_allclose(param.data[0], expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(state.m["p"], 0.1 * grad, rtol=0, atol=1e-15)
        np.testing.assert_allclose(state.v["p"], 0.001 * grad * grad, rtol=0, atol=1e-15)
        assert state.t == 1
        np.testing.assert_array_equal(idle.data, [1.5])

    def test_rejects_gradient_of_wrong_shape(self):
        param = Tensor(np.zeros((2, 2)), requires_grad=True)
        param.grad = np.zeros(3)
        with pytest.raises(ValueError):
            adam_step([("p", param)], AdamState(), lr=0.1)


class TestLrAt:
    @pytest.mark.parametrize("epoch, expected", [(0, 1.0), (2, 1.0), (3, 0.5), (5, 0.5),
                                                 (6, 0.25), (9, 0.125)])
    def test_decays_at_step_boundaries(self, epoch, expected):
        cfg = TrainConfig(lr=1.0, step_size=3, decay=0.5)
        assert lr_at(epoch, cfg) == expected

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, TrainConfig())


@pytest.fixture(scope="module")
def slides():
    return [synth_dataset(3, 3, 6, 0.05, seed=13, slide_id=f"s{i}")[0] for i in range(3)]


class TestLossTotal:
    def test_equals_sum_of_its_terms(self):
        rng = np.random.default_rng(0)
        preds = {name: Tensor(rng.normal(size=(1, 4))) for name in ("fused", "spot", "ctx")}
        total, terms = loss_total(preds, rng.normal(size=4), 0.3)
        assert list(terms) == ["fused", "spot", "ctx"]
        assert total.item() == terms["fused"].item() + terms["spot"].item() + terms["ctx"].item()

    def test_epoch_log_total_is_sum_of_logged_terms(self, slides):
        cfg = TrainConfig(epochs=1, k_genes=4, d_context=3, batch_size=4)
        params = ModelParams(SMALL_MODEL, k_genes=4, seed=1)
        (stats,) = train(slides[:1], params, cfg)
        parts = stats.loss_fused + stats.loss_spot + stats.loss_ctx + stats.loss_global
        assert math.isclose(stats.loss_total, parts, rel_tol=0, abs_tol=1e-12)
        assert min(stats.loss_fused, stats.loss_spot, stats.loss_ctx, stats.loss_global) > 0


def global_norm(named):
    return math.sqrt(sum(float((t.grad * t.grad).sum()) for _, t in named if t.grad is not None))


class TestGradClip:
    @staticmethod
    def named_with_grads():
        rng = np.random.default_rng(3)
        named = [(f"p{i}", Tensor(np.zeros(shape), requires_grad=True))
                 for i, shape in enumerate([(2, 3), (4,), (1, 1)])]
        for _, tensor in named[:2]:
            tensor.grad = rng.normal(size=tensor.data.shape)
        return named

    def test_norm_above_the_bound_is_scaled_to_it(self):
        named = self.named_with_grads()
        before = [t.grad.copy() for _, t in named[:2]]
        bound = 0.5 * global_norm(named)
        training._clip_gradients(named, bound)
        assert math.isclose(global_norm(named), bound, rel_tol=1e-12)
        for (_, tensor), grad in zip(named, before):
            np.testing.assert_allclose(tensor.grad, grad * 0.5, rtol=1e-12)
        assert named[2][1].grad is None

    def test_norm_below_the_bound_is_unchanged(self):
        named = self.named_with_grads()
        before = [t.grad.copy() for _, t in named[:2]]
        training._clip_gradients(named, 2.0 * global_norm(named))
        for (_, tensor), grad in zip(named, before):
            np.testing.assert_array_equal(tensor.grad, grad)

    def test_every_training_step_is_clipped(self, slides, monkeypatch):
        norms, real_clip = [], training._clip_gradients

        def recording_clip(named, max_norm):
            real_clip(named, max_norm)
            norms.append(global_norm(named) / max_norm)

        monkeypatch.setattr(training, "_clip_gradients", recording_clip)
        cfg = TrainConfig(epochs=1, k_genes=4, d_context=3, batch_size=4, grad_clip=1e-6)
        train(slides[:1], ModelParams(SMALL_MODEL, k_genes=4, seed=1), cfg)
        assert len(norms) == math.ceil(slides[0].n_spots / cfg.batch_size)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)


class TestDistillDetach:
    @staticmethod
    def fused_head_grads(slide, loss):
        params = ModelParams(SMALL_MODEL, k_genes=4, seed=2)
        targets, _, _ = gene_targets([slide], 4)
        spots = [0, 4, 8]
        loss(forward_batch(slide, params, SMALL_MODEL, 3, spot_indices=spots),
             targets[0][spots]).backward()
        return [params[f"head.fused.{leaf}"].grad for leaf in ("w", "b")]

    def test_detached_target_leaves_the_fused_head_to_the_fused_term(self, slides):
        alone = self.fused_head_grads(slides[0], lambda p, g: loss_fused(p["fused"], g))
        for detach, same in ((True, True), (False, False)):
            grads = self.fused_head_grads(
                slides[0], lambda p, g: loss_total(p, g, 0.3, detach_fused=detach)[0])
            assert all(np.array_equal(a, b) for a, b in zip(grads, alone)) == same

    @pytest.mark.parametrize("detach", [True, False])
    def test_train_passes_the_flag_to_the_loss(self, slides, monkeypatch, detach):
        seen, real_loss = [], training.loss_total

        def recording_loss(*args, **kwargs):
            seen.append(kwargs["detach_fused"])
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(training, "loss_total", recording_loss)
        cfg = TrainConfig(epochs=1, k_genes=4, d_context=3, batch_size=4, distill_detach=detach)
        train(slides[:1], ModelParams(SMALL_MODEL, k_genes=4, seed=1), cfg)
        assert seen and set(seen) == {detach}


def test_training_builds_each_grid_window_table_once(monkeypatch):
    # the spot, global and context branches read windows of size 1, 3 and
    # d_context; every step of both epochs reads the slide's stored tables
    ds, _ = synth_dataset(4, 4, 6, 0.05, seed=17)
    calls, real = [], data.grid_windows

    def counting(spots, d):
        calls.append(d)
        return real(spots, d)

    monkeypatch.setattr(data, "grid_windows", counting)
    cfg = TrainConfig(epochs=2, k_genes=4, d_context=5, batch_size=4)
    train([ds], ModelParams(SMALL_MODEL, k_genes=4, seed=1), cfg)
    assert sorted(calls) == [1, 3, 5]


class TestCrossValidate:
    CFG = TrainConfig(epochs=1, k_genes=4, d_context=3, batch_size=4)

    def test_one_two_and_three_workers_give_identical_reports(self, slides):
        runs = [cross_validate(slides, self.CFG, SMALL_MODEL, workers=w) for w in (1, 2, 3)]
        (reports_1, aggregate_1), *others = runs
        for reports, aggregate in others:
            assert aggregate == aggregate_1
            assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in reports_1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_a_diverging_fold_raises_and_leaves_no_worker(self, slides):
        cfg = TrainConfig(epochs=1, k_genes=4, d_context=3, batch_size=4, lr=1e100)
        with pytest.raises(NumericsError, match="non-finite loss"):
            cross_validate(slides, cfg, SMALL_MODEL, workers=2)
        with pytest.raises(ChildProcessError):  # every worker has been reaped
            os.waitpid(-1, os.WNOHANG)

    def test_one_worker_starts_no_process(self, slides, monkeypatch):
        monkeypatch.setattr(os, "fork", forbidden_fork)
        cross_validate(slides, self.CFG, SMALL_MODEL, workers=1)

    def test_without_fork_the_folds_run_in_this_process(self, slides, monkeypatch):
        expected = cross_validate(slides, self.CFG, SMALL_MODEL, workers=2)
        monkeypatch.delattr(os, "fork")
        reports, aggregate = cross_validate(slides, self.CFG, SMALL_MODEL, workers=2)
        assert aggregate == expected[1]
        assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in expected[0]]

    def test_a_wrapped_fold_function_keeps_the_folds_in_this_process(self, slides,
                                                                      monkeypatch):
        # a tracer's wrapper must see every fold's call, so nothing forks
        expected = cross_validate(slides, self.CFG, SMALL_MODEL, workers=2)
        calls, real = [], training.train

        @functools.wraps(real)
        def recording(*args, **kwargs):
            calls.append(os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "train", recording)
        monkeypatch.setattr(os, "fork", forbidden_fork)
        reports, aggregate = cross_validate(slides, self.CFG, SMALL_MODEL, workers=2)
        assert calls == [os.getpid()] * len(slides)
        assert aggregate == expected[1]
        assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in expected[0]]

    def test_slide_tables_are_built_before_the_fork(self, monkeypatch):
        # a table a worker built would not show in this process
        slides = [synth_dataset(3, 3, 6, 0.05, seed=13, slide_id=f"s{i}")[0] for i in range(3)]
        calls, real = [], data.grid_windows

        def counting(spots, d):
            calls.append(d)
            return real(spots, d)

        monkeypatch.setattr(data, "grid_windows", counting)
        cfg = TrainConfig(epochs=1, k_genes=4, d_context=5, batch_size=4)
        cross_validate(slides, cfg, SMALL_MODEL, workers=2)
        assert sorted(calls) == [1, 1, 1, 3, 3, 3, 5, 5, 5]
        for ds in slides:
            assert sorted(ds._windows) == [1, 3, 5]
