"""Composite loss, Adam, the learning-rate schedule and cross-validation."""

import functools
import math
import os
import time

import numpy as np
import pytest
from conftest import Interrupt, assert_no_child_left, forbidden_fork

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
        # a wrapped loss keeps both parts of every step in this process
        seen, real_loss = [], training.loss_total

        @functools.wraps(real_loss)
        def recording_loss(*args, **kwargs):
            seen.append(kwargs["detach_fused"])
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(training, "loss_total", recording_loss)
        monkeypatch.setattr(os, "fork", forbidden_fork)
        cfg = TrainConfig(epochs=1, k_genes=4, d_context=3, batch_size=4, distill_detach=detach)
        train(slides[:1], ModelParams(SMALL_MODEL, k_genes=4, seed=1), cfg, workers=2)
        # two parts per step; the last batch holds one spot, so its second part is empty
        assert seen == [detach] * (2 * math.ceil(slides[0].n_spots / cfg.batch_size) - 1)


def test_training_builds_each_grid_window_table_once(monkeypatch):
    # the spot, global and context branches read windows of size 1, 3 and
    # d_context; every step of both epochs, in both processes, reads the
    # slide's stored tables
    ds, _ = synth_dataset(4, 4, 6, 0.05, seed=17)
    calls, real = [], data.grid_windows

    def counting(spots, d):
        calls.append(d)
        return real(spots, d)

    monkeypatch.setattr(data, "grid_windows", counting)
    cfg = TrainConfig(epochs=2, k_genes=4, d_context=5, batch_size=4)
    train([ds], ModelParams(SMALL_MODEL, k_genes=4, seed=1), cfg, workers=2)
    assert sorted(calls) == [1, 3, 5]


def weight_bytes(params):
    return [tensor.data.tobytes() for _, tensor in params.named()]


class TestPartner:
    # 27 spots in batches of 13: the first two span slides, the last holds
    # one spot, so its second part is empty
    CFG = TrainConfig(epochs=2, k_genes=4, d_context=3, batch_size=13)

    def run(self, slides, workers, config=SMALL_MODEL, cfg=CFG):
        params = ModelParams(config, k_genes=4, seed=3)
        log = train(slides, params, cfg, workers=workers)
        return log, weight_bytes(params)

    @pytest.mark.parametrize("flags", [{}, {"drop_global": True}, {"drop_spot": True},
                                       {"drop_ctx": True}, {"no_edge_ctx": True}])
    def test_one_two_and_three_workers_train_the_same_bytes(self, slides, flags):
        config = ModelConfig(d_model=8, n_heads=2, **flags)
        (log, weights), *others = [self.run(slides, w, config) for w in (1, 2, 3)]
        for other_log, other_weights in others:
            assert other_log == log
            assert other_weights == weights
        assert_no_child_left()

    def test_one_worker_starts_no_process(self, slides, monkeypatch):
        expected = self.run(slides, 2)
        monkeypatch.setattr(os, "fork", forbidden_fork)
        assert self.run(slides, 1) == expected

    @pytest.mark.parametrize("default, forks", [(1, 0), (2, 1)])
    def test_workers_default_to_the_blas_fill(self, slides, monkeypatch, default, forks):
        calls, real_fork = [], os.fork

        def counting_fork():
            calls.append(1)
            return real_fork()

        monkeypatch.setattr(training, "default_workers", lambda: default)
        monkeypatch.setattr(os, "fork", counting_fork)
        self.run(slides, None)
        assert len(calls) == forks
        assert_no_child_left()

    def test_without_fork_both_parts_run_here(self, slides, monkeypatch):
        expected = self.run(slides, 2)
        monkeypatch.delattr(os, "fork")
        assert self.run(slides, 2) == expected

    @pytest.mark.parametrize("name", ["forward_batch", "loss_total"])
    def test_a_wrapped_stage_keeps_both_parts_here(self, slides, monkeypatch, name):
        expected = self.run(slides, 2)
        calls, real = [], getattr(training, name)

        @functools.wraps(real)
        def recording(*args, **kwargs):
            calls.append(os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(training, name, recording)
        monkeypatch.setattr(os, "fork", forbidden_fork)
        self.run(slides, 1)
        every = len(calls)
        calls.clear()
        assert self.run(slides, 2) == expected
        assert calls == [os.getpid()] * every

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_a_diverging_step_raises_and_leaves_no_partner(self, slides):
        cfg = TrainConfig(epochs=1, k_genes=4, d_context=3, batch_size=4, lr=1e100)
        with pytest.raises(NumericsError, match="non-finite loss"):
            self.run(slides, 2, cfg=cfg)
        assert_no_child_left()

    def test_an_exception_in_the_partner_is_raised_here(self, slides, monkeypatch):
        caller, real = os.getpid(), training.forward_batch

        def failing_in_the_partner(*args, **kwargs):
            if os.getpid() != caller:
                raise ValueError("raised in the partner")
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "forward_batch", failing_in_the_partner)
        with pytest.raises(ValueError, match="raised in the partner"):
            self.run(slides, 2)
        assert_no_child_left()

    def test_an_interrupt_here_kills_and_reaps_the_partner(self, slides, monkeypatch):
        caller = os.getpid()

        def interrupted(*args, **kwargs):
            if os.getpid() == caller:
                raise Interrupt
            time.sleep(60)

        monkeypatch.setattr(training, "forward_batch", interrupted)
        start = time.monotonic()
        with pytest.raises(Interrupt):
            self.run(slides, 2)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_the_caller_keeps_its_weight_arrays(self, slides):
        params = ModelParams(SMALL_MODEL, k_genes=4, seed=3)
        arrays = [tensor.data for _, tensor in params.named()]
        train(slides, params, self.CFG, workers=2)
        assert all(tensor.data is array for (_, tensor), array in zip(params.named(), arrays))
        assert weight_bytes(params) == self.run(slides, 1)[1]


class TestSplit:
    def test_the_cut_comes_nearest_half_the_cost(self):
        costs = [[5, 3, 3, 9, 1, 3]]
        batch = [(0, s) for s in range(6)]
        # in the order 3, 0, 1, 2, 5, 4 the prefix costs are 9, 14, 17, ...
        # of 24, and 14 is nearest 12
        own, other = training._split(batch, costs)
        assert own == [(0, 0), (0, 3)]
        assert other == [(0, 1), (0, 2), (0, 4), (0, 5)]

    def test_a_slide_stays_in_one_part_when_the_cut_allows(self):
        costs = [[0, 4, 0, 4], [2, 0, 2]]
        # prefix costs 4, 8, 10 of 12: 4 and 8 are as near 6, the later cut wins
        assert training._split([(1, 0), (0, 1), (1, 2), (0, 3)], costs) == [
            [(0, 1), (0, 3)], [(1, 0), (1, 2)]]

    def test_one_spot_leaves_the_second_part_empty(self):
        assert training._split([(1, 4)], [[], [0, 0, 0, 0, 7]]) == [[(1, 4)], []]

    def test_a_spot_costs_the_squared_lengths_of_its_sequences(self):
        ds, _ = synth_dataset(3, 3, 6, 0.05, seed=13)
        tokens = ds.token_stacks[("img", "spot")][1][1]  # every spot has as many tokens
        members = (ds.windows(3) < ds.n_spots).sum(axis=1)
        full = training._spot_costs(ds, SMALL_MODEL, 3)
        assert full == list(tokens ** 2 + (members * tokens) ** 2)
        config = ModelConfig(d_model=8, n_heads=2, drop_ctx=True)
        assert training._spot_costs(ds, config, 3) == [tokens ** 2] * ds.n_spots


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
        assert_no_child_left()

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
