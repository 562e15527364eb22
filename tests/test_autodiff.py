"""Tensor op contracts checked against independent scalar-loop oracles."""

import gc
import math

import mpmath
import numpy as np
import pytest

from bgtriplex import autodiff as ad
from bgtriplex.autodiff import Tensor, grad_check
from bgtriplex.errors import NumericsError, ShapeError


def matmul_oracle(a, b):
    """Naive triple loop, no numpy reductions."""
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_row_oracle(values):
    """Softmax of one row at 60 significant digits."""
    with mpmath.workdps(60):
        exps = [mpmath.exp(mpmath.mpf(v)) for v in values]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


def layer_norm_oracle(x, gamma, beta, eps):
    """Two-pass mean/variance per row, scalar loops."""
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        n = x.shape[1]
        mean = sum(x[i, j] for j in range(n)) / n
        var = sum((x[i, j] - mean) ** 2 for j in range(n)) / n
        for j in range(n):
            out[i, j] = (x[i, j] - mean) / math.sqrt(var + eps) * gamma[j] + beta[j]
    return out


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(eye, m).data, m.data)

    def test_zero(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        z = Tensor([[0.0], [0.0]])
        np.testing.assert_array_equal(ad.matmul(a, z).data, [[0.0], [0.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        np.testing.assert_allclose(ad.matmul(Tensor(a), Tensor(b)).data,
                                   matmul_oracle(a, b), rtol=0, atol=1e-13)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_associativity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a, b, c = (Tensor(rng.normal(size=(8, 8))) for _ in range(3))
            left = ad.matmul(ad.matmul(a, b), c).data
            right = ad.matmul(a, ad.matmul(b, c)).data
            np.testing.assert_allclose(left, right, rtol=1e-9)

    def test_gradient_rule(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = ad.matmul(a, b)
        seed = rng.normal(size=out.shape)
        loss = ad.mean_all(ad.mul(out, Tensor(seed)))
        loss.backward()
        scale = 1.0 / out.data.size
        np.testing.assert_allclose(a.grad, (seed * scale) @ b.data.T, atol=1e-14)
        np.testing.assert_allclose(b.grad, a.data.T @ (seed * scale), atol=1e-14)


def softmax_rows(x):
    """Row softmax of ``x`` (T, S), read off one attention head.

    Pad S to d = 4**m columns: q = 2**m [x | 0], k = v = [I | 0]. The
    head scale 1/sqrt(d) = 2**-m is exact, so the logits are exactly x
    and the output's first S columns are exactly the weights.
    """
    x = ad.as_tensor(x)
    s = x.shape[1]
    m = max(1, math.ceil(math.log(s, 4)))
    pad = np.eye(s, 4 ** m)
    q = ad.matmul(x, Tensor(pad * 2.0 ** m))
    out = ad.attention(q, Tensor(pad), Tensor(pad), 1)
    return ad.matmul(out, Tensor(pad.T))


class TestSoftmaxRows:
    def test_singleton_row(self):
        out = softmax_rows(Tensor([[42.0]]))
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_symmetry(self):
        out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-16)

    def test_large_logits_match_high_precision_oracle(self):
        out = softmax_rows(Tensor([[1000.0, 1001.0]]))
        np.testing.assert_allclose(out.data[0], softmax_row_oracle([1000.0, 1001.0]),
                                   rtol=0, atol=1e-15)

    def test_rows_sum_to_one_property(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            x = rng.normal(scale=rng.uniform(0.1, 100.0), size=(rng.integers(1, 6), rng.integers(1, 7)))
            sums = softmax_rows(Tensor(x)).data.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))

        def f(t):
            return ad.mean_all(ad.mul(softmax_rows(t), w))

        assert grad_check(f, x) <= 1e-6


class TestAttention:
    def test_gradients_with_groups(self):
        rng = np.random.default_rng(12)
        q = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
        k = Tensor(rng.normal(size=(9, 8)), requires_grad=True)
        v = Tensor(rng.normal(size=(9, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 8)))

        def f(_):
            return ad.mean_all(ad.mul(ad.attention(q, k, v, 2, groups=3), w))

        for t in (q, k, v):
            assert grad_check(f, t) <= 1e-6

    def test_each_block_attends_only_within_itself(self):
        rng = np.random.default_rng(15)
        q, k, v = (rng.normal(size=(n, 8)) for n in (6, 12, 12))
        sink = []
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), 2, groups=3, attn_sink=sink).data
        assert [a.shape for a in sink] == [(2, 4)] * 6
        for g in range(3):
            alone = ad.attention(Tensor(q[2 * g:2 * g + 2]), Tensor(k[4 * g:4 * g + 4]),
                                 Tensor(v[4 * g:4 * g + 4]), 2)
            np.testing.assert_allclose(out[2 * g:2 * g + 2], alone.data, rtol=0, atol=1e-15)

    def test_rejects_rows_that_do_not_split_into_groups(self):
        with pytest.raises(ShapeError):
            ad.attention(Tensor(np.ones((4, 6))), Tensor(np.ones((3, 6))),
                         Tensor(np.ones((3, 6))), 2, groups=2)

    def test_heads_split_by_columns(self):
        rng = np.random.default_rng(13)
        q, k, v = (rng.normal(size=(n, 6)) for n in (2, 4, 4))
        packed = ad.attention(Tensor(q), Tensor(k), Tensor(v), 3).data
        for h in range(3):
            cols = slice(2 * h, 2 * h + 2)
            one = ad.attention(Tensor(q[:, cols]), Tensor(k[:, cols]), Tensor(v[:, cols]), 1)
            np.testing.assert_allclose(packed[:, cols], one.data, rtol=0, atol=1e-15)

    def test_sink_gets_one_matrix_per_head(self):
        rng = np.random.default_rng(14)
        sink = []
        ad.attention(Tensor(rng.normal(size=(2, 8))), Tensor(rng.normal(size=(3, 8))),
                     Tensor(rng.normal(size=(3, 8))), 4, attn_sink=sink)
        assert [a.shape for a in sink] == [(2, 3)] * 4

    def test_sink_holds_normalised_softmax_weights(self):
        rng = np.random.default_rng(16)
        q, k, v = (rng.normal(size=(n, 8)) * 3.0 for n in (6, 9, 9))
        sink = []
        ad.attention(Tensor(q), Tensor(k), Tensor(v), 2, groups=3, attn_sink=sink)
        for index, weights in enumerate(sink):
            g, h = divmod(index, 2)
            qh, kh = q[2 * g:2 * g + 2, 4 * h:4 * h + 4], k[3 * g:3 * g + 3, 4 * h:4 * h + 4]
            logits = qh @ kh.T / math.sqrt(4)
            plain = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights, plain, rtol=0, atol=1e-12)

    def test_rejects_heads_that_do_not_divide_width(self):
        with pytest.raises(ShapeError):
            ad.attention(Tensor(np.ones((2, 6))), Tensor(np.ones((3, 6))),
                         Tensor(np.ones((3, 6))), 4)


class TestLayerNorm:
    def test_constant_row_goes_to_zero(self):
        x = Tensor(np.full((1, 6), 3.5))
        out = ad.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_unit_variance_fixed_point(self):
        out = ad.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8))
        gamma = rng.normal(size=8)
        beta = rng.normal(size=8)
        out = ad.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps=1e-5)
        np.testing.assert_allclose(out.data, layer_norm_oracle(x, gamma, beta, 1e-5),
                                   rtol=0, atol=1e-12)

    def test_row_statistics_property(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = rng.normal(scale=5.0, size=(4, 16))
            out = ad.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
            assert np.abs(out.mean(axis=1)).max() <= 1e-10
            np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-3)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            ad.layer_norm(Tensor(np.ones((1, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)

    def test_gradients_all_arguments(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        gamma = Tensor(rng.normal(size=5), requires_grad=True)
        beta = Tensor(rng.normal(size=5), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)))

        def make(target):
            def f(_):
                return ad.mean_all(ad.mul(ad.layer_norm(x, gamma, beta), w))
            return f

        for t in (x, gamma, beta):
            assert grad_check(make(t), t) <= 1e-6


class TestElementwiseAndShapes:
    def test_add_row_broadcast_gradient(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        out = ad.add(a, b)
        ad.mean_all(out).backward()
        np.testing.assert_allclose(b.grad, np.full((1, 3), 4 / 12), atol=1e-15)

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_scalar_multiply(self):
        a = Tensor([[2.0, -4.0]], requires_grad=True)
        out = ad.mul(a, 0.5)
        np.testing.assert_array_equal(out.data, [[1.0, -2.0]])
        ad.mean_all(out).backward()
        np.testing.assert_allclose(a.grad, [[0.25, 0.25]])

    def test_backward_needs_scalar(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 2)), requires_grad=True).backward()

    def test_concat_rows_gradients(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        assert grad_check(lambda t: ad.mean_all(ad.concat_rows([a, c])), c) <= 1e-8
        assert grad_check(lambda t: ad.mean_all(ad.mul(ad.concat_rows([t, c]), 2.0)), a) <= 1e-8

    def test_row_select(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = ad.take_rows(x, [1])
        np.testing.assert_array_equal(out.data, [[2.0, 3.0]])
        for bad in ([3], [-1]):
            with pytest.raises(ValueError):
                ad.take_rows(x, bad)

    def test_take_rows_gradient_with_repeated_indices(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 3)))
        index = [2, 0, 2, 3, 2, 0]
        np.testing.assert_array_equal(ad.take_rows(x, index).data, x.data[index])
        assert grad_check(lambda t: ad.mean_all(ad.mul(ad.take_rows(t, index), w)), x) <= 1e-8
        x.zero_grad()
        ad.mean_all(ad.mul(ad.take_rows(x, index), w)).backward()
        np.testing.assert_allclose(x.grad[1], 0.0)
        np.testing.assert_allclose(x.grad[2], (w.data[0] + w.data[2] + w.data[4]) / 18,
                                   rtol=0, atol=1e-15)

    def test_add_gives_each_operand_its_own_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        ad.mean_all(ad.add(a, b)).backward()
        assert a.grad is not b.grad
        expected = b.grad.copy()
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, expected)

    def test_add_of_a_tensor_to_itself(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.mean_all(ad.mul(ad.add(x, x), 6.0)).backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))

    def test_mean_rows_over_groups(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)))
        out = ad.mean_rows(x, groups=2)
        np.testing.assert_allclose(out.data, [x.data[:3].mean(axis=0), x.data[3:].mean(axis=0)],
                                   rtol=0, atol=1e-15)
        assert grad_check(lambda t: ad.mean_all(ad.mul(ad.mean_rows(t, groups=2), w)), x) <= 1e-8
        with pytest.raises(ShapeError):
            ad.mean_rows(x, groups=4)

    def test_backward_releases_the_graph(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        hidden = ad.mul(ad.take_rows(x, [0, 2]), 3.0)
        ad.mean_all(hidden).backward()
        np.testing.assert_allclose(x.grad, [[0.75, 0.75], [0.0, 0.0], [0.75, 0.75]])
        assert hidden.grad is None and hidden._parents == () and hidden._backward is None

    def test_detach_blocks_gradient(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        y = ad.mean_all(ad.mul(x.detach(), x.detach()))
        y.backward()
        assert x.grad is None

    def test_graph_holds_no_reference_cycles(self):
        # a graph must be freed as soon as its last tensor goes, not at the
        # cyclic collector's next pass: training builds one graph per step
        rng = np.random.default_rng(12)
        x, w, gamma, beta = (Tensor(rng.normal(size=shape), requires_grad=True)
                             for shape in ((3, 4), (4, 4), (4,), (4,)))
        gc.collect()
        gc.disable()
        try:
            h = ad.matmul(x, w)
            h = ad.attention(h, h, h, 2)
            h = ad.layer_norm(ad.add(ad.add(h, x), ad.mul(ad.mul(h, x), -1.0)), gamma, beta)
            h = ad.concat_rows([ad.mean_rows(h), ad.take_rows(h, [1, 1]), ad.mul(h, 0.5)])
            doubled = ad.compose(2.0 * h.data, (h,), lambda g, h=h: h._accumulate(2.0 * g))
            ad.mean_all(doubled).backward()
            del h, doubled
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        assert grad_check(lambda t: ad.mean_all(ad.mul(t, t)), x) <= 1e-8

    def test_linear_mse(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(5, 2)))
        target = Tensor(rng.normal(size=(3, 2)))
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

        def f(t):
            diff = ad.add(ad.matmul(t, w), ad.mul(target, -1.0))
            return ad.mean_all(ad.mul(diff, diff))

        assert grad_check(f, x) <= 1e-6

    def test_h_out_of_range(self):
        x = Tensor([[1.0]], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda t: ad.mean_all(t), x, h=1e-2)

    def test_non_finite_function_raises(self):
        x = Tensor([[np.inf]], requires_grad=True)
        with pytest.raises(NumericsError):
            grad_check(lambda t: ad.mean_all(t), x)

    def test_requires_grad_enforced(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: ad.mean_all(t), Tensor([[1.0]]))
