import itertools
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from eit import model
from eit.errors import ContractError, GeometryError
from eit.gradcheck import gradcheck
from eit.model import config_from_dict, forward, init_params
from eit.tensor import (Tensor, _Node, _windows, concat, conv2d, dropout,
                        layernorm, linear, log_softmax, matmul, maxpool2d,
                        normalize, out_size, softmax_rows)
from eit.train import cross_entropy

from oracles import attention_core_nodes, conv2d_loops, matmul_loops, maxpool_loops

SMALL = {"channels": 250, "layers": 5, "heads": 10, "classes": 10,
         "image": [32, 32, 3],
         "eitp": {"kernel": 3, "stride": 1, "padding": 1, "pool": 4}}


class TestConvGeometry:
    def test_eq6_hand_values(self):
        assert out_size(224, 16, 4, 0) == 53

    def test_exhaustive_shape_law(self):
        # floor((H + 2p - k) / s) + 1 over a broad sweep
        for h in range(1, 65, 7):
            for k in range(1, 17, 3):
                for s in range(1, 9):
                    for p in (0, 1, k // 2):
                        if h + 2 * p < k:
                            continue
                        oh = out_size(h, k, s, p)
                        assert oh == (h + 2 * p - k) // s + 1

    def test_too_small_input_rejected(self):
        with pytest.raises(GeometryError):
            out_size(3, 5, 1)

    def test_groups_must_divide(self):
        # 4 input channels over weight.shape[1] == 3: no whole group count
        with pytest.raises(ContractError):
            conv2d(Tensor(np.zeros((1, 4, 5, 5))), Tensor(np.zeros((4, 3, 3, 3))),
                   None)


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).random((1, 1, 4, 4)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, w, None)
        np.testing.assert_array_equal(out.data, x.data)

    def test_depthwise_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        x = rng.random((1, 3, 6, 6))
        w = rng.random((3, 1, 3, 3))
        b = rng.random(3)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), 1, 1)
        ref = conv2d_loops(x, w, b, 1, 1, 3)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    @pytest.mark.parametrize("trial", range(25))
    def test_random_standard_and_grouped(self, trial):
        rng = np.random.default_rng(100 + trial)
        groups = int(rng.integers(1, 3))
        cig = int(rng.integers(1, 4))
        og = int(rng.integers(1, 4))
        cin, cout = groups * cig, groups * og
        k = int(rng.integers(1, 4))
        s = int(rng.integers(1, 3))
        p = int(rng.integers(0, 2))
        h = int(rng.integers(max(k - 2 * p, 1), 8))
        x = rng.standard_normal((2, cin, h, h))
        w = rng.standard_normal((cout, cig, k, k))
        b = rng.standard_normal(cout)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), s, p)
        np.testing.assert_allclose(out.data, conv2d_loops(x, w, b, s, p, groups),
                                   atol=1e-12)

    @pytest.mark.parametrize("kh, kw, s, p, groups", [
        (3, 3, 1, 0, 1), (3, 3, 1, 2, 1), (2, 3, 1, 1, 2), (3, 1, 2, 0, 3),
        (3, 3, 2, 1, 6), (1, 2, 2, 2, 6), (4, 2, 3, 1, 2)])
    def test_transposed_input_matches_loops(self, kh, kw, s, p, groups):
        # an NHWC array seen as NCHW, as _grid_conv passes its tokens
        rng = np.random.default_rng(10 * kh + kw + 7 * s + 3 * p + groups)
        x = rng.standard_normal((2, 7, 5, 6)).transpose(0, 3, 1, 2)
        assert not x.flags.c_contiguous
        w = rng.standard_normal((12, 6 // groups, kh, kw))
        b = rng.standard_normal(12)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), s, p)
        np.testing.assert_allclose(out.data, conv2d_loops(x, w, b, s, p, groups),
                                   atol=1e-12)

    @pytest.mark.parametrize("groups", [1, 2, 4], ids=["full", "grouped", "depthwise"])
    def test_gradcheck_stride_2_padded(self, groups):
        rng = np.random.default_rng(groups)
        params = {"x": Tensor(rng.standard_normal((2, 6, 5, 4)).transpose(0, 3, 1, 2),
                              requires_grad=True),
                  "weight": Tensor(rng.standard_normal((4, 4 // groups, 3, 2)),
                                   requires_grad=True),
                  "bias": Tensor(rng.standard_normal(4), requires_grad=True)}
        proj = Tensor(rng.standard_normal((2, 4, out_size(6, 3, 2, 1),
                                           out_size(5, 2, 2, 1))))
        report = gradcheck(lambda: (conv2d(params["x"], params["weight"],
                                           params["bias"], 2, 1) * proj).sum(),
                           params)
        assert max(report.values()) <= 1e-7, report

    @pytest.mark.parametrize("p", [0, 1])
    def test_input_unchanged_and_windows_read_only(self, p):
        rng = np.random.default_rng(p)
        x0 = rng.standard_normal((2, 4, 5, 5))
        x = Tensor(x0.copy(), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        out = conv2d(x, w, None, 2, p)
        (out * out).sum().backward()
        assert x.data.tobytes() == x0.tobytes()
        win = _windows(x.data, 3, 3, 2, 2)
        assert win.shape == (2, 2, 2, 3, 3, 2, 2) and not win.flags.writeable
        with pytest.raises(ValueError):
            win[0, 0, 0, 0, 0, 0, 0] = 1.0
        assert x.data.tobytes() == x0.tobytes()

    @pytest.mark.parametrize("x_shape, w_shape, b_shape, s, p, error", [
        ((1, 3, 5, 5), (4, 2, 3, 3), None, 1, 0, ContractError),
        ((1, 3, 5, 5), (4, 6, 3, 3), None, 1, 0, ContractError),
        ((1, 0, 5, 5), (4, 1, 3, 3), None, 1, 0, ContractError),
        ((1, 4, 5, 5), (6, 1, 3, 3), None, 1, 0, ContractError),
        ((1, 3, 5, 5), (4, 3, 3, 3), (3,), 1, 0, ContractError),
        ((1, 3, 5, 5), (4, 3, 3), None, 1, 0, ContractError),
        ((1, 3, 5, 5), (0, 3, 3, 3), None, 1, 0, ContractError),
        ((1, 3, 5, 5), (4, 0, 3, 3), None, 1, 0, ContractError),
        ((1, 3, 5, 5), (4, 3, 0, 3), None, 1, 0, ContractError),
        ((1, 3, 5, 5), (4, 3, 3, 0), None, 1, 0, ContractError),
        ((1, 3, 5, 5), (4, 3, 3, 3), None, 0, 0, ContractError),
        ((1, 3, 5, 5), (4, 3, 3, 3), None, 1, -1, ContractError),
        ((1, 3, 2, 5), (4, 3, 3, 3), None, 1, 0, GeometryError)],
        ids=["c_in-not-divisible", "c_in-below-weight", "c_in-0",
             "c_out-not-divisible", "bias", "weight-3d", "c_out-0",
             "c_in-per-group-0", "kh-0", "kw-0", "stride-0", "padding-1",
             "input-below-kernel"])
    def test_weight_shape_mismatch(self, x_shape, w_shape, b_shape, s, p,
                                   error):
        # each raises before any arithmetic: a zero-size weight is no
        # ZeroDivisionError
        bias = None if b_shape is None else Tensor(np.zeros(b_shape))
        with pytest.raises(error):
            conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), bias,
                   s, p)

    def test_raw_input_gets_no_gradient_and_changes_no_other(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 6))
        w_data, b_data = rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)
        grads = []
        for x_grad in (False, True):
            xt = Tensor(x.copy(), requires_grad=x_grad)
            w = Tensor(w_data.copy(), requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=True)
            out = conv2d(xt, w, b, 1, 1)
            if not x_grad:  # the input's slot of the backward is left empty
                assert out._node.backward(np.ones(out.shape))[0] is None
            (out * out).sum().backward()
            grads.append((xt.grad, w.grad, b.grad))
        (gx_raw, gw_raw, gb_raw), (gx, gw, gb) = grads
        assert gx_raw is None and gx is not None
        np.testing.assert_array_equal(gw_raw, gw)
        np.testing.assert_array_equal(gb_raw, gb)

    def test_pure(self):
        rng = np.random.default_rng(7)
        x, w = rng.random((1, 2, 5, 5)), rng.random((2, 2, 3, 3))
        a = conv2d(Tensor(x), Tensor(w), None).data
        b = conv2d(Tensor(x), Tensor(w), None).data
        assert (a == b).all()


class TestMaxpool:
    def test_identity_window(self):
        x = np.random.default_rng(0).random((1, 2, 3, 3))
        np.testing.assert_array_equal(maxpool2d(Tensor(x), 1).data, x)

    def test_pool_size_formula(self):
        x = Tensor(np.zeros((1, 1, 53, 53)))
        assert maxpool2d(x, 3).shape == (1, 1, 17, 17)

    def test_block_maxima(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = maxpool2d(Tensor(x), 2)
        np.testing.assert_array_equal(out.data.ravel(), [5, 7, 13, 15])

    @pytest.mark.parametrize("trial", range(25))
    def test_random_vs_bruteforce(self, trial):
        rng = np.random.default_rng(trial)
        h = int(rng.integers(2, 8))
        win = int(rng.integers(1, h + 1))
        x = rng.standard_normal((2, 3, h, h))
        out = maxpool2d(Tensor(x), win)
        np.testing.assert_allclose(out.data, maxpool_loops(x, win, win), atol=1e-12)

    @pytest.mark.parametrize("win, s", [(2, 2)])
    def test_transposed_input_vs_bruteforce(self, win, s):
        x = np.random.default_rng(win + s).standard_normal((2, 7, 6, 3))
        x = x.transpose(0, 3, 1, 2)
        out = maxpool2d(Tensor(x), win)
        np.testing.assert_array_equal(out.data, maxpool_loops(x, win, s))

    @pytest.mark.parametrize("win, error", [
        (3, GeometryError), (0, ContractError), (-1, ContractError)],
        ids=["window-3", "window-0", "window-neg"])
    def test_oversized_window(self, win, error):
        with pytest.raises(error):
            maxpool2d(Tensor(np.zeros((1, 1, 2, 2))), win)

    def test_backward_first_argmax_on_ties(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        maxpool2d(x, 2).sum().backward()
        np.testing.assert_array_equal(x.grad.ravel(), [1, 0, 0, 0])

    def test_nan_wins_its_window_like_argmax(self):
        # a NaN is the maximum of its window; the first NaN takes the gradient
        x = Tensor(np.array([[[[1.0, np.nan], [np.nan, 5.0]]]]), requires_grad=True)
        out = maxpool2d(x, 2)
        assert np.isnan(out.data).all()
        out.sum().backward()
        np.testing.assert_array_equal(x.grad.ravel(), [0, 1, 0, 0])

    @pytest.mark.parametrize("trial", range(10))
    def test_backward_matches_argmax_on_overlapping_ties(self, trial):
        # the win * win disjoint pools of the shifted views x[oy:, ox:] hold
        # every stride-1 window once, so the windows overlap and their
        # gradients add up in x
        rng = np.random.default_rng(trial)
        x = rng.integers(-2, 2, (2, 3, 7, 7)).astype(float)  # many ties
        win = int(rng.integers(2, 4))
        t = Tensor(x, requires_grad=True)
        total = None
        for oy, ox in itertools.product(range(win), repeat=2):
            part = maxpool2d(t[:, :, oy:, ox:], win).sum()
            total = part if total is None else total + part
        total.backward()
        want = np.zeros_like(x)
        for p in range(7 - win + 1):
            for q in range(7 - win + 1):
                block = x[:, :, p:p + win, q:q + win]
                k = block.reshape(2, 3, -1).argmax(axis=-1)
                for ni in range(2):
                    for ci in range(3):
                        dy, dx = divmod(int(k[ni, ci]), win)
                        want[ni, ci, p + dy, q + dx] += 1
        np.testing.assert_array_equal(t.grad, want)

class TestMatmul:
    def test_identity(self):
        x = np.random.default_rng(0).random((3, 3))
        np.testing.assert_array_equal(matmul(Tensor(np.eye(3)), Tensor(x)).data, x)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    @pytest.mark.parametrize("trial", range(25))
    def test_random_vs_bruteforce(self, trial):
        rng = np.random.default_rng(trial)
        m, k, n = rng.integers(1, 8, 3)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data,
                                   matmul_loops(a, b), atol=1e-12)

    def test_5x7_by_7x3(self):
        rng = np.random.default_rng(42)
        a, b = rng.standard_normal((5, 7)), rng.standard_normal((7, 3))
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data,
                                   matmul_loops(a, b), atol=1e-12)

    def test_inner_mismatch(self):
        with pytest.raises(ContractError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_batched(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 2, 3, 5))
        b = rng.standard_normal((4, 2, 5, 2))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b, atol=1e-12)


class TestSoftmax:
    def test_zero_row_uniform(self):
        out = softmax_rows(Tensor(np.zeros((2, 5))))
        np.testing.assert_allclose(out.data, 0.2)

    def test_log3_row(self):
        out = softmax_rows(Tensor([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_order_preserved(self, row):
        out = softmax_rows(Tensor([row])).data[0]
        assert abs(out.sum() - 1.0) <= 1e-9
        arr = np.asarray(row)
        less = arr[:, None] <= arr[None, :]
        assert (out[:, None] <= out[None, :])[less].all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        perm = rng.permutation(6)
        np.testing.assert_allclose(softmax_rows(Tensor(x[perm])).data,
                                   softmax_rows(Tensor(x)).data[perm], atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractError):
            softmax_rows(Tensor([[np.inf, 0.0]]))


class TestLayernorm:
    def _gs(self, c):
        return Tensor(np.ones(c)), Tensor(np.zeros(c))

    def test_constant_input_zeros(self):
        g, s = self._gs(4)
        out = layernorm(Tensor(np.full((2, 4), 3.0)), g, s)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_two_point_normalization(self):
        g, s = self._gs(2)
        out = layernorm(Tensor([[1.0, 3.0]]), g, s, eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_zero_gain_gives_shift(self):
        rng = np.random.default_rng(0)
        shift = Tensor(rng.standard_normal(5))
        out = layernorm(Tensor(rng.standard_normal((3, 5))),
                        Tensor(np.zeros(5)), shift)
        np.testing.assert_allclose(out.data, np.broadcast_to(shift.data, (3, 5)))

    def test_mean_zero_unit_variance(self):
        rng = np.random.default_rng(1)
        g, s = self._gs(16)
        out = layernorm(Tensor(rng.standard_normal((4, 16)) * 5 + 2), g, s,
                        eps=1e-12).data
        np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(-1), 1.0, atol=1e-6)

    def test_bad_eps(self):
        g, s = self._gs(2)
        with pytest.raises(ContractError):
            layernorm(Tensor([[1.0, 2.0]]), g, s, eps=0.0)


class TestFusedNodes:
    """normalize, softmax_rows and log_softmax are single graph nodes whose
    analytic backward matches central differences."""

    def test_normalize_over_batch_and_tokens_gradcheck(self):
        rng = np.random.default_rng(0)
        params = {"x": Tensor(rng.standard_normal((3, 5, 4)) * 2 + 1,
                              requires_grad=True),
                  "gain": Tensor(rng.standard_normal(4), requires_grad=True),
                  "shift": Tensor(rng.standard_normal(4), requires_grad=True)}
        # a fixed random projection: sum(out**2) is nearly constant in x
        # after normalization, which leaves central differences nothing to see
        proj = Tensor(rng.standard_normal((3, 5, 4)))
        report = gradcheck(lambda: (normalize(params["x"], (0, 1), params["gain"],
                                              params["shift"], 1e-5) * proj).sum(),
                           params)
        assert max(report.values()) <= 1e-6, report

    def test_cross_entropy_gradcheck_at_large_logits(self):
        rng = np.random.default_rng(1)
        params = {"logits": Tensor(rng.standard_normal((4, 5)) + 100.0,
                                   requires_grad=True)}
        labels = np.array([0, 4, 2, 2])
        report = gradcheck(lambda: cross_entropy(params["logits"], labels), params)
        assert report["logits"] <= 1e-5, report

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(2).standard_normal((3, 6)) * 10
        np.testing.assert_allclose(np.exp(log_softmax(Tensor(x)).data),
                                   softmax_rows(Tensor(x)).data, rtol=1e-12)

    def test_log_softmax_nonfinite_rejected(self):
        with pytest.raises(ContractError):
            log_softmax(Tensor([[np.nan, 0.0]]))

    @pytest.mark.parametrize("op", [
        lambda x, c: layernorm(x, Tensor(np.ones(c)), Tensor(np.zeros(c))),
        lambda x, c: softmax_rows(x),
        lambda x, c: log_softmax(x),
        lambda x, c: linear(x, Tensor(np.ones((c, 5)), requires_grad=True),
                            Tensor(np.zeros(5), requires_grad=True))],
        ids=["layernorm", "softmax_rows", "log_softmax", "linear"])
    def test_one_node_each(self, op, monkeypatch):
        made = []
        from_op = Tensor._from_op

        def counted(data, parents, backward):
            made.append(data)
            return from_op(data, parents, backward)
        monkeypatch.setattr(Tensor, "_from_op", staticmethod(counted))
        x = Tensor(np.random.default_rng(3).standard_normal((2, 3, 4)),
                   requires_grad=True)
        op(x, 4)
        assert len(made) == 1


class TestLinear:
    """linear(x, W, b) is one node equal to matmul(x, W) + b; its backward
    is three 2-D GEMM-shaped reductions over the flattened rows."""

    @pytest.mark.parametrize("xshape", [(3, 4, 5), (6, 5)], ids=["tokens", "head"])
    def test_gradcheck(self, xshape):
        rng = np.random.default_rng(0)
        params = {"x": Tensor(rng.standard_normal(xshape), requires_grad=True),
                  "weight": Tensor(rng.standard_normal((5, 3)), requires_grad=True),
                  "bias": Tensor(rng.standard_normal(3), requires_grad=True)}
        proj = Tensor(rng.standard_normal(xshape[:-1] + (3,)))
        report = gradcheck(lambda: (linear(params["x"], params["weight"],
                                           params["bias"]) * proj).sum(), params)
        assert max(report.values()) <= 1e-7, report

    def test_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(1)
        x0, w0, b0 = (rng.standard_normal((4, 9, 12)), rng.standard_normal((12, 7)),
                      rng.standard_normal(7))
        proj = Tensor(rng.standard_normal((4, 9, 7)))
        results = []
        for op in (lambda x, w, b: linear(x, w, b),
                   lambda x, w, b: matmul(x, w) + b):
            x, w, b = (Tensor(v.copy(), requires_grad=True) for v in (x0, w0, b0))
            y = op(x, w, b)
            (y * proj).sum().backward()
            results.append((y.data, x.grad, w.grad, b.grad))
        for got, want in zip(*results):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_no_input_gradient_for_a_constant_input(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        out = linear(x, w, b)
        gx, gw, gb = out._node.backward(np.ones(out.shape))
        assert gx is None and gw.shape == (4, 5) and gb.shape == (5,)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))),
                   Tensor(np.zeros(5)))
        with pytest.raises(ContractError):
            linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 5))),
                   Tensor(np.zeros(4)))

    @staticmethod
    def _small_batch_node_count(monkeypatch, run) -> int:
        """Nodes made by ``run(images, labels, params, config)`` on a SMALL
        batch of 16."""
        cfg = config_from_dict(SMALL)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(0)
        images, labels = rng.random((16, 3, 32, 32)), rng.integers(0, 10, 16)
        made = []
        from_op = Tensor._from_op

        def counted(data, parents, backward):
            made.append(data)
            return from_op(data, parents, backward)
        monkeypatch.setattr(Tensor, "_from_op", staticmethod(counted))
        run(images, labels, params, cfg)
        return len(made)

    def test_small_training_forward_graph_size(self, monkeypatch):
        def step(images, labels, params, cfg):
            rng = np.random.default_rng(0)
            cross_entropy(forward(images, params, cfg, train=True, rng=rng), labels)
        assert self._small_batch_node_count(monkeypatch, step) == 167

    def test_small_probe_forward_graph_size(self, monkeypatch):
        # the training count less the loss's log_softmax, pick, sum and scale
        def probe(images, labels, params, cfg):
            forward(images, params, cfg, collect_probes=True)
        assert self._small_batch_node_count(monkeypatch, probe) == 163


class TestGradientScatter:
    """The backward of an index that picks no element twice assigns into
    zeros; it must equal np.add.at bit for bit, signed zeros included."""

    def test_basic_slice_matches_add_at_bitwise(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 5, 6)), requires_grad=True)
        key = (slice(None), slice(1, None, 2), 4)
        g = rng.standard_normal((3, 2))
        g[0, 0], g[1, 1] = -0.0, np.nan
        (gx,) = x[key]._node.backward(g)
        want = np.zeros(x.shape)
        np.add.at(want, key, g)
        assert gx.tobytes() == want.tobytes()

    def test_advanced_index_with_repeats_accumulates(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        x[np.array([0, 0, 1]), np.array([2, 2, 0])].sum().backward()
        np.testing.assert_array_equal(x.grad, [[0, 0, 2], [1, 0, 0]])

    @pytest.mark.parametrize("window, stride", [(2, 2), (3, 3)])
    def test_disjoint_pool_windows_match_add_at_bitwise(self, window, stride):
        rng = np.random.default_rng(window * 10 + stride)
        x = rng.integers(-2, 2, (2, 3, 7, 7)).astype(float)  # many ties
        x[0, 0, :2, :2] = np.nan
        x[0, 1, :3, :3] = -np.inf
        x[1, 2, 0, 0] = np.nan
        t = Tensor(x, requires_grad=True)
        out = maxpool2d(t, window)
        g = rng.standard_normal(out.shape)
        g[0, 0, 0, 0] = -0.0
        (gx,) = out._node.backward(g)
        n, c, oh, ow = out.shape
        want = np.zeros_like(x)
        for p in range(oh):
            for q in range(ow):
                block = x[:, :, p * stride:p * stride + window,
                          q * stride:q * stride + window]
                k = block.reshape(n, c, -1).argmax(axis=-1)
                for ni in range(n):
                    for ci in range(c):
                        dy, dx = divmod(int(k[ni, ci]), window)
                        np.add.at(want, (ni, ci, p * stride + dy, q * stride + dx),
                                  g[ni, ci, p, q])
        assert gx.tobytes() == want.tobytes()


class TestGelu:
    def test_in_place_arithmetic_matches_the_formula_bitwise(self):
        x = np.random.default_rng(3).standard_normal(1000) * 4
        x[:4] = [0.0, -0.0, 1e-310, -40.0]
        g = np.random.default_rng(4).standard_normal(1000)
        t = Tensor(x, requires_grad=True)
        y = t.gelu()
        (gx,) = y._node.backward(g)
        phi = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        dens = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
        assert y.data.tobytes() == (x * phi).tobytes()
        assert gx.tobytes() == (g * (phi + x * dens)).tobytes()

    def test_output_without_grad_matches_the_formula_bitwise(self):
        x = np.random.default_rng(5).standard_normal(1000) * 4
        x[:4] = [0.0, -0.0, 1e-310, -40.0]
        y = Tensor(x).gelu()
        phi = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        assert y._node is None
        assert y.data.tobytes() == (x * phi).tobytes()


class TestDropout:
    MICRO = {"channels": 8, "layers": 2, "heads": 2, "classes": 2,
             "image": [8, 8, 3], "dropout": 0.1,
             "eitp": {"kernel": 3, "stride": 1, "padding": 1, "pool": 2}}

    def test_output_and_gradient_scale_the_kept_entries(self):
        rate = 0.3
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 5, 6)), requires_grad=True)
        g = rng.standard_normal(x.shape)
        mask = np.random.default_rng(7).random(x.shape) >= rate
        assert 0 < mask.mean() < 1
        y = dropout(x, rate, np.random.default_rng(7))
        (y * Tensor(g)).sum().backward()
        assert y.data.tobytes() == (x.data * (mask / (1.0 - rate))).tobytes()
        assert x.grad.tobytes() == (g * (mask / (1.0 - rate))).tobytes()

    def test_rate_zero_returns_its_input_and_draws_nothing(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert dropout(x, 0.0, rng) is x
        assert rng.bit_generator.state == state

    def test_micro_training_forward_reruns_bitwise(self):
        cfg = config_from_dict(self.MICRO)
        params = init_params(cfg, 0)
        images = np.random.default_rng(0).random((2, 3, 8, 8))

        def run(seed):
            return forward(images, params, cfg, train=True,
                           rng=np.random.default_rng(seed)).data
        assert run(4).tobytes() == run(4).tobytes()
        assert run(4).tobytes() != run(5).tobytes()
        assert not np.array_equal(run(4), forward(images, params, cfg).data)

    def test_gradcheck_with_the_mask_reseeded_in_f(self):
        cfg = config_from_dict(dict(self.MICRO, channels=4, layers=1,
                                    image=[4, 4, 3], dropout=0.2))
        params = init_params(cfg, 1)
        images = np.random.default_rng(1).random((2, 3, 4, 4))
        labels = np.array([0, 1])
        report = gradcheck(lambda: cross_entropy(forward(
            images, params, cfg, train=True, rng=np.random.default_rng(2)),
            labels), params)
        assert max(report.values()) <= 1e-4, report


class TestGlue:
    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (concat([a, b], axis=1) * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((2, 3), 2.0))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_unreached_parameter_keeps_no_grad(self):
        used = Tensor(np.ones(2), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        used.sum().backward()
        assert used.grad is not None and unused.grad is None

    def test_linear_loss_outer_product_grad(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 2)))
        matmul(w, x).sum().backward()
        np.testing.assert_allclose(w.grad, np.outer(np.ones(3), x.data.sum(axis=1)))

    def test_every_tensor_is_f64(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = x * np.float32(2.0) + 1
        assert x.data.dtype == y.data.dtype == np.float64
        assert x.detach().data.dtype == np.float64


class TestEngineContract:
    def test_backward_releases_the_graph(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        hidden = x * 2.0
        ref = weakref.ref(hidden)
        loss = hidden.sum()
        del hidden
        loss.backward()
        assert ref() is None
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_leaves_own_their_gradients(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is not b.grad
        np.testing.assert_array_equal(a.grad, np.ones(3))
        np.testing.assert_array_equal(b.grad, np.ones(3))

    def test_leaves_accumulate_across_backward_calls(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        (x * 3.0).sum().backward()
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, 3.0 + 2.0 * x.data)


class TestRecompute:
    """The model's attention core is one node that keeps only the qkv
    projection; its backward recomputes the weights and builds no node."""

    @staticmethod
    def _micro_training_loss(policy="decreasing"):
        cfg = config_from_dict({
            "channels": 8, "layers": 2, "heads": 2, "classes": 2,
            "image": [8, 8, 3], "split_policy": policy, "dropout": 0.1,
            "eitp": {"kernel": 3, "stride": 1, "padding": 1, "pool": 2}})
        params = init_params(cfg, 0)
        rng = np.random.default_rng(0)
        logits = forward(rng.random((2, 3, 8, 8)), params, cfg, train=True, rng=rng)
        return cross_entropy(logits, np.array([0, 1])), params, cfg

    @staticmethod
    def _small_training_loss():
        cfg = config_from_dict(SMALL)
        params = init_params(cfg, 0)
        rng = np.random.default_rng(0)
        images, labels = rng.random((16, 3, 32, 32)), rng.integers(0, 10, 16)
        logits = forward(images, params, cfg, train=True, rng=rng)
        return cross_entropy(logits, labels), params, cfg

    @pytest.mark.parametrize("policy", ["decreasing", "parallel"])
    def test_matches_a_core_of_plain_nodes(self, policy, monkeypatch):
        calls, mha = [], model.mha

        def spy(x, *weights_and_heads):
            calls.append((x.data, weights_and_heads))
            return mha(x, *weights_and_heads)
        monkeypatch.setattr(model, "mha", spy)
        self._micro_training_loss(policy)
        assert len(calls) == 2  # one per layer

        def reference(x, qkv_w, qkv_b, out_w, out_b, heads):
            o, attn = attention_core_nodes(linear(x, qkv_w, qkv_b), heads)
            return linear(o, out_w, out_b), attn
        for data, (*weights, heads) in calls:
            proj = Tensor(np.random.default_rng(1).standard_normal(data.shape))
            got = []
            for run in (mha, reference):
                x = Tensor(data, requires_grad=True)
                ws = [Tensor(w.data, requires_grad=True) for w in weights]
                out, attn = run(x, *ws, heads)
                (out * proj).sum().backward()
                got.append([a.tobytes() for a in (out.data, attn, x.grad,
                                                   *(w.grad for w in ws))])
            assert got[0] == got[1]

    @pytest.mark.parametrize("case", ["micro-decreasing", "micro-parallel",
                                      "small-b16"])
    def test_backward_builds_no_node(self, case, monkeypatch):
        loss = (self._small_training_loss() if case == "small-b16"
                else self._micro_training_loss(case.split("-")[1]))[0]
        made = []
        node_init = _Node.__init__

        def counted(self, *args, **kwargs):
            made.append(1)
            node_init(self, *args, **kwargs)
        monkeypatch.setattr(_Node, "__init__", counted)
        loss.backward()
        assert len(made) == 0

    def test_training_graph_keeps_no_attention_sized_array(self):
        loss, _, cfg = self._micro_training_loss()
        h0, w0 = cfg.token_grid()
        n, t = 2, 1 + h0 * w0
        shapes, seen, todo = set(), set(), [loss._node]
        while todo:  # every array the graph's closures reach
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                shapes.add(obj.shape)
                todo.append(obj.base)
            elif isinstance(obj, _Node):
                todo += [*obj.parents, obj.backward]
            elif isinstance(obj, types.FunctionType):
                todo += [c.cell_contents for c in obj.__closure__ or ()]
            elif isinstance(obj, (tuple, list)):
                todo += obj
        assert (n, t, 3 * cfg.channels) in shapes  # the kept qkv projection
        assert (n, cfg.heads, t, t) not in shapes

    def test_backward_is_entered_once_per_training_loss(self, monkeypatch):
        entered = []
        backward = Tensor.backward

        def counted(self):
            entered.append(self)
            backward(self)
        monkeypatch.setattr(Tensor, "backward", counted)
        loss, params, _ = self._micro_training_loss()
        loss.backward()
        assert entered == [loss]
        assert params["layers.0.attn.qkv.weight"].grad is not None


def _interior(shape, seed=0):
    """An op's output that needs a gradient, so no one else holds its array."""
    leaf = Tensor(np.random.default_rng(seed).standard_normal(shape),
                  requires_grad=True)
    return leaf, leaf * 1.0


class TestGraphKeepsOnlyWhatBackwardReads:
    """An op's output keeps its input's array only when its backward reads
    it: dropping the input Tensor frees the array otherwise."""

    FREED = [
        ("add", (2, 3), lambda x: x + x),
        ("mul-by-constant", (2, 3), lambda x: x * Tensor(np.ones(3))),
        ("sum", (2, 3), lambda x: x.sum()),
        ("relu", (2, 3), lambda x: x.relu()),
        ("gelu", (2, 3), lambda x: x.gelu()),
        ("maxpool2d", (1, 2, 4, 4), lambda x: maxpool2d(x, 2)),
        ("maxpool2d-transposed", (1, 2, 4, 4),
         lambda x: maxpool2d(x.transpose(0, 1, 3, 2), 2)),
        ("basic-slice-transposed", (2, 3), lambda x: x.transpose(1, 0)[1:] + 0.0),
        ("concat", (2, 3), lambda x: concat([x, x], axis=1)),
        ("advanced-index", (2, 3),
         lambda x: x[np.array([0, 1, 1]), np.array([2, 0, 2])]),
        ("softmax_rows", (2, 3), softmax_rows),
        ("log_softmax", (2, 3), log_softmax),
        ("normalize", (2, 3), lambda x: layernorm(
            x, Tensor(np.ones(3), requires_grad=True),
            Tensor(np.zeros(3), requires_grad=True))),
        ("conv2d-padded", (1, 2, 4, 4), lambda x: conv2d(
            x, Tensor(np.ones((3, 2, 3, 3)), requires_grad=True), None, 1, 1)),
        ("dropout", (2, 3),
         lambda x: dropout(x, 0.5, np.random.default_rng(0)))]
    KEPT = [
        ("matmul", (2, 3), lambda x: matmul(x, Tensor(np.ones((3, 2))))),
        ("mul", (2, 3), lambda x: x * Tensor(np.ones(3), requires_grad=True)),
        ("linear", (2, 3), lambda x: linear(
            x, Tensor(np.ones((3, 2)), requires_grad=True),
            Tensor(np.zeros(2), requires_grad=True)))]

    @staticmethod
    def _apply_and_drop(shape, op):
        leaf, x = _interior(shape)
        array = weakref.ref(x.data)
        y = op(x)
        del x
        return leaf, y, array

    @pytest.mark.parametrize("name, shape, op", FREED,
                             ids=[c[0] for c in FREED])
    def test_input_array_freed(self, name, shape, op):
        leaf, y, array = self._apply_and_drop(shape, op)
        assert array() is None
        assert np.isfinite(y.data).all()
        (y * y).sum().backward()  # the graph still replays
        assert leaf.grad.shape == leaf.shape

    @pytest.mark.parametrize("name, shape, op", KEPT,
                             ids=[c[0] for c in KEPT])
    def test_input_array_kept_when_backward_reads_it(self, name, shape, op):
        _, y, array = self._apply_and_drop(shape, op)
        assert array() is not None and y.requires_grad

    def test_interior_tensor_dies_with_its_last_reference(self):
        _, x = _interior((2, 3))
        ref = weakref.ref(x)
        y = x.relu()
        del x
        assert ref() is None and y.requires_grad

    def test_a_leaf_is_not_kept_alive_by_the_graph(self):
        leaf = Tensor(np.ones(3), requires_grad=True)
        ref = weakref.ref(leaf)
        loss = (leaf * 2.0).sum()
        del leaf
        assert ref() is None
        loss.backward()  # a dead leaf's gradient goes nowhere


class TestPerNodeOverhead:
    """The code that runs once per node calls numpy only on arrays."""

    SLOW = [(np, "argsort"), (np, "prod"), (np, "cumsum"),
            (np.lib.stride_tricks, "as_strided")]

    @pytest.mark.parametrize("policy, style", [
        ("decreasing", "conv"), ("parallel", "conv"),
        ("decreasing", "conv_bn_relu")])
    def test_micro_loss_calls_no_sequence_numpy(self, policy, style,
                                                 monkeypatch):
        cfg = config_from_dict({
            "channels": 8, "layers": 2, "heads": 2, "classes": 2,
            "image": [8, 8, 3], "split_policy": policy,
            "eitt": {"kernel": 3, "stride": 1, "branch_style": style},
            "eitp": {"kernel": 3, "stride": 1, "padding": 1, "pool": 2}})
        params = init_params(cfg, 0)
        images = np.random.default_rng(0).random((2, 3, 8, 8))
        calls = []
        for module, name in self.SLOW:
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        np.argsort([1, 0])  # the counter sees a call
        assert calls == ["argsort"]
        calls.clear()
        cross_entropy(forward(images, params, cfg), np.array([0, 1])).backward()
        assert calls == []

    @pytest.mark.parametrize("ndim", [3, 4, 5])
    def test_transpose_gradient_returns_to_the_original_layout(self, ndim):
        rng = np.random.default_rng(ndim)
        shape = (2, 3, 4, 5, 6)[:ndim]
        for perm in itertools.permutations(range(ndim)):
            x = Tensor(rng.standard_normal(shape), requires_grad=True)
            y = x.transpose(*perm)
            g = rng.standard_normal(y.shape)
            (y * g).sum().backward()
            assert x.grad.tobytes() == g.transpose(np.argsort(perm)).tobytes(), perm

    def test_transpose_gradient_with_negative_axes(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        y = x.transpose(0, -1, 1)
        g = rng.standard_normal(y.shape)
        (y * g).sum().backward()
        assert x.grad.tobytes() == g.transpose(0, 2, 1).tobytes()

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_concat_of_three_splits_its_gradient_exactly(self, axis):
        rng = np.random.default_rng(axis % 3)
        shapes = [[3, 4, 5] for _ in range(3)]
        for k, size in enumerate((2, 1, 3)):
            shapes[k][axis] = size
        parts = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        y = concat(parts, axis)
        g = rng.standard_normal(y.shape)
        (y * g).sum().backward()
        for part, expected in zip(parts, np.split(g, [2, 3], axis=axis)):
            assert part.grad.shape == part.shape
            assert part.grad.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("kh, kw, s, groups", [(3, 3, 1, 1), (2, 3, 2, 3)])
    def test_windows_on_a_first_axis_slice_match_as_strided(self, kh, kw, s, groups):
        x = np.random.default_rng(kh + s).standard_normal((3, 6, 7, 8))
        part = x[1:3]  # contiguous, but not at the start of the buffer
        win = _windows(part, kh, kw, s, groups)
        ref = np.lib.stride_tricks.as_strided(part, win.shape, win.strides,
                                              writeable=False)
        assert win.tobytes() == ref.tobytes()
        assert win[0, 0, 0, 0, 0, 0, 0] == x[1, 0, 0, 0]
        assert np.shares_memory(win, x) and not win.flags.writeable
        with pytest.raises(ValueError):
            win[0, 0, 0, 0, 0, 0, 0] = 1.0

    def test_windows_refuse_a_non_contiguous_array(self):
        x = np.zeros((1, 2, 4, 5)).transpose(0, 1, 3, 2)
        with pytest.raises(ValueError, match="not contiguous"):
            _windows(x, 2, 2, 1)

    @pytest.mark.parametrize("groups", [1, 3])
    def test_conv2d_on_transposed_input_at_padding_0(self, groups):
        rng = np.random.default_rng(groups)
        x = rng.standard_normal((2, 5, 6, 3)).transpose(0, 3, 1, 2)
        w = rng.standard_normal((6, 3 // groups, 2, 3))
        b = rng.standard_normal(6)
        xt = Tensor(x, requires_grad=True)
        out = conv2d(xt, Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, conv2d_loops(x, w, b, 1, 0, groups),
                                   atol=1e-12)
        xc = Tensor(np.ascontiguousarray(x), requires_grad=True)
        ref = conv2d(xc, Tensor(w), Tensor(b))
        assert out.data.tobytes() == ref.data.tobytes()
        g = rng.standard_normal(out.shape)
        (out * g).sum().backward()
        (ref * g).sum().backward()
        assert xt.grad.tobytes() == xc.grad.tobytes()

    @pytest.mark.parametrize("win, s", [(2, 2)])
    def test_maxpool2d_on_transposed_input(self, win, s):
        x = np.random.default_rng(win).standard_normal((2, 6, 7, 3))
        x = x.transpose(0, 3, 1, 2)
        xt = Tensor(x, requires_grad=True)
        out = maxpool2d(xt, win)
        np.testing.assert_array_equal(out.data, maxpool_loops(x, win, s))
        out.sum().backward()
        xc = Tensor(np.ascontiguousarray(x), requires_grad=True)
        maxpool2d(xc, win).sum().backward()
        assert xt.grad.tobytes() == xc.grad.tobytes()
