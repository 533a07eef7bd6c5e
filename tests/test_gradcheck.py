import dataclasses
from collections import Counter

import numpy as np
import pytest

from eit.errors import ContractError, DiagnosticError
from eit.gradcheck import gradcheck, resume, stage_inputs, worst_offender
from eit.model import (BRANCH_STYLES, POS_EMBED_MODES, SPLIT_POLICIES,
                       ConvBranch, ModelConfig, PatchStage, forward,
                       init_params, loss_stages)
from eit.tensor import (Tensor, conv2d, layernorm, matmul, maxpool2d,
                        softmax_rows)
from eit.train import cross_entropy

MICRO = ModelConfig(channels=8, layers=2, heads=2, classes=2, image=(8, 8, 3),
                    eitp=PatchStage(3, 1, 1, 2))


def square_sum(y):
    return (y * y).sum()


def test_square_at_three():
    x = Tensor(np.array([3.0]), requires_grad=True)
    report = gradcheck(lambda: (x * x).sum(), {"x": x})
    x.zero_grad()
    (x * x).sum().backward()
    assert x.grad[0] == pytest.approx(6.0)
    assert report["x"] < 1e-9


@pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -1e-5])
def test_step_must_be_positive_and_finite(step):
    x = Tensor(np.array([3.0]), requires_grad=True)
    calls = []

    def f():
        calls.append(1)
        return (x * x).sum()
    with pytest.raises(ContractError, match=f"got {step}"):
        gradcheck(f, {"x": x}, step=step)
    assert calls == []  # rejected before the first evaluation


def test_non_contiguous_parameter_is_perturbed_in_place():
    x = Tensor(np.random.default_rng(2).standard_normal((3, 4)).T,
               requires_grad=True)
    assert not x.data.flags.c_contiguous
    report = gradcheck(lambda: (x * x * x).sum(), {"x": x})
    assert report["x"] <= 1e-8


def test_layernorm_params():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 8)))
    gain = Tensor(rng.standard_normal(8), requires_grad=True)
    shift = Tensor(rng.standard_normal(8), requires_grad=True)

    def f():
        return square_sum(layernorm(x, gain, shift))
    report = gradcheck(f, {"gain": gain, "shift": shift})
    assert max(report.values()) <= 1e-6


def test_layernorm_input():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
    gain = Tensor(rng.standard_normal(6))
    shift = Tensor(rng.standard_normal(6))
    report = gradcheck(lambda: square_sum(layernorm(x, gain, shift)), {"x": x})
    assert report["x"] <= 1e-6


def test_conv2d_depthwise_weights():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 1, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    report = gradcheck(lambda: square_sum(conv2d(x, w, b, 1, 1)),
                       {"x": x, "w": w, "b": b})
    assert max(report.values()) <= 1e-5


def test_conv2d_strided_grouped():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((1, 4, 6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 2, 3, 3)), requires_grad=True)
    report = gradcheck(lambda: square_sum(conv2d(x, w, None, 2, 1)),
                       {"x": x, "w": w})
    assert max(report.values()) <= 1e-5


def test_maxpool_backward():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
    report = gradcheck(lambda: square_sum(maxpool2d(x, 2, 2)), {"x": x})
    assert report["x"] <= 1e-5


def test_softmax_matmul_chain():
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    v = Tensor(rng.standard_normal((4, 3)))
    report = gradcheck(lambda: square_sum(matmul(softmax_rows(a), v)), {"a": a})
    assert report["a"] <= 1e-5


def test_gelu_relu():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal(20), requires_grad=True)
    assert gradcheck(lambda: square_sum(x.gelu()), {"x": x})["x"] <= 1e-6
    y = Tensor(rng.standard_normal(20) + 0.5, requires_grad=True)
    assert gradcheck(lambda: square_sum(y.relu()), {"y": y})["y"] <= 1e-6


def test_softmax_cross_entropy_uniform_logits():
    # gradient at uniform logits is 1/K - onehot
    k = 5
    logits = Tensor(np.zeros((1, k)), requires_grad=True)
    cross_entropy(logits, np.array([2])).backward()
    expected = np.full(k, 1.0 / k)
    expected[2] -= 1.0
    np.testing.assert_allclose(logits.grad[0], expected, atol=1e-12)


def test_corrupted_backward_is_caught():
    # negative control: a deliberately wrong local derivative must fail
    x = Tensor(np.array([1.5, -0.3]), requires_grad=True)

    def bad_square():
        out = Tensor._from_op(x.data ** 2, (x,),
                              lambda g: (g * 3.0 * x.data,))  # wrong factor
        return out.sum()
    report = gradcheck(bad_square, {"x": x})
    name, err = worst_offender(report)
    assert name == "x" and err > 1e-4


def test_nondeterministic_f_rejected():
    x = Tensor(np.array([1.0]), requires_grad=True)
    state = {"n": 0}

    def f():
        state["n"] += 1
        return (x * float(state["n"])).sum()
    with pytest.raises(DiagnosticError):
        gradcheck(f, {"x": x})


class TestStages:
    """``model.loss_stages`` splits the loss at the residual blocks, and
    gradcheck resumes each evaluation at the perturbed parameter's stage."""

    def _setup(self, config, seed=3):
        params = init_params(config, seed)
        images = np.random.default_rng(seed).random((1, 3) + config.image[:2])
        label = np.array([seed % config.classes])

        def loss(logits):
            return cross_entropy(logits, label)

        def f():
            return loss(forward(images, params, config))
        return params, f, loss_stages(images, params, config, loss)

    @pytest.mark.parametrize("pos_embed", POS_EMBED_MODES)
    @pytest.mark.parametrize("style", BRANCH_STYLES)
    @pytest.mark.parametrize("policy", SPLIT_POLICIES)
    def test_resumed_loss_equals_full_loss_bitwise(self, policy, style,
                                                   pos_embed):
        config = dataclasses.replace(
            MICRO, split_policy=policy, eitt=ConvBranch(branch_style=style),
            pos_embed=pos_embed)
        params, f, stages = self._setup(config)
        assert len(stages) == 2 * config.layers + 2
        owned = [name for names, _ in stages for name in names]
        assert sorted(owned) == sorted(params)  # each parameter exactly once
        owner = {name: s for s, (names, _) in enumerate(stages)
                 for name in names}
        inputs = stage_inputs(stages)
        for name, p in params.items():
            for flat in (0, p.data.size - 1):
                i = np.unravel_index(flat, p.shape)
                saved = p.data[i]
                for h in (1e-5, -1e-5):
                    p.data[i] = saved + h
                    assert resume(stages, inputs, owner[name]) == f().item(), \
                        (name, i, h)
                p.data[i] = saved

    def test_report_and_counts_match_the_one_stage_loop(self):
        config = dataclasses.replace(
            MICRO, channels=4, image=(4, 4, 3), mlp_ratio=1,
            pos_embed="trainable")
        params, f, stages = self._setup(config)
        counts = Counter()
        staged = gradcheck(f, params, stages=stages, counts=counts)
        assert staged == gradcheck(f, params)
        assert counts["full"] == 2 + len(params)  # base, repeat, one per tensor
        for s, (names, _) in enumerate(stages):
            assert counts[s] == 2 * sum(params[n].data.size for n in names)

    def test_parameter_named_too_late_is_caught(self):
        params, f, stages = self._setup(MICRO)
        moved = [(tuple(n for n in names if n != "cls_token"), fn)
                 for names, fn in stages]
        moved[-1] = (moved[-1][0] + ("cls_token",), moved[-1][1])
        before = params["cls_token"].data.copy()
        with pytest.raises(DiagnosticError, match="cls_token too late"):
            gradcheck(f, params, stages=moved)
        assert params["cls_token"].data.tobytes() == before.tobytes()

    def test_parameter_named_by_no_stage_is_rejected(self):
        params, f, stages = self._setup(MICRO)
        dropped = [(tuple(n for n in names if n != "head.bias"), fn)
                   for names, fn in stages]
        with pytest.raises(ContractError, match="head.bias"):
            gradcheck(f, params, stages=dropped)
