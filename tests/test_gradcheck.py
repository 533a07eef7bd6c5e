import numpy as np
import pytest

from eit.errors import ContractError, DiagnosticError
from eit.gradcheck import gradcheck, worst_offender
from eit.tensor import ConvSpec, Tensor, conv2d, layernorm, matmul, \
    maxpool2d, softmax_rows


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
    spec = ConvSpec(3, 3, 1, 1, groups=3, in_channels=3, out_channels=3)
    x = Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 1, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    report = gradcheck(lambda: square_sum(conv2d(x, w, b, spec)),
                       {"x": x, "w": w, "b": b})
    assert max(report.values()) <= 1e-5


def test_conv2d_strided_grouped():
    rng = np.random.default_rng(3)
    spec = ConvSpec(3, 3, 2, 1, groups=2, in_channels=4, out_channels=6)
    x = Tensor(rng.standard_normal((1, 4, 6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 2, 3, 3)), requires_grad=True)
    report = gradcheck(lambda: square_sum(conv2d(x, w, None, spec)),
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
    from eit.train import cross_entropy
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
