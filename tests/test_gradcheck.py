import dataclasses
import json
import multiprocessing
import os
import signal
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import eit.cli
import eit.gradcheck
from eit.errors import ContractError, DiagnosticError
from eit.gradcheck import (GRADCHECK_TOL, gradcheck, resume, stage_inputs,
                           workers, worst_offender)
from eit.model import (BRANCH_STYLES, POS_EMBED_MODES, SPLIT_POLICIES,
                       ConvBranch, ModelConfig, PatchStage, config_to_dict,
                       forward, init_params, loss_stages)
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
    report = gradcheck(lambda: square_sum(maxpool2d(x, 2)), {"x": x})
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


def test_only_elements_above_the_tolerance_are_refined():
    # x⁴'s central difference is off by h²/x² relative: 4e-4 at x = 1 and
    # 4e-6 at x = 10 for h = 0.02; Richardson is exact on a quartic
    x = Tensor(np.array([1.0, 10.0]), requires_grad=True)
    counts, refined = Counter(), {}
    report = gradcheck(lambda: (x * x * x * x).sum(), {"x": x}, step=0.02,
                       counts=counts, refined=refined)
    assert refined == {"x": [[0]]}
    assert 1e-6 < report["x"] < GRADCHECK_TOL  # x = 10's unrefined error
    assert counts == {"full": 3, 0: 2 * 2 + 2}


def test_nondeterministic_f_rejected():
    x = Tensor(np.array([1.0]), requires_grad=True)
    state = {"n": 0}

    def f():
        state["n"] += 1
        return (x * float(state["n"])).sum()
    with pytest.raises(DiagnosticError):
        gradcheck(f, {"x": x})


def setup_micro(config, seed=3):
    params = init_params(config, seed)
    images = np.random.default_rng(seed).random((1, 3) + config.image[:2])
    label = np.array([seed % config.classes])

    def loss(logits):
        return cross_entropy(logits, label)

    def f():
        return loss(forward(images, params, config))
    return params, f, loss_stages(images, params, config, loss)


def cls_token_named_last(stages):
    """The stage map with ``cls_token`` moved from the patch embed to the
    last stage, too late to see its effect on the tokens."""
    moved = [(tuple(n for n in names if n != "cls_token"), fn)
             for names, fn in stages]
    moved[-1] = (moved[-1][0] + ("cls_token",), moved[-1][1])
    return moved


class TestStages:
    """``model.loss_stages`` splits the loss at the residual blocks, and
    gradcheck resumes each evaluation at the perturbed parameter's stage."""

    @pytest.mark.parametrize("pos_embed", POS_EMBED_MODES)
    @pytest.mark.parametrize("style", BRANCH_STYLES)
    @pytest.mark.parametrize("policy", SPLIT_POLICIES)
    def test_resumed_loss_equals_full_loss_bitwise(self, policy, style,
                                                   pos_embed):
        config = dataclasses.replace(
            MICRO, split_policy=policy, eitt=ConvBranch(branch_style=style),
            pos_embed=pos_embed)
        params, f, stages = setup_micro(config)
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
        params, f, stages = setup_micro(config)
        counts = Counter()
        staged = gradcheck(f, params, stages=stages, counts=counts)
        assert staged == gradcheck(f, params)
        assert counts["full"] == 2 + len(params)  # base, repeat, one per tensor
        for s, (names, _) in enumerate(stages):
            assert counts[s] == 2 * sum(params[n].data.size for n in names)

    def test_parameter_named_too_late_is_caught(self):
        params, f, stages = setup_micro(MICRO)
        before = params["cls_token"].data.copy()
        with pytest.raises(DiagnosticError, match="cls_token too late"):
            gradcheck(f, params, stages=cls_token_named_last(stages))
        assert params["cls_token"].data.tobytes() == before.tobytes()

    def test_parameter_named_by_no_stage_is_rejected(self):
        params, f, stages = setup_micro(MICRO)
        dropped = [(tuple(n for n in names if n != "head.bias"), fn)
                   for names, fn in stages]
        with pytest.raises(ContractError, match="head.bias"):
            gradcheck(f, params, stages=dropped)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.mark.parametrize("name", ["eitp.weight", "cls_token", "head.bias"])
def test_a_gradient_off_by_one_part_in_a_thousand_fails(name, monkeypatch):
    params, f, stages = setup_micro(MICRO)
    backward = Tensor.backward

    def skewed(self, *args, **kwargs):
        backward(self, *args, **kwargs)
        params[name].grad *= 1 + 1e-3
    monkeypatch.setattr(Tensor, "backward", skewed)
    report = gradcheck(f, params, stages=stages)
    assert worst_offender(report)[0] == name
    assert report[name] > GRADCHECK_TOL


class TestPool:
    """gradcheck shares the parameter tensors out over one forked worker
    per usable CPU; the numbers must not depend on how many."""

    @pytest.mark.parametrize("policy", ["decreasing", "parallel"])
    def test_one_and_two_workers_agree(self, policy, monkeypatch):
        config = dataclasses.replace(MICRO, split_policy=policy)
        runs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            params, f, stages = setup_micro(config)
            assert workers(len(params)) == len(cpus)
            counts, refined = Counter(), {}
            report = gradcheck(f, params, stages=stages, counts=counts,
                               refined=refined)
            runs.append((json.dumps(report), counts, refined))
        assert runs[0] == runs[1]
        assert multiprocessing.active_children() == []

    def test_no_more_workers_than_tensors(self, two_cpus):
        assert workers(1) == 1 and workers(5) == 2

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "pool"])
    def test_parameter_named_too_late_is_caught(self, cpus, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        params, f, stages = setup_micro(MICRO)
        before = params["cls_token"].data.copy()
        with pytest.raises(DiagnosticError, match="cls_token too late"):
            gradcheck(f, params, stages=cls_token_named_last(stages))
        assert params["cls_token"].data.tobytes() == before.tobytes()
        assert multiprocessing.active_children() == []


def _killed_at_head_bias(name):
    """``_differences`` for a worker killed (e.g. by the OOM killer) as it
    starts on head.bias."""
    if name == "head.bias":
        os.kill(os.getpid(), signal.SIGKILL)
    return _DIFFERENCES(name)


_DIFFERENCES = eit.gradcheck._differences


class TestWorkersEnd:
    """No exit path of the pool can leave gradcheck waiting for ever."""

    def test_an_error_ends_no_worker_by_signal(self, two_cpus, monkeypatch):
        # a worker signalled while it holds a queue's lock takes the lock
        # with it, and the pool then waits on that lock for ever
        signalled = []
        terminate = multiprocessing.process.BaseProcess.terminate
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "terminate",
                            lambda p: signalled.append(p.pid) or terminate(p))
        params, f, stages = setup_micro(MICRO)
        with pytest.raises(DiagnosticError, match="cls_token too late"):
            gradcheck(f, params, stages=cls_token_named_last(stages))
        assert signalled == []
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_raises(self, two_cpus, monkeypatch):
        monkeypatch.setattr(eit.gradcheck, "_differences", _killed_at_head_bias)
        params, f, stages = setup_micro(MICRO)
        with pytest.raises(BrokenProcessPool):
            gradcheck(f, params, stages=stages)
        assert multiprocessing.active_children() == []


class TestCommandLeavesNoProcess:
    """``eit gradcheck`` joins or ends its workers on every exit path."""

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "micro.json"
        path.write_text(json.dumps(config_to_dict(MICRO)))
        return str(path)

    def test_exit_0(self, config, tmp_path, two_cpus, capsys):
        out = tmp_path / "out"
        assert eit.cli.main(["gradcheck", "--config", config,
                             "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == 2
        assert manifest["children_peak_rss_mib"] > 0

    def test_exit_1_from_the_guard(self, config, tmp_path, two_cpus,
                                   monkeypatch, capsys):
        monkeypatch.setattr(eit.cli, "loss_stages",
                            lambda *args: cls_token_named_last(loss_stages(*args)))
        assert eit.cli.main(["gradcheck", "--config", config,
                             "--out", str(tmp_path / "out")]) == 1
        assert "cls_token too late" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_exit_2(self, config, tmp_path, two_cpus, capsys):
        assert eit.cli.main(["gradcheck", "--config", config, "--step", "0.1",
                             "--out", str(tmp_path / "out")]) == 2
        assert multiprocessing.active_children() == []
