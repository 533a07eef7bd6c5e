import gc
import math
import weakref

import numpy as np
import pytest

from eit.data import Dataset, generate_synthetic
from eit.errors import ConfigError, ContractError, DivergenceError
from eit.model import ModelConfig, PatchStage, Tensor, forward, init_params
from eit.train import (TrainConfig, cosine_lr, cross_entropy, evaluate,
                       sgd_step, train, train_config_from_dict)

TINY = ModelConfig(channels=48, layers=2, heads=4, classes=2,
                   image=(16, 16, 3), eitp=PatchStage(3, 1, 1, 2))


def balanced_eight(seed=0):
    pool = generate_synthetic(40, 16, seed=seed)
    i0 = np.where(pool.labels == 0)[0][:4]
    i1 = np.where(pool.labels == 1)[0][:4]
    idx = np.concatenate([i0, i1])
    return Dataset(pool.images[idx], pool.labels[idx])


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        for k in [2, 5, 10]:
            logits = Tensor(np.zeros((3, k)))
            loss = cross_entropy(logits, np.zeros(3, dtype=int))
            assert loss.item() == pytest.approx(math.log(k), abs=1e-12)

    def test_hand_value_two_classes(self):
        # softmax([2, 0]) -> p0 = e^2/(e^2+1); -log p0 for label 0
        logits = Tensor(np.array([[2.0, 0.0]]))
        expected = -math.log(math.exp(2) / (math.exp(2) + 1))
        assert cross_entropy(logits, [0]).item() == pytest.approx(expected, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, 4)
        a = cross_entropy(Tensor(x), labels).item()
        b = cross_entropy(Tensor(x + 100.0), labels).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.zeros((2, 4)), requires_grad=True)
        loss = cross_entropy(logits, np.array([1, 3]))
        loss.backward()
        expected = np.full((2, 4), 0.25)
        expected[0, 1] -= 1.0
        expected[1, 3] -= 1.0
        np.testing.assert_allclose(logits.grad, expected / 2, atol=1e-12)

    def test_bad_labels_rejected(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-3, 1e-5) == pytest.approx(1e-3)
        assert cosine_lr(100, 100, 1e-3, 1e-5) == pytest.approx(1e-5)
        assert cosine_lr(50, 100, 1e-3, 1e-5) == pytest.approx((1e-3 + 1e-5) / 2)

    def test_monotone_decrease(self):
        vals = [cosine_lr(s, 20, 0.1, 0.001) for s in range(21)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_step(self):
        with pytest.raises(ContractError):
            cosine_lr(5, 4, 1e-3, 1e-5)


class TestSgdStep:
    def test_hand_recursion(self):
        p = {"w": Tensor(np.array([1.0]))}
        state = {}
        sgd_step(p, {"w": np.array([2.0])}, lr=0.1, momentum=0.5, state=state)
        # v = 2, w = 1 - 0.2
        np.testing.assert_allclose(p["w"].data, [0.8])
        sgd_step(p, {"w": np.array([2.0])}, lr=0.1, momentum=0.5, state=state)
        # v = 0.5*2 + 2 = 3, w = 0.8 - 0.3
        np.testing.assert_allclose(p["w"].data, [0.5])

    def test_zero_gradient_bitwise_unchanged(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((3, 3))
        p = {"w": Tensor(data.copy())}
        sgd_step(p, {"w": np.zeros((3, 3))}, lr=0.1, momentum=0.9, state={})
        assert (p["w"].data == data).all()

    def test_zero_lr_leaves_eval_loss_unchanged(self):
        ds = balanced_eight()
        params = init_params(TINY, 0)
        before = evaluate(params, TINY, ds)[0]
        logits = forward(ds.images, params, TINY)
        loss = cross_entropy(logits, ds.labels)
        loss.backward()
        grads = {k: p.grad for k, p in params.items() if p.grad is not None}
        sgd_step(params, grads, lr=0.0, momentum=0.9, state={})
        after = evaluate(params, TINY, ds)[0]
        assert abs(after - before) <= 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            sgd_step({"w": Tensor(np.zeros(3))}, {"w": np.zeros(4)},
                     0.1, 0.9, {})


class TestNoReferenceCycles:
    """A training step leaves no reference cycle: with the cyclic collector
    off, dropping the step's names frees every parameter and gradient."""

    MICRO = ModelConfig(channels=8, layers=2, heads=2, classes=2,
                        image=(8, 8, 3), eitp=PatchStage(3, 1, 1, 2))

    @pytest.mark.parametrize("replayed", [True, False],
                             ids=["after-backward", "graph-never-replayed"])
    def test_params_freed_without_the_cyclic_collector(self, replayed):
        rng = np.random.default_rng(0)
        images, labels = rng.random((2, 3, 8, 8)), np.array([0, 1])
        gc.collect()
        gc.disable()
        try:
            params = init_params(self.MICRO, 0)
            logits = forward(images, params, self.MICRO, train=True, rng=rng)
            loss = cross_entropy(logits, labels)
            if replayed:
                loss.backward()
                grads = {k: p.grad for k, p in params.items()}
                sgd_step(params, grads, 0.1, 0.9, {})
                del grads
            refs = [weakref.ref(p) for p in params.values()]
            if replayed:
                refs += [weakref.ref(p.grad) for p in params.values()]
            del params, logits, loss
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestTrainConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            train_config_from_dict({"epochs": 1, "weight_decay": 0.1})

    def test_lr_ordering_enforced(self):
        with pytest.raises(ConfigError):
            TrainConfig(base_lr=1e-5, min_lr=1e-3)

    def test_schedule_is_an_unknown_key(self):
        # the cosine schedule is the only one, so it is not a field
        with pytest.raises(ConfigError, match="unknown train-config keys: "
                                              r"\['schedule'\]"):
            train_config_from_dict({"schedule": "cosine"})

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.0), ("batch_size", 2.0), ("seed", 1.5), ("epochs", True),
        ("base_lr", "x"), ("momentum", "0.9")])
    def test_wrongly_typed_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"TrainConfig.{field} must be"):
            train_config_from_dict({field: value})

    @pytest.mark.parametrize("momentum", [float("nan"), -1.0, 1.0, 3.0])
    def test_momentum_outside_unit_interval_rejected(self, momentum):
        with pytest.raises(ConfigError, match="momentum"):
            train_config_from_dict({"momentum": momentum})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, "
                                              "got -5"):
            train_config_from_dict({"seed": -5})

    def test_momentum_range_ends(self):
        assert train_config_from_dict({"momentum": 0.0}).momentum == 0.0
        assert train_config_from_dict({"momentum": 0.999}).momentum == 0.999

    def test_integers_accepted_in_float_fields(self):
        cfg = train_config_from_dict({"base_lr": 1, "min_lr": 1, "momentum": 0})
        assert (cfg.base_lr, cfg.momentum) == (1, 0)


class TestTrainLoop:
    def test_overfits_eight_samples_within_200_steps(self):
        ds = balanced_eight()
        tc = TrainConfig(epochs=50, batch_size=2, base_lr=0.01, min_lr=0.001,
                         momentum=0.9, seed=0)
        _, metrics = train(TINY, tc, ds)
        assert metrics[-1]["step"] <= 200
        assert metrics[-1]["eval_acc"] == 1.0

    def test_synthetic_two_class_reaches_90pct(self):
        ds = generate_synthetic(64, 16, seed=1)
        tc = TrainConfig(epochs=15, batch_size=8, base_lr=0.01, min_lr=0.001,
                         momentum=0.9, seed=0)
        _, metrics = train(TINY, tc, ds)
        assert metrics[-1]["eval_acc"] >= 0.9

    def test_seed_fixed_rerun_bit_identical(self):
        ds = balanced_eight()
        tc = TrainConfig(epochs=3, batch_size=4, base_lr=0.01, min_lr=0.001,
                         seed=5)
        p1, m1 = train(TINY, tc, ds)
        p2, m2 = train(TINY, tc, ds)
        assert m1 == m2
        for k in p1:
            assert (p1[k].data == p2[k].data).all()

    def test_divergence_raises(self):
        ds = balanced_eight()
        tc = TrainConfig(epochs=20, batch_size=2, base_lr=50.0, min_lr=0.5,
                         momentum=0.9, seed=0)
        with pytest.raises(DivergenceError):
            with np.errstate(all="ignore"):
                train(TINY, tc, ds)

    def test_image_size_mismatch_rejected(self):
        ds = generate_synthetic(4, 8, seed=0)
        tc = TrainConfig(epochs=1, batch_size=4)
        with pytest.raises(ConfigError):
            train(TINY, tc, ds)

    @pytest.mark.parametrize("labels, size", [((0, 1, 2, 1), 16), ((0, 1, 0, 1), 8)])
    def test_eval_set_checked_before_training(self, labels, size):
        # a label beyond the model's classes or a wrong image size in the
        # evaluation set is a config error up front, not a blow-up after an epoch
        ev = Dataset(np.zeros((4, 3, size, size)), np.array(labels))
        tc = TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(ConfigError, match="evaluation"):
            train(TINY, tc, balanced_eight(), eval_dataset=ev)

    def test_writes_checkpoint_and_metrics(self, tmp_path):
        ds = balanced_eight()
        tc = TrainConfig(epochs=1, batch_size=8, base_lr=0.01, min_lr=0.001)
        train(TINY, tc, ds, out_dir=str(tmp_path))
        assert (tmp_path / "model.ckpt").exists()
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,step,lr,train_loss,train_acc,eval_loss,eval_acc"
