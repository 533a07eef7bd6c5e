"""Toy-scale training: cross-entropy, SGD with momentum, cosine learning
rate and seeded shuffling. Small by design; it exists to exercise
gradients end to end and to produce checkpoints the probes can read."""

import math
import os
from dataclasses import dataclass

import numpy as np

from .atomic import write_csv
from .data import Dataset
from .errors import ConfigError, ContractError, DivergenceError
from .model import ModelConfig, Tensor, check_field_types, forward, \
    from_dict, init_params
from .tensor import log_softmax
from . import checkpoint

# A run has diverged once a loss exceeds this multiple of ln(classes), the
# loss of uniform logits at initialisation. The bound is finite, so the
# verdict does not wait for f64 overflow (whose timing depends on the BLAS
# build); NaN and inf fail the comparison too.
DIVERGED_LOSS_FACTOR = 100.0
# Images per forward pass in evaluate.
EVAL_BATCH = 64


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 16
    base_lr: float = 1e-3
    min_lr: float = 1e-5
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.min_lr <= self.base_lr:
            raise ConfigError(f"need 0 < min_lr <= base_lr, got "
                              f"{self.min_lr} / {self.base_lr}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not 0 <= self.momentum < 1:  # NaN fails this too
            raise ConfigError(f"need 0 <= momentum < 1, got {self.momentum}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def train_config_from_dict(doc: dict) -> TrainConfig:
    return from_dict(TrainConfig, doc, "train-config")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean -log softmax(logits)[label] over the batch."""
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,) or labels.min() < 0 or labels.max() >= k:
        raise ContractError(f"labels do not index {k} classes for batch {n}")
    return log_softmax(logits)[np.arange(n), labels].sum() * (-1.0 / n)


def cosine_lr(step: int, total_steps: int, base: float, minimum: float) -> float:
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    return minimum + 0.5 * (base - minimum) * (1.0 + math.cos(math.pi * step / total_steps))


def sgd_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
             lr: float, momentum: float,
             state: dict[str, np.ndarray]) -> None:
    """Classic momentum: v <- mu*v + g; theta <- theta - lr*v. In place."""
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.shape:
            raise ContractError(f"gradient shape {g.shape} != param {p.shape} "
                                f"for {name}")
        v = state.get(name)
        v = g.copy() if v is None or momentum == 0.0 else momentum * v + g
        state[name] = v
        if lr != 0.0:
            p.data = p.data - lr * v


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=-1) == labels).mean())


def evaluate(params, config: ModelConfig,
             dataset: Dataset) -> tuple[float, float]:
    params = {name: p.detach() for name, p in params.items()}
    losses, hits, total = 0.0, 0.0, 0
    for lo in range(0, len(dataset), EVAL_BATCH):
        images = dataset.images[lo:lo + EVAL_BATCH]
        labels = dataset.labels[lo:lo + EVAL_BATCH]
        logits = forward(images, params, config)
        losses += cross_entropy(logits, labels).item() * len(labels)
        hits += accuracy(logits.data, labels) * len(labels)
        total += len(labels)
    return losses / total, hits / total


def _check_loss(loss: float, classes: int, where: str) -> None:
    """Raise DivergenceError unless loss <= DIVERGED_LOSS_FACTOR * ln(classes)."""
    bound = DIVERGED_LOSS_FACTOR * math.log(classes)
    if not loss <= bound:
        raise DivergenceError(f"loss {loss!r} {where} exceeds the divergence "
                              f"bound {bound:.4g} "
                              f"({DIVERGED_LOSS_FACTOR:g} * ln {classes})")


def train(model_config: ModelConfig, train_config: TrainConfig,
          dataset: Dataset, out_dir: str | None = None,
          eval_dataset: Dataset | None = None):
    """Run the loop; returns (params, metrics rows). With out_dir set,
    writes model.ckpt and metrics.csv there. Raises DivergenceError, before
    anything is written, once a batch or evaluation loss leaves the
    DIVERGED_LOSS_FACTOR * ln(classes) bound."""
    eval_set = eval_dataset if eval_dataset is not None else dataset
    h, w, _ = model_config.image
    for role, data in (("training", dataset), ("evaluation", eval_set)):
        if data.classes > model_config.classes or data.images.shape[2:] != (h, w):
            raise ConfigError(f"{role} dataset ({data.classes} classes, images "
                              f"{data.images.shape[2:]}) does not fit the model "
                              f"({model_config.classes} classes, images {(h, w)})")
    params = init_params(model_config, train_config.seed)
    rng = np.random.default_rng(train_config.seed + 1)
    state: dict[str, np.ndarray] = {}
    n = len(dataset)
    bs = train_config.batch_size
    batches_per_epoch = (n + bs - 1) // bs
    total_steps = train_config.epochs * batches_per_epoch

    metrics = []
    step = 0
    for epoch in range(train_config.epochs):
        order = rng.permutation(n)
        ep_loss, ep_hits = 0.0, 0.0
        for lo in range(0, n, bs):
            idx = order[lo:lo + bs]
            images = dataset.images[idx]
            labels = dataset.labels[idx]
            lr = cosine_lr(step, total_steps, train_config.base_lr,
                           train_config.min_lr)
            try:
                logits = forward(images, params, model_config, train=True,
                                 rng=rng)
                loss = cross_entropy(logits, labels)
            except ContractError as exc:
                # a violated numeric contract inside the loop (a non-finite
                # softmax input) means the previous update blew up; the loss
                # bound below catches the finite blow-ups that come first
                raise DivergenceError(
                    f"numeric blow-up at step {step}: {exc}") from exc
            _check_loss(loss.item(), model_config.classes, f"at step {step}")
            for p in params.values():
                p.zero_grad()
            loss.backward()
            grads = {name: p.grad for name, p in params.items()
                     if p.grad is not None}
            sgd_step(params, grads, lr, train_config.momentum, state)
            ep_loss += loss.item() * len(idx)
            ep_hits += accuracy(logits.data, labels) * len(idx)
            step += 1
        try:
            eval_loss, eval_acc = evaluate(params, model_config, eval_set)
        except ContractError as exc:
            raise DivergenceError(
                f"numeric blow-up evaluating after epoch {epoch}: {exc}"
            ) from exc
        _check_loss(eval_loss, model_config.classes,
                    f"evaluating after epoch {epoch}")
        metrics.append({"epoch": epoch, "step": step,
                        "lr": cosine_lr(step, total_steps, train_config.base_lr,
                                        train_config.min_lr),
                        "train_loss": ep_loss / n, "train_acc": ep_hits / n,
                        "eval_loss": eval_loss, "eval_acc": eval_acc})

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        checkpoint.save(os.path.join(out_dir, "model.ckpt"), params, model_config)
        write_metrics_csv(os.path.join(out_dir, "metrics.csv"), metrics)
    return params, metrics


def write_metrics_csv(path, metrics: list[dict]):
    cols = ["epoch", "step", "lr", "train_loss", "train_acc",
            "eval_loss", "eval_acc"]
    write_csv(path, cols, ([row["epoch"], row["step"]] +
                           [repr(float(row[c])) for c in cols[2:]]
                           for row in metrics))
