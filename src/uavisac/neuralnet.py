"""Small feedforward networks with hand-rolled backprop and ADAM.

Inference and training are plain numpy.  Hidden layers are ReLU and the
output layer is linear.  All randomness (init, shuffling) flows from explicit
seeds and the caller fixes the train/validation split, so a repeated run is
bit-identical.  A network stores per-feature normalization stats and applies
them inside forward(), so callers always pass raw features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

# ADAM moment decay rates and denominator guard (Kingma and Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetworkConfig:
    layer_sizes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2:
            raise ValueError("a network needs at least input and output layers")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 1e-3
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_metric: list[float] | None = None


class Network:
    """Affine layers with ReLU hidden layers and a linear output."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.weights: list[NDArray[np.float64]] = []
        self.biases: list[NDArray[np.float64]] = []
        sizes = config.layer_sizes
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        self.norm_mean = np.zeros(sizes[0])
        self.norm_std = np.ones(sizes[0])

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return self.config.layer_sizes

    def set_normalization(self, mean, std) -> None:
        mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64)
        if mean.shape != (self.layer_sizes[0],) or std.shape != (self.layer_sizes[0],):
            raise ValueError("normalization stats must match the input width")
        self.norm_mean = mean
        # constant features would otherwise divide by zero
        self.norm_std = np.where(std > 1e-12, std, 1.0)

    def _forward_cached(self, x: NDArray[np.float64]):
        a = (x - self.norm_mean) / self.norm_std
        activations = [a]
        pre = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            pre.append(z)
            a = z if i == last else np.maximum(z, 0.0)
            activations.append(a)
        return activations, pre

    def to_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "seed": self.config.seed,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "norm_mean": self.norm_mean.tolist(),
            "norm_std": self.norm_std.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Network":
        net = cls(NetworkConfig(layer_sizes=tuple(data["layer_sizes"]), seed=data["seed"]))
        net.weights = [np.asarray(w, dtype=np.float64) for w in data["weights"]]
        net.biases = [np.asarray(b, dtype=np.float64) for b in data["biases"]]
        net.norm_mean = np.asarray(data["norm_mean"], dtype=np.float64)
        net.norm_std = np.asarray(data["norm_std"], dtype=np.float64)
        return net


def forward(net: Network, x) -> NDArray[np.float64]:
    """Propagate one sample (1-D) or a batch (2-D) through the network."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != net.layer_sizes[0]:
        raise ValueError("input width does not match the network")
    activations, _ = net._forward_cached(arr)
    out = activations[-1]
    return out[0] if single else out


def mse_loss(pred: NDArray[np.float64], target: NDArray[np.float64]) -> float:
    """Mean of squared residuals over every output entry in the batch."""
    return float(np.mean((pred - target) ** 2))


def gradients(net: Network, inputs, targets):
    """Exact gradients of the batch MSE for every weight and bias.

    Returns (weight grads, bias grads, loss).
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs and targets disagree on the batch size")
    if y.shape[1] != net.layer_sizes[-1]:
        raise ValueError("target width does not match the network")
    activations, pre = net._forward_cached(x)
    out = activations[-1]
    batch, width = out.shape
    loss = mse_loss(out, y)
    delta = 2.0 * (out - y) / (batch * width)
    w_grads = [np.zeros_like(w) for w in net.weights]
    b_grads = [np.zeros_like(b) for b in net.biases]
    for layer in range(len(net.weights) - 1, -1, -1):
        w_grads[layer] = delta.T @ activations[layer]
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            # the ReLU passes gradient only where its input was positive
            delta = (delta @ net.weights[layer]) * (pre[layer - 1] > 0.0)
    return w_grads, b_grads, loss


class AdamState:
    def __init__(self, net: Network, config: TrainConfig):
        self.config = config
        self.step_count = 0
        self.m_w = [np.zeros_like(w) for w in net.weights]
        self.v_w = [np.zeros_like(w) for w in net.weights]
        self.m_b = [np.zeros_like(b) for b in net.biases]
        self.v_b = [np.zeros_like(b) for b in net.biases]

    def step(self, net: Network, w_grads, b_grads) -> None:
        lr = self.config.learning_rate
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - ADAM_BETA1**t
        bias2 = 1.0 - ADAM_BETA2**t
        for i in range(len(net.weights)):
            for params, grads, m, v in (
                (net.weights, w_grads, self.m_w, self.v_w),
                (net.biases, b_grads, self.m_b, self.v_b),
            ):
                m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * grads[i]
                v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * grads[i] ** 2
                params[i] -= lr * (m[i] / bias1) / (np.sqrt(v[i] / bias2) + ADAM_EPS)


def train(
    net: Network,
    inputs,
    targets,
    config: TrainConfig,
    split: tuple[Sequence[int], Sequence[int]],
    val_metric: Callable[[Network, NDArray], float] | None = None,
) -> tuple[Network, TrainReport]:
    """Mini-batch ADAM training on the (train, validation) row indices of `split`.

    Each epoch shuffles the training rows with a generator seeded by
    `config.seed`; `val_metric(net, val_x)` is evaluated once per epoch and
    recorded in the report.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = (np.asarray(rows, dtype=np.int64) for rows in split)
    x_train, y_train = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]
    net.set_normalization(x_train.mean(axis=0), x_train.std(axis=0))
    adam = AdamState(net, config)
    report = TrainReport(val_metric=[] if val_metric is not None else None)
    n_train_rows = x_train.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n_train_rows)
        epoch_loss = 0.0
        for start in range(0, n_train_rows, config.batch_size):
            batch = order[start : start + config.batch_size]
            w_grads, b_grads, loss = gradients(net, x_train[batch], y_train[batch])
            adam.step(net, w_grads, b_grads)
            epoch_loss += loss * batch.size
        report.train_loss.append(epoch_loss / n_train_rows)
        if x_val.shape[0] > 0:
            report.val_loss.append(mse_loss(forward(net, x_val), y_val))
        else:
            report.val_loss.append(float("nan"))
        if val_metric is not None:
            report.val_metric.append(float(val_metric(net, x_val)))
    return net, report
