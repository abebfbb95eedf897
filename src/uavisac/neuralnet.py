"""Small feedforward networks with hand-rolled backprop and ADAM.

Inference and training are plain numpy.  Hidden layers are ReLU and the
output layer is linear.  A network's parameters are one float64 vector,
`params`, with per-layer `weights` and `biases` views into it; a gradient has
the same layout, so ADAM updates every parameter in one pass.  All randomness
(init, shuffling) flows from explicit seeds and the caller fixes the
train/validation split, so a repeated run is bit-identical.  `train` fits on
z-scored inputs and, when it ends, folds the z-score into the first layer, so a
network takes raw features and holds nothing but its layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .codec import INLINE, decode, encode

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
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


@dataclass(frozen=True)
class _NetworkFile:
    """A network as a bundle holds it: its config's fields, then its layers' parameters."""

    config: NetworkConfig = field(metadata=INLINE)
    weights: tuple[NDArray[np.float64], ...]
    biases: tuple[NDArray[np.float64], ...]


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_metric: list[float] | None = None


class Network:
    """Affine layers with ReLU hidden layers and a linear output."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        sizes = config.layer_sizes
        self.params = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in zip(sizes, sizes[1:])))
        self.weights, self.biases = _layer_views(sizes, self.params)
        rng = np.random.default_rng(config.seed)
        for w in self.weights:
            fan_out, fan_in = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=w.shape)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return self.config.layer_sizes

    def _forward_cached(self, a: NDArray[np.float64]) -> list[NDArray[np.float64]]:
        """Every layer's activations, the input first and the output last."""
        activations = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            a = z if i == last else np.maximum(z, 0.0)
            activations.append(a)
        return activations

    def to_dict(self) -> dict:
        return encode(_NetworkFile(self.config, self.weights, self.biases))

    @classmethod
    def from_dict(cls, data: dict) -> "Network":
        """Rebuild a `to_dict` network; parameters off its sizes or not finite are rejected."""
        stored = decode(_NetworkFile, data, "network")
        net = cls(stored.config)
        for name in ("weights", "biases"):
            arrays, views = getattr(stored, name), getattr(net, name)
            if len(arrays) != len(views):
                raise ValueError(f"{name}: {len(arrays)} arrays for {len(views)} layers")
            for i, (array, view) in enumerate(zip(arrays, views)):
                if array.shape != view.shape:
                    raise ValueError(f"{name}[{i}] has shape {array.shape}, expected {view.shape}")
                if not np.all(np.isfinite(array)):
                    raise ValueError(f"{name}[{i}] has non-finite entries")
                view[...] = array
        return net


def _layer_views(sizes: Sequence[int], flat: NDArray[np.float64]):
    """Per-layer (weights, biases) views into a vector laid out layer by layer, weights first."""
    shapes = [shape for n_in, n_out in zip(sizes, sizes[1:]) for shape in ((n_out, n_in), (n_out,))]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    views = [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]
    return tuple(views[::2]), tuple(views[1::2])


def forward(net: Network, x) -> NDArray[np.float64]:
    """Propagate one sample (1-D) or a batch (2-D) through the network."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != net.layer_sizes[0]:
        raise ValueError("input width does not match the network")
    out = net._forward_cached(arr)[-1]
    return out[0] if single else out


def mse_loss(pred: NDArray[np.float64], target: NDArray[np.float64]) -> float:
    """Mean of squared residuals over every output entry in the batch."""
    return float(np.mean((pred - target) ** 2))


def gradients(net: Network, inputs, targets) -> tuple[NDArray[np.float64], float]:
    """Exact gradient of the batch MSE, laid out as `net.params`, and the loss."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs and targets disagree on the batch size")
    if y.shape[1] != net.layer_sizes[-1]:
        raise ValueError("target width does not match the network")
    activations = net._forward_cached(x)
    out = activations[-1]
    batch, width = out.shape
    loss = mse_loss(out, y)
    delta = 2.0 * (out - y) / (batch * width)
    grad = np.empty_like(net.params)
    w_grads, b_grads = _layer_views(net.layer_sizes, grad)
    for layer in range(len(w_grads) - 1, -1, -1):
        np.matmul(delta.T, activations[layer], out=w_grads[layer])
        np.sum(delta, axis=0, out=b_grads[layer])
        if layer > 0:
            # the ReLU passes gradient only where its input, and so its output, was positive
            delta = (delta @ net.weights[layer]) * (activations[layer] > 0.0)
    return grad, loss


class AdamState:
    def __init__(self, net: Network, config: TrainConfig):
        self.config = config
        self.step_count = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)

    def step(self, net: Network, grad: NDArray[np.float64]) -> None:
        """One ADAM update of every parameter from a `gradients` vector."""
        lr = self.config.learning_rate
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - ADAM_BETA1**t
        bias2 = 1.0 - ADAM_BETA2**t
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * grad**2
        net.params -= lr * (self.m / bias1) / (np.sqrt(self.v / bias2) + ADAM_EPS)


def train(
    net: Network,
    inputs,
    targets,
    config: TrainConfig,
    split: tuple[Sequence[int], Sequence[int]],
    val_metric: Callable[[Network, NDArray], float] | None = None,
) -> tuple[Network, TrainReport]:
    """Mini-batch ADAM training on the (train, validation) row indices of `split`.

    The network is fitted on inputs z-scored by the training rows (a constant
    feature keeps std 1): each epoch shuffles those rows with a generator
    seeded by `config.seed` and records `val_metric(net, x_val)` on the
    z-scored validation rows.  The z-score is then folded into the first
    layer, so the returned network takes raw features.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = (np.asarray(rows, dtype=np.int64) for rows in split)
    mean, std = x[train_idx].mean(axis=0), x[train_idx].std(axis=0)
    std = np.where(std > 1e-12, std, 1.0)
    x = (x - mean) / std
    x_train, y_train = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]
    adam = AdamState(net, config)
    report = TrainReport(val_metric=[] if val_metric is not None else None)
    n_train_rows = x_train.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n_train_rows)
        epoch_loss = 0.0
        for start in range(0, n_train_rows, config.batch_size):
            batch = order[start : start + config.batch_size]
            grad, loss = gradients(net, x_train[batch], y_train[batch])
            adam.step(net, grad)
            epoch_loss += loss * batch.size
        report.train_loss.append(epoch_loss / n_train_rows)
        if x_val.shape[0] > 0:
            report.val_loss.append(mse_loss(forward(net, x_val), y_val))
        else:
            report.val_loss.append(float("nan"))
        if val_metric is not None:
            report.val_metric.append(float(val_metric(net, x_val)))
    # W0 (x - mean) / std + b0 = (W0 / std) x + (b0 - (W0 / std) mean)
    net.weights[0][...] /= std
    net.biases[0][...] -= net.weights[0] @ mean
    return net, report
