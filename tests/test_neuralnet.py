import numpy as np
import pytest

from uavisac.neuralnet import (
    AdamState,
    Network,
    NetworkConfig,
    TrainConfig,
    forward,
    gradients,
    train,
)


def _split(n, seed):
    """A seeded 70/30 (train, validation) split of n rows."""
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(round(0.7 * n))
    return np.sort(perm[:cut]), np.sort(perm[cut:])


def test_forward_zero_parameters_gives_zero_output():
    net = Network(NetworkConfig(layer_sizes=(3, 4, 2), seed=0))
    for i in range(len(net.weights)):
        net.weights[i][:] = 0.0
        net.biases[i][:] = 0.0
    out = forward(net, [1.0, -2.0, 3.0])
    assert np.allclose(out, 0.0)


def test_forward_identity_single_layer():
    net = Network(NetworkConfig(layer_sizes=(3, 3), seed=0))
    net.weights[0] = np.eye(3)
    net.biases[0] = np.zeros(3)
    x = np.array([0.5, -1.0, 2.0])
    # stats default to zero mean, unit std, so output equals the input
    assert np.allclose(forward(net, x), x)


def test_forward_matches_triple_loop_reference():
    config = NetworkConfig(layer_sizes=(7, 50, 200), seed=4)
    net = Network(config)
    rng = np.random.default_rng(0)
    net.set_normalization(rng.normal(size=7), rng.uniform(0.5, 2.0, size=7))
    x = rng.normal(size=7)

    a = [(x[i] - net.norm_mean[i]) / net.norm_std[i] for i in range(7)]
    for layer in range(2):
        w, b = net.weights[layer], net.biases[layer]
        z = []
        for row in range(w.shape[0]):
            acc = b[row]
            for col in range(w.shape[1]):
                acc += w[row, col] * a[col]
            z.append(acc)
        a = [max(v, 0.0) for v in z] if layer == 0 else z
    assert np.max(np.abs(forward(net, x) - np.array(a))) < 1e-10


def test_gradients_zero_residual():
    net = Network(NetworkConfig(layer_sizes=(2, 3, 1), seed=1))
    x = np.array([[0.3, -0.7]])
    y = forward(net, x)
    w_grads, b_grads, loss = gradients(net, x, y)
    assert loss == 0.0
    for g in w_grads + b_grads:
        assert np.allclose(g, 0.0)


def test_gradients_single_linear_neuron_closed_form():
    net = Network(NetworkConfig(layer_sizes=(1, 1), seed=0))
    net.weights[0][:] = 1.5
    net.biases[0][:] = 0.25
    x, t = 2.0, -1.0
    w_grads, b_grads, _ = gradients(net, [[x]], [[t]])
    y = 1.5 * x + 0.25
    assert w_grads[0][0, 0] == pytest.approx(2.0 * (y - t) * x)
    assert b_grads[0][0] == pytest.approx(2.0 * (y - t))


@pytest.mark.parametrize("layer_sizes", [(7, 50, 200), (4, 64, 32, 1)])
def test_gradients_match_finite_differences(layer_sizes):
    from tests.helpers import relative_gradient_error

    rng = np.random.default_rng(100)
    for draw in range(3):
        net = Network(NetworkConfig(layer_sizes=layer_sizes, seed=200 + draw))
        x = rng.normal(size=(4, layer_sizes[0]))
        y = rng.normal(size=(4, layer_sizes[-1]))
        assert relative_gradient_error(net, x, y, rng) < 1e-4


def test_adam_zero_gradient_is_identity():
    net = Network(NetworkConfig(layer_sizes=(2, 3, 1), seed=5))
    before = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
    adam = AdamState(net, TrainConfig())
    zero_w = [np.zeros_like(w) for w in net.weights]
    zero_b = [np.zeros_like(b) for b in net.biases]
    adam.step(net, zero_w, zero_b)
    after = net.weights + net.biases
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_train_zero_learning_rate_keeps_parameters():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=(40, 1))
    net = Network(NetworkConfig(layer_sizes=(2, 8, 1), seed=2))
    before = [w.copy() for w in net.weights]
    config = TrainConfig(epochs=5, batch_size=8, learning_rate=0.0, seed=0)
    train(net, x, y, config, _split(40, 0))
    for b, w in zip(before, net.weights):
        assert np.array_equal(b, w)


def test_train_linear_regression_converges():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(200, 1))
    y = 3.0 * x
    net = Network(NetworkConfig(layer_sizes=(1, 1), seed=0))
    config = TrainConfig(epochs=200, batch_size=32, learning_rate=0.05, seed=1)
    net, report = train(net, x, y, config, _split(200, 1))
    # recover the slope in raw units: the input is z-scored internally
    slope = net.weights[0][0, 0] / net.norm_std[0]
    intercept = net.biases[0][0] - net.weights[0][0, 0] * net.norm_mean[0] / net.norm_std[0]
    assert slope == pytest.approx(3.0, abs=1e-2)
    assert abs(intercept) < 1e-2
    assert report.val_loss[-1] < report.val_loss[0]


def test_train_is_bitwise_deterministic():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(64, 3))
    y = rng.normal(size=(64, 2))

    def run():
        net = Network(NetworkConfig(layer_sizes=(3, 10, 2), seed=7))
        config = TrainConfig(epochs=20, batch_size=16, learning_rate=1e-3, seed=9)
        return train(net, x, y, config, _split(64, 9))

    net1, rep1 = run()
    net2, rep2 = run()
    assert rep1.train_loss == rep2.train_loss
    assert rep1.val_loss == rep2.val_loss
    for w1, w2 in zip(net1.weights, net2.weights):
        assert np.array_equal(w1, w2)


def test_train_normalization_stats():
    rng = np.random.default_rng(5)
    x = rng.normal(loc=3.0, scale=2.5, size=(100, 4))
    y = rng.normal(size=(100, 1))
    net = Network(NetworkConfig(layer_sizes=(4, 5, 1), seed=0))
    cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=0.0, seed=2)
    train_idx, val_idx = _split(100, cfg.seed)
    net, _ = train(net, x, y, cfg, (train_idx, val_idx))
    z = (x[train_idx] - net.norm_mean) / net.norm_std
    assert np.max(np.abs(z.mean(axis=0))) < 1e-10
    assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-10


def test_network_dict_roundtrip():
    net = Network(NetworkConfig(layer_sizes=(4, 6, 2), seed=11))
    net.set_normalization(np.arange(4.0), np.ones(4) * 2.0)
    clone = Network.from_dict(net.to_dict())
    x = np.linspace(-1, 1, 4)
    assert np.allclose(forward(net, x), forward(clone, x))


def test_smoothed_training_loss_non_increasing_on_regression():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=(300, 2))
    y = np.column_stack([np.sin(2 * x[:, 0]), x[:, 1] ** 2])
    net = Network(NetworkConfig(layer_sizes=(2, 16, 2), seed=3))
    config = TrainConfig(epochs=100, batch_size=32, learning_rate=3e-3, seed=4)
    net, report = train(net, x, y, config, _split(300, 4))
    ma = np.convolve(report.train_loss, np.ones(10) / 10, mode="valid")
    assert np.all(np.diff(ma) <= 1e-3 * ma[0])
