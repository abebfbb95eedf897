import math

import numpy as np
import pytest

from uavisac.neuralnet import (
    AdamState,
    Network,
    NetworkConfig,
    TrainConfig,
    forward,
    gradients,
    mse_loss,
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
    net.weights[0][...] = np.eye(3)
    net.biases[0][...] = 0.0
    x = np.array([0.5, -1.0, 2.0])
    # a network applies nothing but its layers, so the output equals the input
    assert np.allclose(forward(net, x), x)


def test_forward_matches_triple_loop_reference():
    config = NetworkConfig(layer_sizes=(7, 50, 200), seed=4)
    net = Network(config)
    x = np.random.default_rng(0).normal(size=7)

    a = list(x)
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
    grad, loss = gradients(net, x, y)
    assert loss == 0.0
    assert grad.shape == net.params.shape
    assert np.allclose(grad, 0.0)


def test_gradients_single_linear_neuron_closed_form():
    net = Network(NetworkConfig(layer_sizes=(1, 1), seed=0))
    net.weights[0][:] = 1.5
    net.biases[0][:] = 0.25
    x, t = 2.0, -1.0
    (w_grad, b_grad), _ = gradients(net, [[x]], [[t]])
    y = 1.5 * x + 0.25
    assert w_grad == pytest.approx(2.0 * (y - t) * x)
    assert b_grad == pytest.approx(2.0 * (y - t))


@pytest.mark.parametrize("layer_sizes", [(7, 50, 200), (4, 64, 32, 1)])
def test_gradients_match_finite_differences(layer_sizes):
    from tests.helpers import relative_gradient_error

    rng = np.random.default_rng(100)
    for draw in range(3):
        net = Network(NetworkConfig(layer_sizes=layer_sizes, seed=200 + draw))
        x = rng.normal(size=(4, layer_sizes[0]))
        y = rng.normal(size=(4, layer_sizes[-1]))
        assert relative_gradient_error(net, x, y, rng) < 1e-4


def test_layer_views_share_the_parameter_vector():
    from tests.helpers import layer_split

    net = Network(NetworkConfig(layer_sizes=(4, 64, 32, 1), seed=3))
    assert net.params.shape == (4 * 64 + 64 + 64 * 32 + 32 + 32 + 1,)
    weights, biases = layer_split(net.layer_sizes, net.params)
    for views, copies in ((net.weights, weights), (net.biases, biases)):
        for view, copy in zip(views, copies, strict=True):
            assert np.shares_memory(view, net.params)
            assert np.array_equal(view, copy)
    net.params[:] = 0.0
    assert np.array_equal(forward(net, np.ones(4)), [0.0])
    # rebinding a layer fails instead of detaching it from params
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((64, 4))


def test_adam_zero_gradient_is_identity():
    net = Network(NetworkConfig(layer_sizes=(2, 3, 1), seed=5))
    before = net.params.copy()
    adam = AdamState(net, TrainConfig())
    adam.step(net, np.zeros_like(net.params))
    assert np.array_equal(net.params, before)


@pytest.mark.parametrize("layer_sizes", [(7, 50, 200), (4, 64, 32, 1)])
def test_adam_step_matches_per_layer_reference(layer_sizes):
    from tests.helpers import PerLayerAdam, layer_split

    net = Network(NetworkConfig(layer_sizes=layer_sizes, seed=9))
    config = TrainConfig(learning_rate=2.5e-2)
    ref = PerLayerAdam(*layer_split(layer_sizes, net.params), config.learning_rate)
    adam = AdamState(net, config)
    rng = np.random.default_rng(12)
    for _ in range(50):
        grad = rng.normal(scale=rng.uniform(1e-3, 10.0), size=net.params.size)
        grad[rng.random(grad.size) < 0.1] = 0.0
        adam.step(net, grad)
        ref.step(*layer_split(layer_sizes, grad))
    for views, copies in ((net.weights, ref.weights), (net.biases, ref.biases)):
        for view, copy in zip(views, copies, strict=True):
            assert view.tobytes() == copy.tobytes()


@pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf])
def test_train_config_rejects_unusable_learning_rates(lr):
    with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
        TrainConfig(learning_rate=lr)


def test_train_parameter_updates_scale_with_the_learning_rate():
    # nothing but the lr-scaled ADAM step moves a parameter: at a learning
    # rate small enough that the gradients stay put, doubling it doubles
    # every update
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=(40, 1))
    split = _split(40, 0)
    mean, std = x[split[0]].mean(axis=0), x[split[0]].std(axis=0)
    before = Network(NetworkConfig(layer_sizes=(2, 8, 1), seed=2)).params
    updates = []
    for lr in (1e-9, 2e-9):
        net = Network(NetworkConfig(layer_sizes=(2, 8, 1), seed=2))
        config = TrainConfig(epochs=5, batch_size=8, learning_rate=lr, seed=0)
        train(net, x, y, config, split)
        # undo the fold of the z-score into layer 0, back to the trained parameters
        net.biases[0][...] += net.weights[0] @ mean
        net.weights[0][...] *= std
        updates.append(net.params - before)
    assert np.max(np.abs(updates[0])) > 0.0
    assert np.allclose(updates[1], 2.0 * updates[0], rtol=1e-5, atol=1e-20)


def test_train_linear_regression_converges():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(200, 1))
    y = 3.0 * x
    net = Network(NetworkConfig(layer_sizes=(1, 1), seed=0))
    config = TrainConfig(epochs=200, batch_size=32, learning_rate=0.05, seed=1)
    net, report = train(net, x, y, config, _split(200, 1))
    # the z-score is folded into the layer, so it maps raw units
    slope, intercept = net.weights[0][0, 0], net.biases[0][0]
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
    # the network is fitted on z-scored inputs, on which val_metric sees its
    # outputs, and the z-score is then folded into layer 0: on raw inputs the
    # returned network gives what the fitted one gives on z-scored inputs
    rng = np.random.default_rng(5)
    x = rng.normal(loc=3.0, scale=2.5, size=(100, 4))
    x[:, 2] = 7.0  # a constant feature keeps std 1
    y = rng.normal(size=(100, 1))
    net = Network(NetworkConfig(layer_sizes=(4, 5, 1), seed=0))
    cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=1e-3, seed=2)
    train_idx, val_idx = _split(100, cfg.seed)
    mean, std = x[train_idx].mean(axis=0), x[train_idx].std(axis=0)
    assert std[2] == 0.0
    std[2] = 1.0
    z = (x - mean) / std
    assert np.max(np.abs(z[train_idx].mean(axis=0))) < 1e-10
    assert np.max(np.abs(z[train_idx][:, [0, 1, 3]].std(axis=0) - 1.0)) < 1e-10

    seen = []

    def metric(pred):
        seen.append(pred.copy())
        return 0.0

    net, report = train(net, x, y, cfg, (train_idx, val_idx), metric)
    # the metric sees the outputs the validation loss is taken on
    assert len(seen) == 1 and report.val_loss == [mse_loss(seen[0], y[val_idx])]
    assert np.allclose(forward(net, x[val_idx]), seen[0], rtol=1e-12, atol=1e-12)
    assert not np.allclose(forward(net, z[val_idx]), seen[0])
    # unfolding layer 0, and only layer 0, gives back the fitted network
    fitted = Network(net.config)
    fitted.params[:] = net.params
    fitted.biases[0][...] += net.weights[0] @ mean
    fitted.weights[0][...] *= std
    assert np.allclose(forward(fitted, z[val_idx]), seen[0], rtol=1e-12, atol=1e-12)


def test_network_dict_roundtrip():
    net = Network(NetworkConfig(layer_sizes=(4, 6, 2), seed=11))
    net.params[:] = np.random.default_rng(1).normal(size=net.params.size)
    data = net.to_dict()
    assert list(data) == ["layer_sizes", "seed", "weights", "biases"]
    clone = Network.from_dict(data)
    assert clone.config == net.config
    assert clone.params.tobytes() == net.params.tobytes()
    x = np.linspace(-1, 1, 4)
    assert np.array_equal(forward(net, x), forward(clone, x))


def _drop_last_layer(data):
    data["weights"].pop()
    data["biases"].pop()


def _set(key, index, value):
    def mutate(data):
        data[key][index] = value

    return mutate


# each way a stored network can contradict its layer sizes or its four keys,
# with what the rejection must name; a (4, 64, 32, 1) net like the association
# network
BAD_NETWORKS = {
    "last_layer_dropped": (_drop_last_layer, r"weights: 2 arrays for 3 layers"),
    "bias_missing": (lambda data: data["biases"].pop(), r"biases: 2 arrays for 3 layers"),
    "weight_transposed": (_set("weights", 0, np.zeros((4, 64)).tolist()), r"weights\[0\] has shape"),
    "bias_too_long": (_set("biases", 1, [0.0] * 33), r"biases\[1\] has shape"),
    "weight_nan": (lambda data: data["weights"][1][3].__setitem__(7, math.nan),
                   r"weights\[1\] has non-finite entries"),
    # it raised "OverflowError: int too large to convert to float"
    "weight_past_float_range": (lambda data: data["weights"][1][3].__setitem__(7, 10**400),
                                r"^network weights must be a list of arrays, got"),
    # numpy's unnamed "inhomogeneous shape" ValueError
    "weight_rows_ragged": (lambda data: data["weights"][0][1].pop(),
                           r"^network weights must be a list of arrays, got"),
    "stray_key": (lambda data: data.__setitem__("layers", [4, 64, 32, 1]),
                  r"^network keys: unknown \['layers'\], missing \[\]$"),
    "seed_missing": (lambda data: data.pop("seed"),
                     r"^network keys: unknown \[\], missing \['seed'\]$"),
}


@pytest.mark.parametrize("case", sorted(BAD_NETWORKS))
def test_network_from_dict_rejects_parameters_contradicting_layer_sizes(case):
    mutate, message = BAD_NETWORKS[case]
    data = Network(NetworkConfig(layer_sizes=(4, 64, 32, 1), seed=3)).to_dict()
    Network.from_dict(data)
    mutate(data)
    with pytest.raises(ValueError, match=message):
        Network.from_dict(data)


def test_smoothed_training_loss_non_increasing_on_regression():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, size=(300, 2))
    y = np.column_stack([np.sin(2 * x[:, 0]), x[:, 1] ** 2])
    net = Network(NetworkConfig(layer_sizes=(2, 16, 2), seed=3))
    config = TrainConfig(epochs=100, batch_size=32, learning_rate=3e-3, seed=4)
    net, report = train(net, x, y, config, _split(300, 4))
    ma = np.convolve(report.train_loss, np.ones(10) / 10, mode="valid")
    assert np.all(np.diff(ma) <= 1e-3 * ma[0])
