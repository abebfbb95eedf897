import numpy as np

from uavisac import _kernels


def _random_inputs(seed, n=500, m=64):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    offsets = rng.uniform(-1e-3, 1e-3, size=(m, 3))
    weights = rng.normal(size=m) + 1j * rng.normal(size=m)
    return dirs, offsets, weights


def test_cut_power_equals_reference_loop():
    dirs, offsets, weights = _random_inputs(1, n=40, m=9)
    k = 123.0
    emat = _kernels.steering_matrix(dirs, offsets, k)
    power = _kernels.cut_power(emat, weights)
    for i in range(dirs.shape[0]):
        acc = 0.0 + 0.0j
        for j in range(offsets.shape[0]):
            acc += emat[i, j] * np.conjugate(weights[j])
        assert abs(power[i] - abs(acc) ** 2) < 1e-9 * max(1.0, abs(acc) ** 2)


def test_backend_name():
    assert _kernels.backend() == "numpy"
