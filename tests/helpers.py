"""Shared oracles for the unit and acceptance suites."""

import math

import numpy as np

from uavisac.beampattern import NULL_CONFLICT_DEG, chebyshev_taper
from uavisac.geometry import (
    DirectionAngles,
    Pose,
    RotationAngles,
    array_frame_unit,
    centered_grid_offsets,
    rotation_matrix,
    steering,
)
from uavisac.neuralnet import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, forward, gradients, mse_loss


def random_null_scene(rng, min_sep_deg=10.0):
    """Pointing plus two nulls in the beam hemisphere of a randomly yawed array.

    Separation is enforced in the aperture's direction-cosine plane, which is
    how a planar array resolves angles; the great-circle separation is then at
    least as large.
    """
    yaw = RotationAngles(rng.uniform(-math.pi, math.pi), 0.0, 0.0)
    rot = rotation_matrix(yaw)
    min_sep = 2.0 * math.sin(math.radians(min_sep_deg) / 2.0)

    def draw():
        while True:
            u, w = rng.uniform(-0.9, 0.9, 2)
            if u * u + w * w <= 1.0 - 0.25**2:
                return np.array([u, w])

    point_uw = draw()
    nulls_uw = []
    while len(nulls_uw) < 2:
        cand = draw()
        if np.linalg.norm(cand - point_uw) >= min_sep:
            nulls_uw.append(cand)

    def to_global(uw):
        arr = np.array([uw[0], math.sqrt(max(0.0, 1.0 - uw[0] ** 2 - uw[1] ** 2)), uw[1]])
        g = rot @ arr
        return DirectionAngles(
            theta=math.acos(min(1.0, max(-1.0, g[2]))), phi=math.atan2(g[1], g[0])
        )

    pose = Pose(position=np.array([0.0, 0.0, 100.0]), angles=yaw)
    return pose, to_global(point_uw), tuple(to_global(n) for n in nulls_uw)


def null_conflicts_from_directions(null, pointing, config, rot):
    """The null-conflict rule on world directions under the pose's rotation `rot`.

    Reference for beampattern.null_conflicts, which takes array-frame units:
    each direction is turned into its unit here, and the null conflicts when
    its (u_x, u_z) lies within the chord of NULL_CONFLICT_DEG of the
    pointing's, modulo the grating period lambda/d on each axis.
    """
    chord = 2.0 * math.sin(math.radians(NULL_CONFLICT_DEG) / 2.0)
    period = config.wavelength_m / config.spacing_m
    ux, _, uz = array_frame_unit(rot, null) - array_frame_unit(rot, pointing)
    return math.hypot(math.remainder(ux, period), math.remainder(uz, period)) < chord


def dense_null_projection(w, config, pose, nulls, active):
    """Dense reference null solve: least squares on the full steering vectors.

    w is projected onto the orthogonal complement of the nulls' (M,) steering
    vectors inside the subspace of the active-element mask, so switched-off
    elements keep their values (zero for every candidate).
    """
    out = np.array(w, dtype=np.complex128)
    if not nulls:
        return out
    rot = rotation_matrix(pose.angles)
    units = np.array([array_frame_unit(rot, d) for d in nulls])
    sub = steering(config, units).T[active]
    coeff = np.linalg.lstsq(sub, out[active], rcond=None)[0]
    out[active] = out[active] - sub @ coeff
    return out


def dense_candidate_weights(config, pose, request, s_az, s_el):
    """A synthesis candidate's weights before normalisation, built densely.

    The pointing's full steering vector times the outer product of the two
    Chebyshev tapers, with the nulls projected out by dense_null_projection.
    """
    side = config.side
    tx = chebyshev_taper(side, s_az) if side > 1 else np.ones(1)
    tz = chebyshev_taper(side, s_el) if side > 1 else np.ones(1)
    w = np.outer(tx, tz).ravel() * steering(
        config, array_frame_unit(rotation_matrix(pose.angles), request.pointing)
    )
    active = np.ones(config.num_elements, dtype=bool)
    return dense_null_projection(w, config, pose, request.nulls, active)


def dense_pointing_response(config, pose, request, s_az, s_el, units=None):
    """A synthesis candidate's pointing array factor a^H w, from a dense null solve in np.longdouble.

    w are the weights of dense_candidate_weights, a times the taper t with
    the nulls projected out, so a^H w is 1^T (t - P t), P the projection
    onto the nulls' steering vectors taken relative to the pointing's
    (entrywise times conj(a)).  Near a null that is a small difference of
    terms the size of 1^T t, which a float64 solve rounds at that scale: it
    is 1.2e-12 of itself off for a null 1.1 degrees from the pointing of a
    2x2 array.  Here the relative phases, their phasors and the projection
    (modified Gram-Schmidt, run twice) are in np.longdouble, 80-bit extended
    precision on x86-64 Linux.  Nulls that the float64 least squares would
    drop as dependent (np.linalg.matrix_rank's tolerance) are dropped first,
    so coincident nulls count once, as they do for the synthesizer.  `units`,
    when given, replaces the array-frame units of the pointing and the nulls
    (pointing first) that the pose and request give.
    """
    side = config.side
    tx = chebyshev_taper(side, s_az) if side > 1 else np.ones(1)
    tz = chebyshev_taper(side, s_el) if side > 1 else np.ones(1)
    t = np.outer(tx, tz).ravel().astype(np.longdouble)
    if units is None:
        rot = rotation_matrix(pose.angles)
        units = np.array([array_frame_unit(rot, d) for d in (request.pointing, *request.nulls)])
    basis = steering(config, units[1:]).T
    keep = []
    for n in range(basis.shape[1]):
        if np.linalg.matrix_rank(basis[:, keep + [n]]) > len(keep):
            keep.append(n)
    wide = units.astype(np.longdouble)
    phases = centered_grid_offsets(config).astype(np.longdouble) @ (wide[1:][keep] - wide[0]).T
    ortho = []
    for col in np.exp(1j * np.longdouble(config.wavenumber) * phases).T:
        for _ in range(2):
            for q in ortho:
                col = col - q * (q.conj() * col).sum()
        ortho.append(col / np.sqrt((col.conj() * col).real.sum()))
    for q in ortho:
        t = t - q * (q.conj() * t).sum()
    return complex(t.sum())


def layer_split(sizes, flat):
    """Per-layer (weights, biases) copies of a parameter-layout vector: layer by layer, weights first."""
    weights, biases = [], []
    start = 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append(flat[start : start + n_out * n_in].reshape(n_out, n_in).copy())
        start += n_out * n_in
        biases.append(flat[start : start + n_out].copy())
        start += n_out
    assert start == flat.size
    return weights, biases


class PerLayerAdam:
    """Reference ADAM: four per-layer lists of moments, each layer's weights and biases updated in turn."""

    def __init__(self, weights, biases, learning_rate):
        self.weights, self.biases = weights, biases
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m_w = [np.zeros_like(w) for w in weights]
        self.v_w = [np.zeros_like(w) for w in weights]
        self.m_b = [np.zeros_like(b) for b in biases]
        self.v_b = [np.zeros_like(b) for b in biases]

    def step(self, w_grads, b_grads):
        lr = self.learning_rate
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - ADAM_BETA1**t
        bias2 = 1.0 - ADAM_BETA2**t
        for i in range(len(self.weights)):
            for params, grads, m, v in (
                (self.weights, w_grads, self.m_w, self.v_w),
                (self.biases, b_grads, self.m_b, self.v_b),
            ):
                m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * grads[i]
                v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * grads[i] ** 2
                params[i] -= lr * (m[i] / bias1) / (np.sqrt(v[i] / bias2) + ADAM_EPS)


def relative_gradient_error(net, x, y, rng, samples_per_tensor=40, step=1e-5):
    """Norm-relative gap between backprop and central finite differences.

    Finite differences perturb entries of `net.params` on a random subset of
    coordinates per weight or bias tensor (the layout of `layer_split`); the
    error is aggregated per tensor as
    ||analytic - numeric|| / (||analytic|| + ||numeric||).
    """
    grad, _ = gradients(net, x, y)
    flat = net.params

    def loss():
        return mse_loss(forward(net, x), np.atleast_2d(y))

    # each weight or bias tensor's positions in net.params
    w_pos, b_pos = layer_split(net.layer_sizes, np.arange(flat.size))
    worst = 0.0
    for pos in w_pos + b_pos:
        pos = pos.reshape(-1)
        idx = pos[rng.choice(pos.size, size=min(samples_per_tensor, pos.size), replace=False)]
        analytic = grad[idx]
        numeric = np.empty_like(analytic)
        for j, i in enumerate(idx):
            keep = flat[i]
            flat[i] = keep + step
            up = loss()
            flat[i] = keep - step
            down = loss()
            flat[i] = keep
            numeric[j] = (up - down) / (2 * step)
        denom = np.linalg.norm(analytic) + np.linalg.norm(numeric)
        if denom > 0:
            worst = max(worst, np.linalg.norm(analytic - numeric) / denom)
    return worst
