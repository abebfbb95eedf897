"""Shared oracles for the unit and acceptance suites."""

import math

import numpy as np

from uavisac.beampattern import chebyshev_taper
from uavisac.geometry import (
    DirectionAngles,
    Pose,
    RotationAngles,
    array_frame_unit,
    rotation_matrix,
    steering,
)
from uavisac.neuralnet import forward, gradients, mse_loss


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


def dense_candidate_weights(config, pose, request, rows, cols, s_az, s_el):
    """A synthesis candidate's weights before normalisation, built densely.

    The pointing's full steering vector times the outer product of the two
    Chebyshev tapers on the rows-by-cols block, zero off it, with the nulls
    projected out by dense_null_projection.
    """
    side = config.side
    active = np.zeros((side, side), dtype=bool)
    active[:rows, :cols] = True
    tx = chebyshev_taper(rows, s_az) if rows > 1 else np.ones(1)
    tz = chebyshev_taper(cols, s_el) if cols > 1 else np.ones(1)
    amp = np.zeros((side, side))
    amp[:rows, :cols] = np.outer(tx, tz)
    w = amp.ravel() * steering(
        config, array_frame_unit(rotation_matrix(pose.angles), request.pointing)
    )
    return dense_null_projection(w, config, pose, request.nulls, active.ravel())


def relative_gradient_error(net, x, y, rng, samples_per_tensor=40, step=1e-5):
    """Norm-relative gap between backprop and central finite differences.

    Finite differences are evaluated on a random subset of coordinates per
    parameter tensor; the error is aggregated per tensor as
    ||analytic - numeric|| / (||analytic|| + ||numeric||).
    """
    w_grads, b_grads, _ = gradients(net, x, y)

    def loss():
        return mse_loss(forward(net, x), np.atleast_2d(y))

    worst = 0.0
    for tensor, grad in zip(net.weights + net.biases, w_grads + b_grads):
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        idx = rng.choice(flat.size, size=min(samples_per_tensor, flat.size), replace=False)
        analytic = gflat[idx]
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
