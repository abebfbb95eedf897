"""Dense pattern kernels, the reference for the factored cut engine.

The synthesizer evaluates cuts through per-axis steering factors (see
`beampattern._PatternEvaluator`); these kernels build the full
(n_dirs, n_elements) steering matrix instead, and the tests compare the two.
"""

import numpy as np


def steering_matrix(dirs, offsets, wavenumber):
    """Steering phasors exp(j k dirs . offsets), shape (n_dirs, n_elements)."""
    return np.exp(1j * wavenumber * (dirs @ offsets.T))


def cut_power(emat, weights):
    """Radiated power |a(dir)^H w|^2 for every row of the steering matrix."""
    return np.abs(emat @ np.conjugate(weights)) ** 2


def backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"
