"""Decibel helpers shared across modules. Link arithmetic runs on powers in mW."""

import math


def to_db(value: float) -> float:
    """Linear power ratio (or mW) to dB (or dBm). Zero maps to -inf."""
    if value <= 0.0:
        return -math.inf
    return 10.0 * math.log10(value)


def from_db(db: float) -> float:
    """dB (or dBm) to linear power ratio (or mW); inf past the float range, as for db = inf."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf
