"""Unregularized incomplete beta function B(x; a, b), shared by the
incomplete-beta tests (the closed forms in `fidest.magic` are derived from
identities of this function but never evaluate it)."""

import math

import numpy as np
from scipy.special import betainc, betaln


def incomplete_beta(x: float, a: float, b: float) -> float:
    """Unregularized incomplete beta B(x; a, b) = int_0^x t^(a-1)(1-t)^(b-1) dt."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if a <= 0 or b <= 0:
        raise ValueError("a, b must be positive")
    return float(betainc(a, b, x) * math.exp(betaln(a, b)))


def incomplete_beta_log(x: float, a: float, b: float) -> float:
    """log B(x; a, b), stable for large parameters where B underflows."""
    if not 0.0 < x <= 1.0:
        raise ValueError(f"x={x} outside (0, 1]")
    if a <= 0 or b <= 0:
        raise ValueError("a, b must be positive")
    return float(np.log(betainc(a, b, x)) + betaln(a, b))
