"""Log-gamma via Stirling's series with upward recursion for small arguments."""

import math

__all__ = ["log_gamma", "log_beta"]

# B_{2n} / (2n (2n - 1)) for n = 1..8; truncation below 1e-15 once x >= 10.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

_HALF_LN_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_SERIES_CUTOFF = 10.0


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, within ~1e-13 relative on [0.5, 1e8]."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if math.isinf(x):
        return math.inf
    shift = 0.0
    while x < _SERIES_CUTOFF:
        shift -= math.log(x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    term = inv
    for c in _STIRLING_COEFFS:
        tail += c * term
        term *= inv2
    return shift + (x - 0.5) * math.log(x) - x + _HALF_LN_TWO_PI + tail


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b)."""
    ln_a = log_gamma(a)
    return ln_a + (ln_a if b == a else log_gamma(b)) - log_gamma(a + b)
