"""Signed log-magnitude scalars for arithmetic far outside native float range.

A value is carried as (sign, ln_mag) with sign in {-1, 0, +1}.  Addition works
in log space with the larger magnitude factored out, so sums never overflow;
subtractive cancellation below 1e-15 relative residual rounds to an exact zero
rather than returning log-noise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = ["ScaledReal"]

_LN_FLOAT_MAX = math.log(sys.float_info.max)
_CANCEL_RESIDUAL = 1e-15


@dataclass(frozen=True, slots=True)
class ScaledReal:
    """sign * exp(ln_mag); ln_mag is ignored when sign == 0."""

    sign: int
    ln_mag: float = 0.0

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or +1, got {self.sign}")
        if math.isnan(self.ln_mag):
            raise ValueError("ln_mag must not be NaN")
        if self.sign == 0 and self.ln_mag != 0.0:
            object.__setattr__(self, "ln_mag", 0.0)

    @classmethod
    def zero(cls) -> "ScaledReal":
        return cls(0)

    @classmethod
    def from_float(cls, v: float) -> "ScaledReal":
        if math.isnan(v) or math.isinf(v):
            raise ValueError(f"cannot represent {v}")
        if v == 0.0:
            return cls(0)
        return cls(1 if v > 0.0 else -1, math.log(abs(v)))

    @classmethod
    def from_parts(cls, significand: float, ln_offset: float) -> "ScaledReal":
        """Value significand * exp(ln_offset), as produced by the recurrence kernels."""
        if significand == 0.0:
            return cls(0)
        sign = 1 if significand > 0.0 else -1
        return cls(sign, math.log(abs(significand)) + ln_offset)

    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.ln_mag > _LN_FLOAT_MAX:
            raise OverflowError(
                f"scaled value exp({self.ln_mag:.6g}) exceeds native float range"
            )
        return self.sign * math.exp(self.ln_mag)

    def abs(self) -> "ScaledReal":
        return ScaledReal(abs(self.sign), self.ln_mag)

    def __neg__(self) -> "ScaledReal":
        return ScaledReal(-self.sign, self.ln_mag)

    def __mul__(self, other: "ScaledReal | float | int") -> "ScaledReal":
        if not isinstance(other, ScaledReal):
            other = ScaledReal.from_float(float(other))
        s = self.sign * other.sign
        if s == 0:
            return ScaledReal(0)
        return ScaledReal(s, self.ln_mag + other.ln_mag)

    __rmul__ = __mul__

    def __truediv__(self, other: "ScaledReal | float | int") -> "ScaledReal":
        if not isinstance(other, ScaledReal):
            other = ScaledReal.from_float(float(other))
        if other.sign == 0:
            raise ZeroDivisionError("scaled division by zero")
        if self.sign == 0:
            return ScaledReal(0)
        return ScaledReal(self.sign * other.sign, self.ln_mag - other.ln_mag)

    def __add__(self, other: "ScaledReal | float | int") -> "ScaledReal":
        if not isinstance(other, ScaledReal):
            other = ScaledReal.from_float(float(other))
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.ln_mag >= other.ln_mag:
            big, small = self, other
        else:
            big, small = other, self
        gap = big.ln_mag - small.ln_mag
        if big.sign == small.sign:
            return ScaledReal(big.sign, big.ln_mag + math.log1p(math.exp(-gap)))
        residual = -math.expm1(-gap)  # 1 - exp(-gap), exact at gap == 0
        if residual <= _CANCEL_RESIDUAL:
            return ScaledReal(0)
        return ScaledReal(big.sign, big.ln_mag + math.log(residual))

    __radd__ = __add__

    def __sub__(self, other: "ScaledReal | float | int") -> "ScaledReal":
        if not isinstance(other, ScaledReal):
            other = ScaledReal.from_float(float(other))
        return self + (-other)

