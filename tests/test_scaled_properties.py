"""Property tests of ScaledReal arithmetic: float agreement, signs, cancellation, symmetry."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jacobimax.scaled import ScaledReal  # noqa: E402

# fixed example sequence and no example database, so every run checks the same cases
_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _floats(lo: float, hi: float):
    # nonzero floats whose magnitude lies in [lo, hi], either sign
    mag = st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)
    return st.builds(lambda m, neg: -m if neg else m, mag, st.booleans())


# operands, and their products, stay well inside double range
_IN_RANGE = _floats(1e-150, 1e150)

# any sign and any log magnitude, also far outside double range
_SCALED = st.builds(
    ScaledReal,
    st.sampled_from((-1, 0, 1)),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@_SETTINGS
@given(_IN_RANGE, _IN_RANGE)
def test_add_matches_float_addition(x, y):
    got = (ScaledReal.from_float(x) + ScaledReal.from_float(y)).to_float()
    # log-space addition errs relative to the larger operand, as cancellation
    # removes the leading digits of both
    assert abs(got - (x + y)) <= 1e-12 * max(abs(x), abs(y))


@_SETTINGS
@given(_IN_RANGE, _IN_RANGE)
def test_mul_matches_float_multiplication(x, y):
    got = (ScaledReal.from_float(x) * ScaledReal.from_float(y)).to_float()
    assert abs(got - x * y) <= 1e-12 * abs(x * y)


@_SETTINGS
@given(_SCALED, _SCALED)
def test_sign_rules(a, b):
    assert (a * b).sign == a.sign * b.sign
    assert (-a).sign == -a.sign
    assert a.abs().sign == abs(a.sign)
    if b.sign != 0:
        assert (a / b).sign == a.sign * b.sign
    s = (a + b).sign
    if a.sign == b.sign:
        assert s == a.sign
    elif a.sign == 0 or b.sign == 0:
        assert a + b == (b if a.sign == 0 else a)
    elif a.ln_mag == b.ln_mag:
        assert s == 0
    else:
        # the larger magnitude decides, unless the two cancel to rounding level
        big = a if a.ln_mag > b.ln_mag else b
        assert s == big.sign or (s == 0 and abs(a.ln_mag - b.ln_mag) <= 1e-14)


@_SETTINGS
@given(_SCALED)
def test_adding_the_negation_is_an_exact_zero(a):
    s = a + (-a)
    assert s.is_zero() and s.sign == 0 and s.ln_mag == 0.0
    assert (a - a).is_zero()


@_SETTINGS
@given(_SCALED, _SCALED)
def test_add_and_mul_commute(a, b):
    assert a + b == b + a
    assert a * b == b * a

