from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkforms import InputError, QZValue


def test_canonical_reduction():
    assert QZValue(2, 6) == QZValue(1, 3)
    assert QZValue(7, 3) == QZValue(1, 3)
    assert QZValue(-1, 3) == QZValue(2, 3)
    assert QZValue(4, 4) == QZValue.zero()
    assert str(QZValue(10, 12)) == "5/6"
    assert str(QZValue.zero()) == "0/1"


def test_arithmetic():
    a = QZValue(1, 3)
    b = QZValue(1, 6)
    assert a + b == QZValue(1, 2)
    assert a + QZValue(2, 3) == QZValue.zero()
    assert (a + a + a).is_zero()
    assert not (a + a).is_zero()


def test_order():
    """The reduced denominator is the additive order (1 for the zero class)."""
    assert QZValue.zero().den == 1
    assert QZValue(1, 3).den == 3
    assert QZValue(3, 9).den == 3
    assert QZValue(2, 9).den == 9


def test_parse():
    assert QZValue.parse("2/6") == QZValue(1, 3)
    assert QZValue.parse("0/1").is_zero()
    assert QZValue.parse("2") == QZValue.zero()  # bare integers are 0 in Q/Z


@pytest.mark.parametrize("bad", ["1/0", "x/3", "1/", "/3", "1/3/5", ""])
def test_parse_rejects(bad):
    with pytest.raises(InputError):
        QZValue.parse(bad)


def test_zero_denominator_diagnostic():
    with pytest.raises(InputError, match="zero denominator"):
        QZValue.parse("1/0")


fractions = st.builds(
    QZValue,
    st.integers(min_value=-10_000, max_value=10_000),
    st.integers(min_value=1, max_value=10_000),
)


@given(fractions)
def test_str_round_trip(v):
    assert QZValue.parse(str(v)) == v


@given(fractions, fractions, fractions)
def test_group_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + QZValue(-a.num, a.den) == QZValue.zero()


@given(fractions)
def test_order_is_minimal(v):
    """Adding v to itself reaches zero first after den steps."""
    multiple = v
    for _ in range(1, v.den):
        assert not multiple.is_zero()
        multiple = multiple + v
    assert multiple.is_zero()


big_or_small = st.one_of(
    st.integers(-10_000, 10_000),
    st.integers(-(2**130), 2**130),
    st.integers(2**100, 2**130),
    st.integers(-(2**130), -(2**100)),
)


def as_numpy(v):
    """The value as an np.int64 where it fits, else unchanged."""
    return np.int64(v) if -(2**63) <= v < 2**63 else v


@settings(max_examples=200)
@given(big_or_small, big_or_small.filter(bool), st.booleans())
def test_reduction_matches_fraction(num, den, numpy_inputs):
    want = Fraction(num, den) % 1
    v = QZValue(as_numpy(num), as_numpy(den)) if numpy_inputs else QZValue(num, den)
    assert (v.num, v.den) == (want.numerator, want.denominator)
    assert type(v.num) is int and type(v.den) is int


def test_numpy_inputs_do_not_wrap():
    a = QZValue(np.int64(1), np.int64(2**40 - 87))
    b = QZValue(1, 2**40 - 93)
    want = Fraction(1, 2**40 - 87) + Fraction(1, 2**40 - 93)
    assert (a + b).den == want.denominator > 2**63
    assert (a + b).num == want.numerator


@pytest.mark.parametrize("num, den", [(1, 0), (np.int64(1), np.int64(0)), (0, 0)])
def test_zero_denominator_raises(num, den):
    with pytest.raises(InputError, match="zero denominator"):
        QZValue(num, den)


@pytest.mark.parametrize("num, den", [(0.5, 1), (1, 2.0), (np.float64(1), 3), ("1", 3)])
def test_non_integers_rejected(num, den):
    with pytest.raises(InputError):
        QZValue(num, den)
