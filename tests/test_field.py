"""Gaussian-rational scalar arithmetic."""

from fractions import Fraction

import pytest

from monadcalc.field import I, ONE, QI, ZERO, qi


def test_constructors_and_equality():
    assert QI(1, 0) == ONE
    assert QI(0, 1) == I
    assert QI.zero() == ZERO
    assert qi("1/2") == QI("1/2", 0)
    assert qi(3) == QI(3, 0) == 3
    assert qi(qi(5)) == qi(5)


def test_canonical_lowest_terms():
    v = qi("2/4", "-6/9")
    assert v.re_str() == "1/2"
    assert v.im_str() == "-2/3"
    # denominators stay positive even from negative-denominator input
    from fractions import Fraction
    w = QI(Fraction(3, -6))
    assert w.re_str() == "-1/2"


def test_field_axioms_spot_checks():
    a, b, c = qi("1/2", "3/5"), qi(-2, "1/7"), qi(0, "4/3")
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO
    assert a * ONE == a
    assert I * I == qi(-1)


def test_reflected_subtraction():
    a = qi("1/2", -3)
    assert 2 - a == qi("3/2", 3) == -(a - 2)
    assert 0 - a == -a


@pytest.mark.parametrize("name", ["__add__", "__sub__", "__rsub__", "__mul__",
                                  "__truediv__", "__rtruediv__", "__eq__"])
def test_operations_with_other_types_are_not_implemented(name):
    """Each binary operation hands an operand that is not a QI or an int
    back to Python, which then raises TypeError (or compares unequal)."""
    a = qi(1, 2)
    for other in ("1", 1.5, Fraction(1, 2), None):
        assert getattr(a, name)(other) is NotImplemented
    assert a != "1" and a != 1.5
    with pytest.raises(TypeError):
        a - "1"
    with pytest.raises(TypeError):
        "1" - a
    with pytest.raises(TypeError):
        1.5 / a


def test_inverse_and_division():
    a = qi("3/4", "-2/5")
    assert a * a.inverse() == ONE
    assert (a / a) == ONE
    assert 1 / I == -I
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugate_and_norm():
    a = qi(2, 3)
    n = a * a.conjugate()
    assert n == qi(13)


def test_parse_string_round_trip():
    v = QI.parse("-7/3", "22/7")
    assert QI.parse(v.re_str(), v.im_str()) == v
    assert v.re_str() == "-7/3" and v.im_str() == "22/7"


def test_sort_key_total_order():
    vals = [qi(1, 0), qi(0, 1), qi(0, 0), qi(1, -1), qi("-1/2", 5)]
    ordered = sorted(vals, key=lambda v: v.sort_key())
    keys = [v.sort_key() for v in ordered]
    assert keys == sorted(keys)
    assert ordered[0] == qi("-1/2", 5)


def test_hash_consistency():
    assert hash(qi("2/4")) == hash(qi("1/2"))
    assert len({qi(1), QI(1, 0), qi("2/2")}) == 1


def test_complex_conversion():
    assert complex(qi("1/2", "-3/4")) == complex(0.5, -0.75)


def test_is_zero_and_bool():
    assert ZERO.is_zero() and not bool(ZERO)
    assert not qi(0, "1/9").is_zero()


def test_rational_like_components():
    """Anything with a numerator and a denominator is read as their
    quotient: sympy rationals, and a minimal object with just those two."""
    import sympy

    class Ratio:
        def __init__(self, numerator, denominator):
            self.numerator, self.denominator = numerator, denominator

    assert QI(sympy.Rational(1, 3), sympy.Rational(-2, 5)) == qi("1/3", "-2/5")
    assert QI(Ratio(1, 3), Ratio(-2, 5)) == qi("1/3", "-2/5")


def test_bad_input_rejected():
    with pytest.raises(TypeError):
        QI(1.5)


def test_real_values_hash_like_the_ints_they_equal():
    for n in (0, 1, -3, 2 ** 70):
        assert QI(n) == n and hash(QI(n)) == hash(n)
        assert QI(n) in {n}
        assert {n: "found"}.get(QI(n)) == "found"
    half = qi("1/2")
    assert hash(half) == hash(Fraction(1, 2)) == hash(qi("2/4"))
    assert half in {qi("2/4")} and {qi("2/4"): "found"}.get(half) == "found"
    assert hash(qi(1, 2)) == hash(QI(1, 2))
