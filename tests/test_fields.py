import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt

import pytest

from dualform import (AlgebraError, CharTwo, DivisionByZero, Matrix, NotPrime,
                      ParseError, PrimeField, RationalField, ValidationError,
                      fields, make_field, rank)


def test_make_field_prime():
    F = make_field("prime", 5)
    assert F.characteristic() == 5
    assert isinstance(F, PrimeField)


def test_make_field_rational():
    F = make_field("rational")
    assert F.characteristic() == 0
    assert isinstance(F, RationalField)


def test_make_field_composite_rejected():
    with pytest.raises(NotPrime):
        make_field("prime", 6)


@pytest.mark.parametrize("p", [4, 9, 15, 2**31, 7.0, 11.0, "7", True,
                               Fraction(7), Decimal(7)], ids=repr)
def test_bad_primes(p):
    """p is an int prime: a float, text, bool or other number equal to a
    prime is refused too, so no GF(7.0) equal and hash-equal to GF(7)
    exists to mix with it in a product."""
    with pytest.raises(NotPrime):
        PrimeField(p)
    with pytest.raises(NotPrime):
        make_field("prime", p)


def _trial_division(p):
    return p >= 2 and all(p % f for f in range(2, isqrt(p) + 1))


def test_is_prime_matches_trial_division():
    # 2047, 1373653 and 25326001 are the least strong pseudoprimes to the
    # bases (2), (2, 3) and (2, 3, 5); 561 and 41041 are Carmichael numbers.
    extra = [2047, 1373653, 25326001, 561, 41041, 2147483647, 2147483629,
             2147483645]
    for p in list(range(2**16)) + extra:
        assert fields._is_prime(p) == _trial_division(p), p
    assert [fields._is_prime(p) for p in extra] == \
        [False, False, False, False, False, True, True, False]


def test_invert_gf5():
    F = make_field("prime", 5)
    assert F.inv(2) == 3


def test_invert_rational():
    F = make_field("rational")
    assert F.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_invert_zero():
    with pytest.raises(DivisionByZero):
        make_field("prime", 2).inv(0)
    with pytest.raises(DivisionByZero):
        make_field("rational").inv(Fraction(0))


def test_halve():
    F5 = make_field("prime", 5)
    assert F5.halve(3) == 4
    FQ = make_field("rational")
    assert FQ.halve(Fraction(1)) == Fraction(1, 2)
    with pytest.raises(CharTwo):
        make_field("prime", 2).halve(1)


def test_characteristic_kills_one():
    for p in (2, 3, 5, 7):
        F = make_field("prime", p)
        acc = F.zero
        for _ in range(p):
            acc = F.scalar(acc + F.one)
        assert F.is_zero(acc)


@pytest.mark.parametrize("field", [make_field("rational"),
                                   make_field("prime", 2),
                                   make_field("prime", 7)])
def test_field_axioms_random(field):
    rng = random.Random(20240811)
    def rand():
        if field.characteristic() == 0:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randrange(field.characteristic())
    s = field.scalar
    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert s(s(a + b) + c) == s(a + s(b + c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert s(a + b) == s(b + a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, s(b + c)) == \
            s(field.mul(a, b) + field.mul(a, c))
        assert field.is_zero(s(a + s(-a)))
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one


def test_rational_canonical_form():
    F = make_field("rational")
    rng = random.Random(7)
    for _ in range(100):
        a = F.mul(Fraction(rng.randint(-30, 30)),
                  F.inv(Fraction(rng.randint(1, 30))))
        assert a.denominator > 0
        assert gcd(abs(a.numerator), a.denominator) == 1


def test_scalar_text_round_trip():
    FQ = make_field("rational")
    for text in ("-3/2", "4", "0", "7/3"):
        assert FQ.format(FQ.parse(text)) == text
    for text in (" 3/4 ", "-0/5", "007", "-12/8"):
        value = FQ.parse(text)
        assert type(value) is Fraction and value == Fraction(text)
    for parse in (FQ.parse, Fraction):
        with pytest.raises(ZeroDivisionError):
            parse("1/0")
    F7 = make_field("prime", 7)
    assert F7.parse("12") == 5
    assert F7.format(F7.parse("5")) == "5"


@pytest.mark.parametrize("field, text", [
    (make_field("rational"), "1e5"),
    (make_field("rational"), "1.5"),
    (make_field("rational"), "1/-2"),
    (make_field("rational"), "+3"),
    (make_field("rational"), "1_0"),
    (make_field("rational"), "\u0663"),
    (make_field("prime", 7), "3/2"),
    (make_field("prime", 7), "1_0"),
    (make_field("prime", 7), "+3"),
    (make_field("prime", 7), ""),
])
def test_parse_enforces_the_wire_grammar(field, text):
    with pytest.raises(ValueError):
        field.parse(text)
    assert field.parse(" -12 ") == field.scalar(-12)


@pytest.mark.parametrize("field, text, error, builtin", [
    (make_field("rational"), "1.5", ParseError, ValueError),
    (make_field("prime", 7), "3/2", ParseError, ValueError),
    (make_field("rational"), "1/0", DivisionByZero, ZeroDivisionError),
    (make_field("rational"), " -3/00 ", DivisionByZero, ZeroDivisionError),
])
def test_bad_scalar_text_raises_an_algebra_error(field, text, error,
                                                 builtin):
    """Text outside the grammar raises ParseError and a zero denominator
    DivisionByZero, from parse and from a Matrix of the text: both are
    AlgebraErrors, and still the ValueError and ZeroDivisionError that
    callers caught before."""
    for read in (field.parse, lambda t: Matrix(field, [[t]])):
        with pytest.raises(error) as exc:
            read(text)
        assert isinstance(exc.value, AlgebraError)
        assert isinstance(exc.value, builtin)


@pytest.mark.parametrize("field", [make_field("rational"),
                                   make_field("prime", 7)], ids=repr)
def test_text_over_the_digit_limit_raises_parse_error(field, digit_limit):
    """Digit text longer than Python's int/str limit, which int() refuses
    with a plain ValueError, raises ParseError from parse and scalar, as
    a numerator and over the rationals as a denominator; text at the
    limit still parses."""
    long = "1" * (digit_limit + 1)
    texts = [long, "-" + long]
    if field.characteristic() == 0:
        texts.append("1/" + long)
    for text in texts:
        for read in (field.parse, field.scalar):
            with pytest.raises(ParseError):
                read(text)
    at_limit = "7" * digit_limit
    assert field.parse(at_limit) == field.scalar(int(at_limit))


@pytest.mark.parametrize("field, x", [
    (make_field("rational"), 0.1),
    (make_field("prime", 7), 1.5),
    (make_field("prime", 7), 2.0),
    *[(F, x) for F in (make_field("rational"), make_field("prime", 7))
      for x in (Decimal("NaN"), Decimal("-Infinity"), None, 1 + 2j)],
])
def test_scalar_refuses_floats(field, x):
    """A float is not exact, and NaN, an infinity or a value that is not a
    number is no scalar: scalar raises, and so does a matrix of one, before
    any elimination."""
    with pytest.raises(ValidationError):
        field.scalar(x)
    with pytest.raises(ValidationError):
        rank(Matrix(field, [[x, 2], [3, 4]]))


@pytest.mark.parametrize("field, x, want", [
    (make_field("rational"), Decimal("1.5"), Fraction(3, 2)),
    (make_field("prime", 7), Decimal("1.5"), 5),
    (make_field("prime", 7), Fraction(1, 2), 4),
])
def test_scalar_reads_any_exact_number_canonically(field, x, want):
    """A Decimal enters by one Fraction coercion and GF(p) reduces a
    Fraction as numerator times inverse denominator, so a matrix of either
    holds canonical entries and eliminates."""
    got = field.scalar(x)
    assert got == want and type(got) is type(want)
    assert rank(Matrix(field, [[x, 1], [1, 1]])) == \
        rank(Matrix(field, [[want, 1], [1, 1]]))


def test_scalar_refuses_a_denominator_divisible_by_p():
    with pytest.raises(DivisionByZero):
        make_field("prime", 7).scalar(Fraction(1, 14))


@pytest.mark.parametrize("kind", [3, None, b"prime", ["rational"]], ids=repr)
def test_a_field_kind_is_text(kind):
    with pytest.raises(ValidationError):
        make_field(kind, 7)
