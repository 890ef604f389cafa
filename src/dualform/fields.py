"""Exact scalar arithmetic over the rationals and over prime fields GF(p),
for an ``int`` p, a prime below ``PRIME_BOUND``: any other p, a ``bool``,
a ``float`` or text among them, raises ``NotPrime``.

Scalars are plain Python values: ``fractions.Fraction`` for the rationals and
``int`` residues in ``[0, p)`` for GF(p).  Both representations are canonical,
so structural equality of scalars is sound, and a scalar is zero exactly when
it is falsy.  The Field methods are the scalar API and own the parsing and
formatting of the textual encoding ("num/den" or "num" for rationals, decimal
residues for GF(p)); ``parse`` refuses a value that is not a ``str`` with
``ParseError``.  ``scalar`` takes a ``Fraction``, text and, over GF(p),
an ``int`` directly and any other exact number (an ``int`` over the
rationals, a ``Decimal``, a ``bool``) by one ``Fraction`` coercion; GF(p)
reduces a fraction as numerator times inverse denominator.  A ``float``,
NaN, an infinity or a non-number raises ``ValidationError``, text outside
the grammar or over Python's int/str digit limit ``ParseError`` (also a
``ValueError``) and a zero denominator ``DivisionByZero`` (also a
``ZeroDivisionError``).  The matrix and form kernels in ``linalg`` and
``quadform`` bypass them: they run native
``int``/``Fraction`` operators and, over GF(p), reduce modulo
``characteristic()`` once per computed entry.  A matrix row or a form's
diagonal is read by the private ``_row``: one C-level check over the row
returns it unchanged when every entry is already canonical, and otherwise
it is ``tuple(map(scalar, row))``, with its errors in the same order.
Over the rationals a matrix
keeps its rows cleared of denominators, as ``int`` rows over one
denominator each, between elimination, products, transposes and
submatrices, and builds its ``Fraction`` entries only when one is read.
"""

import re
from fractions import Fraction

from .errors import (CharTwo, DivisionByZero, NotPrime, ParseError,
                     ValidationError)

PRIME_BOUND = 2**31
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_RESIDUE = re.compile(r"-?[0-9]+")
_MR_BASES = (2, 3, 5, 7)


def _match(grammar, text):
    """text, stripped, if it is a str matching grammar; ParseError
    otherwise."""
    if not isinstance(text, str):
        raise ParseError(f"{text!r} is not text")
    text = text.strip()
    if not grammar.fullmatch(text):
        raise ParseError(f"{text!r} does not match {grammar.pattern}")
    return text


def _int(digits):
    """int of matched digit text; ParseError, not int()'s plain ValueError,
    for text over Python's int/str conversion digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{len(digits)} characters exceed the int/str "
                         "conversion digit limit") from None


def _exact(x):
    """scalar's one coercion of a value other than an int, a Fraction or a
    str; ValidationError unless it is an exact number."""
    if isinstance(x, float):
        raise ValidationError(f"inexact float scalar {x!r}")
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"not an exact scalar: {x!r}")


def _is_prime(p):
    """Deterministic Miller-Rabin on bases 2, 3, 5 and 7: exact for every
    p below 3,215,031,751, the least strong pseudoprime to all four, and so
    for every p below PRIME_BOUND."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; concrete fields are RationalField and PrimeField,
    which hold their canonical constants ``zero`` and ``one``."""

    def characteristic(self):
        raise NotImplementedError

    def neg(self, a):
        return self.sub(self.zero, a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def halve(self, a):
        if self.characteristic() == 2:
            raise CharTwo("cannot divide by 2 in characteristic 2")
        return self.div(a, self.scalar(2))

    def is_zero(self, a):
        return a == self.zero

    def parse(self, text):
        raise NotImplementedError

    def format(self, a):
        try:
            return str(a)
        except ValueError:  # over Python's int/str conversion digit limit
            raise ValidationError("result scalar has too many digits to "
                                  "print")


class RationalField(Field):
    zero, one = Fraction(0), Fraction(1)

    def characteristic(self):
        return 0

    def scalar(self, x):
        if type(x) is Fraction:
            return x
        if isinstance(x, str):
            return self.parse(x)
        return _exact(x)

    def _row(self, row):
        """tuple(map(self.scalar, row)) for a sequence row, read by one
        type check when every entry is a Fraction."""
        if set(map(type, row)) <= {Fraction}:
            return tuple(row)
        return tuple(map(self.scalar, row))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("0 has no inverse")
        return 1 / Fraction(a)

    def parse(self, text):
        num, _, den = _match(_RATIONAL, text).partition("/")
        num, den = _int(num), _int(den or "1")
        if not den:
            raise DivisionByZero(f"zero denominator in {text.strip()!r}")
        return Fraction(num, den)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    zero, one = 0, 1

    def __init__(self, p):
        if type(p) is not int:
            raise NotPrime(f"p = {p!r} is not an int")
        if not (2 <= p < PRIME_BOUND):
            raise NotPrime(f"p = {p} out of range [2, 2^31)")
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        self.p = p

    def characteristic(self):
        return self.p

    def scalar(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, str):
            return self.parse(x)
        if type(x) is not Fraction:
            x = _exact(x)
        return x.numerator * self.inv(x.denominator) % self.p

    def _row(self, row):
        """tuple(map(self.scalar, row)) for a sequence row, read by a type
        check and min and max when every entry is an int in [0, p)."""
        if set(map(type, row)) <= {int} and (
                not row or min(row) >= 0 and max(row) < self.p):
            return tuple(row)
        return tuple(map(self.scalar, row))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DivisionByZero("0 has no inverse")
        return pow(a, -1, self.p)

    def parse(self, text):
        return _int(_match(_RESIDUE, text)) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def make_field(kind, p=None):
    """Build a field from its descriptor: kind 'rational' or 'prime',
    and for a prime field the int p."""
    if not isinstance(kind, str):
        raise ValidationError(f"field kind {kind!r} is not text")
    kind = kind.lower()
    if kind == "rational":
        return RationalField()
    if kind == "prime":
        if p is None:
            raise ValidationError("prime field needs p")
        return PrimeField(p)
    raise ValidationError(f"unknown field kind {kind!r}")
