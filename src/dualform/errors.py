"""Exception hierarchy shared by all modules."""


class AlgebraError(Exception):
    pass


class NotPrime(AlgebraError):
    pass


class DivisionByZero(AlgebraError, ZeroDivisionError):
    pass


class CharTwo(AlgebraError):
    pass


class NotCharTwo(AlgebraError):
    pass


class Singular(AlgebraError):
    pass


class LengthMismatch(AlgebraError):
    pass


class NotNested(AlgebraError):
    pass


class NotInSubspace(AlgebraError):
    pass


class NotInSHat(AlgebraError):
    pass


class RadicalConditionViolated(AlgebraError):
    pass


class ZeroRatio(AlgebraError):
    pass


class IsotropicVector(AlgebraError):
    pass


class ParseError(AlgebraError, ValueError):
    pass


class ValidationError(AlgebraError):
    pass
