"""Exception types raised across the package."""


class SkewCyclicError(Exception):
    """Base class for all errors raised by skewcyclic."""


# -- finite fields ----------------------------------------------------------

class NonPrimeCharacteristic(SkewCyclicError):
    pass


class ReducibleModulus(SkewCyclicError):
    pass


class DivisionByZero(SkewCyclicError, ZeroDivisionError):
    pass


class MixedFields(SkewCyclicError):
    pass


class BothZero(SkewCyclicError):
    pass


# -- quotient ring A = F[x]/(x^n-1) ----------------------------------------

class LengthNotCoprime(SkewCyclicError):
    pass


class MixedContexts(SkewCyclicError):
    pass


class IndexOutOfRange(SkewCyclicError):
    pass


class NotAUnit(SkewCyclicError):
    pass


class ZeroInput(SkewCyclicError):
    pass


# -- automorphisms ----------------------------------------------------------

class NotAnAutomorphism(SkewCyclicError):
    pass


class ClassViolation(SkewCyclicError):
    pass


# -- skew polynomials -------------------------------------------------------

class MixedAlgebras(SkewCyclicError):
    pass


class ZeroPolynomial(SkewCyclicError):
    pass


class FixedIdempotent(SkewCyclicError):
    pass


class NonUnitScalar(SkewCyclicError):
    pass


class DecompositionNotFound(SkewCyclicError):
    pass


# -- polynomial matrices and codes ------------------------------------------

class LengthMismatch(SkewCyclicError):
    pass


class NotReduced(SkewCyclicError):
    pass


class RankDeficient(SkewCyclicError):
    pass


class NotRightInvertible(SkewCyclicError):
    pass


class NotMinimal(SkewCyclicError):
    pass


class SearchSpaceTooLarge(SkewCyclicError):
    pass


# -- code builder -----------------------------------------------------------

class OverlappingCycles(SkewCyclicError):
    pass


class ComponentMismatch(SkewCyclicError):
    pass


# -- distance ---------------------------------------------------------------

class StateCapExceeded(SkewCyclicError):
    pass


class EnumerationCapExceeded(SkewCyclicError):
    pass


class BadParameters(SkewCyclicError):
    pass


# -- parsing ----------------------------------------------------------------

class ParseError(SkewCyclicError):
    pass
