"""Exception hierarchy shared by all frobranch modules."""


class FrobranchError(Exception):
    """Base class for all errors raised by this package."""


class CompositeCharacteristic(FrobranchError):
    """The requested characteristic is not a prime number."""


class ReducibleModulus(FrobranchError):
    """The modulus supplied for a field extension is not irreducible."""


class FieldMismatch(FrobranchError):
    """Two operands belong to different coefficient fields."""


class ZeroPolynomial(FrobranchError):
    """An operation that requires a nonzero polynomial received zero."""


class NotOneDimensional(FrobranchError):
    """No regularity certificate exists below the degree bound, so the
    Hilbert function is not proven to stabilize, or it is proven to vanish
    (a zero-dimensional ring)."""


class NoReductionFound(FrobranchError):
    """No linear form multiplies the graded pieces onto each other, even
    after scalar extension up to the configured degree."""

    def __init__(self, s_max: int):
        super().__init__(f"no linear reduction found with scalar extension degree <= {s_max}")
        self.s_max = s_max


class PowerVanishes(FrobranchError):
    """The tested power of the linear form is zero in the quotient ring."""


class NotSquarefree(FrobranchError):
    """A polynomial that must be squarefree has a repeated factor."""


class CapExceeded(FrobranchError):
    """An input exceeds a size cap (a characteristic, field order, ambient
    dimension, slice or rank-test width, Frobenius-power degree, Apery list,
    saturation box or Fte window); it is refused before the work it costs."""


class ParseError(FrobranchError):
    """Input text could not be parsed; carries the offending position."""

    def __init__(self, position: int, expected: str):
        super().__init__(f"parse error at position {position}: expected {expected}")
        self.position = position
        self.expected = expected


class CertificateFailed(FrobranchError):
    """A certificate the code computed failed its own verification, such as
    a Smith normal form whose transforms do not reproduce it."""
