"""Exception types shared across the package."""


class LowMultError(Exception):
    """Base class for every package-specific error."""


class PolyParseError(LowMultError, ValueError):
    """A polynomial spec string could not be parsed."""


class DegreeOutOfRangeError(LowMultError):
    """The modulus degree is outside the supported range 2..63."""


class NotPrimitiveError(LowMultError):
    """The modulus polynomial is reducible or its root has non-maximal order."""


class MemoryBudgetExceededError(LowMultError):
    """A predicted table size exceeds the configured byte budget."""


class LogOfZeroError(LowMultError):
    """The discrete logarithm of the zero element was requested."""


class ZechUndefinedError(LowMultError):
    """Zech logarithm at i = 0 mod (2^n - 1), where 1 + x^i = 0."""


class WeightTooSmallError(LowMultError):
    """The target weight is too small for the chosen split rule."""


class InstanceTooLargeError(LowMultError):
    """A brute-force reference guard tripped; the instance is too big."""


class VerificationError(LowMultError):
    """A found record failed the independent re-check (a bug, not bad input)."""
