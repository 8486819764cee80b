"""Exception types shared across the package."""


class CapExceededError(RuntimeError):
    """A requested computation exceeds its configured resource cap."""


class PrecisionError(RuntimeError):
    """A requested tolerance cannot be certified: beyond the truncation
    limits or below what 120-bit arithmetic can bound."""


class SingularMatrixError(ValueError):
    """An integer matrix expected to be nonsingular has determinant zero."""


class NotPrimitiveError(ValueError):
    """A congruence vector is not primitive for its modulus."""
