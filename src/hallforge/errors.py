"""Exception types shared across the package."""


class HallforgeError(Exception):
    """Base class for all package errors."""


class CapExceeded(HallforgeError):
    """A configured resource cap would be exceeded.

    Carries the offending estimate so callers can report or raise limits.
    """

    def __init__(self, what: str, estimate, cap):
        self.what = what
        self.estimate = estimate
        self.cap = cap
        super().__init__(f"{what}: estimated {estimate} exceeds cap {cap}")


class SizeMismatch(HallforgeError):
    """Dimension vector or matrix shape inconsistent with the quiver/field."""


class SingularMatrix(HallforgeError):
    """Inversion of a singular matrix or of zero in a field."""


class CertificateError(HallforgeError):
    """An exactness certificate failed, so the computed data cannot be trusted.

    Raised in place of `assert`, which `python -O` would remove.
    """

    def __init__(self, what: str, grade, expected, got):
        self.what = what
        self.grade = grade
        self.expected = expected
        self.got = got
        where = "" if grade is None else f" at grade {grade}"
        super().__init__(f"{what}{where}: expected {expected}, got {got}")
