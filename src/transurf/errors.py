"""Exception types shared across the package."""


class TransurfError(Exception):
    """Base class for all package errors."""


class DegenerateDivision(TransurfError):
    """Division by a jet whose value at the base point is (near) zero."""


class DomainError(TransurfError):
    """Elementary function evaluated outside its domain (e.g. sqrt of <= 0)."""


class OriginAtan2(TransurfError):
    """atan2 requested at (0, 0); the caller owns any limit logic."""


class ParseError(TransurfError):
    """Curve/expression syntax error; carries the character offset where
    one is known (a fault the parser meets), else None (a fault in a parsed
    expression, which keeps no source positions)."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None
                         else f"{message} at offset {pos}")
        self.pos = pos


class UnknownCurve(TransurfError):
    """Catalog lookup for a name that does not exist."""


class NotNonDegenerate(TransurfError):
    """Frenet lift requested where |gamma' x gamma''| vanishes."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t!r}")
        self.t = t


class InvalidFrame(TransurfError):
    """Explicit frame fails orthonormality or tangency requirements."""


class ThetaUnavailable(TransurfError):
    """No continuous normal-angle field at the requested point."""


class ClosedFormMismatch(TransurfError):
    """Closed-form and jet-differentiated values disagree; implementation bug."""
