"""Exception and warning types shared across the package."""


class MechanismError(Exception):
    """Base class for all solver errors."""


class NotAssemblable(MechanismError):
    """The free-length circle constructions admit no real intersection."""


class ZeroLengthSpring(MechanismError):
    """A spring has (numerically) zero length, so its direction is undefined."""


class DegenerateQuartic(MechanismError):
    """The eliminated polynomial is identically zero; no roots recoverable."""


class ParseError(MechanismError):
    """Config file is not parseable."""


class ValidationError(MechanismError):
    """Config content is invalid; carries the offending field name."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class LostRoots(UserWarning):
    """Fewer roots of the one-nonzero case converged than its equations
    have for a generic mechanism."""
