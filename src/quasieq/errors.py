"""Exception types shared across the package."""


class QuasieqError(Exception):
    """Base class for package errors."""


class InstanceDefinitionError(QuasieqError):
    """A problem instance is ill-posed (empty image, bad dimensions, bad vertex list)."""


class DegenerateImageError(QuasieqError):
    """An image grid came back empty where a nonempty one is required."""


class NonFiniteValueError(QuasieqError):
    """An objective, bifunction or bound evaluated to inf or NaN, or overflowed."""


class SpecError(QuasieqError):
    """A problem-definition file failed schema validation."""


class ParseError(QuasieqError):
    """An expression failed to parse.

    Carries the 0-based position of the offending token and a short
    expected-token message.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position
