"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ParseError(ValueError):
    """A text data file violates its declared layout."""


class FormatError(ValueError):
    """A binary artifact (feature file or checkpoint) is malformed."""


class NumericsError(ArithmeticError):
    """A numeric contract was violated (non-finite value where one is required)."""


class UndefinedMetricError(ValueError):
    """A metric average has no defined entries to average over."""
