"""Exception types shared across the package.

The CLI maps these onto exit codes, so library code should raise the
most specific type that applies: ConfigError for bad options or config
files, DataFormatError for malformed or inconsistent data, NumericError
for non-finite values produced during computation.
"""


class ConfigError(ValueError):
    """Invalid configuration value or unusable option combination.

    ``fields`` names the settings a failed check blames, so that a caller
    can name them in its own terms (the CLI names config keys).
    """

    def __init__(self, message: str = "", fields: tuple[str, ...] = ()):
        super().__init__(message)
        self.fields = fields


class DataFormatError(ValueError):
    """Malformed input file or data violating a structural invariant."""


class NumericError(ArithmeticError):
    """Computation produced NaN/inf or otherwise lost numeric validity."""
