"""Exception taxonomy shared across the toolkit.

Each class carries the process exit code the CLI maps it to.
"""


class ToolkitError(Exception):
    """``where`` names the place, outermost first (say ``("iteration 0",
    "epoch 3", "batch 7")``); the message ends with it in parentheses."""

    exit_code = 1

    def __init__(self, message: str, where: tuple[str, ...] = ()):
        super().__init__(message, where)
        self.message = message
        self.where = tuple(where)

    def __str__(self) -> str:
        if not self.where:
            return self.message
        return f"{self.message} ({', '.join(self.where)})"

    def within(self, *outer: str) -> "ToolkitError":
        """The same error, of the same class, located inside ``outer`` as well."""
        return type(self)(self.message, outer + self.where)


class ConfigError(ToolkitError):
    """Invalid configuration, parameters, or option combinations."""

    exit_code = 2


class DataError(ToolkitError):
    """Malformed, missing, or insufficient input data."""

    exit_code = 3


class NumericError(ToolkitError):
    """Non-finite values produced during a numeric computation."""

    exit_code = 4
