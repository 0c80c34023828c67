"""Exception types shared across the package."""


class DomainError(ValueError):
    """An operation was called with arguments outside its domain."""


class ConfigError(ValueError):
    """Scenario configuration failed validation.

    ``fields`` lists the offending field paths.
    """

    def __init__(self, fields):
        self.fields = list(fields)
        super().__init__("invalid config fields: " + "; ".join(self.fields))


class NotReachableError(RuntimeError):
    """No satellite is above the horizon."""


class NoCellError(RuntimeError):
    """Cell ranking was asked to rank an empty candidate list."""
