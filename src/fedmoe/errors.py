"""Exception types shared across the package."""


class FedmoeError(Exception):
    """Base class for all library errors."""


class DimensionError(FedmoeError):
    """Shapes do not conform for the requested operation."""


class ConfigError(FedmoeError):
    """Invalid configuration value; the message carries the field path."""


class DataFormatError(FedmoeError):
    """Malformed on-disk data: IDX files, checkpoints, metrics CSVs and the JSON run files."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class EvaluationError(FedmoeError):
    """The evaluation protocol cannot be applied to the given inputs."""


class DegenerateClientError(FedmoeError):
    """A client holds too few examples for the requested operation."""


class UsageError(FedmoeError):
    """An API was called in a way its contract does not allow."""


class DivergenceError(FedmoeError):
    """Training drove a parameter to a non-finite value."""
