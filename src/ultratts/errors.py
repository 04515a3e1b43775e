"""Exception types shared across the package."""


class UltraTtsError(Exception):
    """Base class for all errors raised by this package."""


class MetadataError(UltraTtsError):
    """A sidecar parameter file is missing a key or holds an unparseable value."""


class FormatError(UltraTtsError):
    """A binary or text file does not follow its declared layout."""


class ArgumentError(UltraTtsError):
    """A function received arguments with inconsistent shapes or invalid values."""


class DataError(UltraTtsError):
    """Input data is empty, degenerate, or internally inconsistent."""


class ConfigError(UltraTtsError):
    """An experiment configuration is invalid."""


class TrainingDiverged(UltraTtsError):
    """Training produced a non-finite loss, or a best model no better than a
    fixed multiple of predicting zero."""


class StageError(UltraTtsError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
