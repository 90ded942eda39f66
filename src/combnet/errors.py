"""Exception taxonomy. Each class maps to one CLI exit code (in cli.py):
1 verification failure (no exception), 2 input error, 3 config error."""


class CombnetError(Exception):
    """Base class for all package errors; raised only as a subclass."""


class ConfigError(CombnetError):
    """Invalid configuration: bad resolution, groups not dividing channels,
    malformed config file, inconsistent spec/packing. Exit 3."""


class UnsupportedConfigError(ConfigError):
    """Operation invoked outside its supported envelope (e.g. comb with
    stride > 1). Exit 3."""


class InputError(CombnetError):
    """Unreadable or malformed external input (image, JSON, weight file).
    Exit 2."""


class LayoutMismatchError(InputError):
    """Tensor passed in the wrong memory layout. Exit 2."""


class ShapeMismatchError(InputError):
    """Array dims inconsistent with the declared spec, including a weight
    store entry that is missing or of the wrong shape. Exit 2."""


class WeightFormatError(InputError):
    """Malformed weight file. `code` distinguishes the failure mode. Exit 2."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code  # one of: magic, version, checksum, shape, truncated
