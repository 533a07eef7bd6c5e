"""Exception taxonomy shared by every module."""


class EitError(Exception):
    pass


class ContractError(EitError):
    """An operation was called with arguments that violate its contract."""


class GeometryError(EitError):
    """Convolution/pooling geometry cannot produce a valid output."""


class ConfigError(EitError):
    """Invalid or inconsistent model/train configuration."""


class DiagnosticError(EitError):
    """A probe was asked to measure something degenerate."""


class LoadError(EitError):
    """A dataset or checkpoint file is missing or malformed."""


class OutputError(EitError):
    """A command's output directory or file cannot be written."""


class DivergenceError(EitError):
    """Training diverged: a batch or after-epoch evaluation loss was not
    <= train.DIVERGED_LOSS_FACTOR * ln(classes) (so NaN and inf count), or a
    non-finite value reached the attention softmax mid-run."""
