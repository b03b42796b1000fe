"""Exception and warning types shared across the package."""


class LatefuseError(Exception):
    """Base class for all errors raised by this package. `exit_code` is the
    CLI's exit status for the error: 1 unless a subclass says otherwise."""

    exit_code = 1


class MissingInputError(LatefuseError):
    """An input file or output of an earlier step does not exist."""

    exit_code = 2


class DataError(LatefuseError):
    """Malformed or inconsistent tabular input."""


def not_utf8(path, exc: UnicodeDecodeError) -> DataError:
    """The DataError for a file that is not UTF-8 text, naming its first bad byte."""
    return DataError(f"{path}: not UTF-8 text: {exc.reason} (byte 0x{exc.object[exc.start]:02x})")


class UnknownFeatureError(DataError):
    """A feature name that is not a column of the table."""


class PreprocessError(LatefuseError):
    """Scaling, imputation, or pruning cannot proceed."""


class NoFeaturesLeftError(PreprocessError):
    """Preprocessing dropped every feature of the table."""

    exit_code = 3


class StatsError(LatefuseError):
    """A statistical test's preconditions are violated."""


class ModelError(LatefuseError):
    """Model fitting failed (singular design, single-class data, ...)."""


class PredictError(LatefuseError):
    """Prediction inputs are incompatible with the fitted model."""

    exit_code = 4


class MetricsError(LatefuseError):
    """Metric computation is undefined for the given inputs."""


class SplitError(LatefuseError):
    """A stratified split cannot be formed."""


class ElbowError(LatefuseError):
    """No elbow exists on the given score curve."""


class FusionError(LatefuseError):
    """Fusion inputs are out of range or misaligned."""


class NoCommonSamplesError(FusionError):
    """The two modalities' outputs share no sample."""

    exit_code = 5


class ConfigError(LatefuseError):
    """Run configuration is missing or invalid."""


class SeparationWarning(UserWarning):
    """Perfect separation detected; coefficients were capped."""
