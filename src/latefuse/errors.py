"""Exception and warning types shared across the package."""


class LatefuseError(Exception):
    """Base class for all errors raised by this package."""


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


class StatsError(LatefuseError):
    """A statistical test's preconditions are violated."""


class ModelError(LatefuseError):
    """Model fitting failed (singular design, single-class data, ...)."""


class PredictError(LatefuseError):
    """Prediction inputs are incompatible with the fitted model."""


class MetricsError(LatefuseError):
    """Metric computation is undefined for the given inputs."""


class SplitError(LatefuseError):
    """A stratified split cannot be formed."""


class ElbowError(LatefuseError):
    """No elbow exists on the given score curve."""


class FusionError(LatefuseError):
    """Fusion inputs are out of range or misaligned."""


class ConfigError(LatefuseError):
    """Run configuration is missing or invalid."""


class SeparationWarning(UserWarning):
    """Perfect separation detected; coefficients were capped."""
