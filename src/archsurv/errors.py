"""Exception types shared across the toolkit."""


class ArchsurvError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ArchsurvError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(ArchsurvError):
    """A parameter lies outside the admissible range of a copula family."""


class EmptyDataError(ArchsurvError):
    """An estimator received no usable records."""


class NoComparablePairs(ArchsurvError):
    """The concordance estimating equation has no usable pairs."""


class NoRootError(ArchsurvError):
    """A bracketed root search found no sign change."""


class EstimationError(ArchsurvError):
    """A stage of the fitting pipeline failed; carries the stage tag."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class NotIdentified(ArchsurvError):
    """A requested quantity is not identified from the fitted model."""


class ConfigError(ArchsurvError):
    """Invalid configuration file or option."""
