"""Exception types shared across the package."""


class ThetaLabError(Exception):
    """Base class for all thetalab errors."""


class AmbiguousVanishingError(ThetaLabError):
    """A magnitude fell inside the undecidable band.

    Counting theorems need certainty; we refuse to classify borderline
    entries instead of guessing.
    """

    def __init__(self, message, offenders=None):
        super().__init__(message)
        self.offenders = list(offenders) if offenders is not None else []


class VerificationError(ThetaLabError):
    """An exact claim (spectrum, rank, matrix identity) failed to verify."""


class RadiusCapError(ThetaLabError):
    """Requested tolerance unreachable within the summation radius cap."""
