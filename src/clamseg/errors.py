"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors -> 1, data errors -> 2,
numeric failures -> 3.
"""


class UsageError(Exception):
    """Bad flags, bad config values, malformed invocations."""


class DataError(Exception):
    """Missing or inconsistent data on disk (manifests, images, masks)."""


class NumericError(Exception):
    """Non-finite values or failed numeric verification."""


class NonFiniteLossError(NumericError):
    """Training loss or gradient became NaN/Inf; carries the step's pair provenance."""

    def __init__(self, message, provenance=None):
        super().__init__(message)
        self.provenance = provenance
