"""Exception types shared across the package, and the reader of input text
files that raises them.

The CLI maps these onto exit codes: data problems exit 2, endpoint problems
exit 3. Programming-contract violations use plain ValueError/KeyError.
"""

from __future__ import annotations


class R2agError(Exception):
    """Base class for package-specific failures."""


class DataFormatError(R2agError):
    """A data file is malformed or violates a load-time invariant."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        prefix = ""
        if self.path is not None:
            prefix = self.path
            if line is not None:
                prefix += f":{line}"
            prefix += ": "
        super().__init__(prefix + message)


class UnlinkableInputError(R2agError):
    """Free text produced no graph keywords, so retrieval cannot start."""


class MissingReferenceError(R2agError):
    """A patient lacks the reference text required for training/evaluation."""


class NoTrainablePatientsError(R2agError):
    """Every patient in the corpus was skipped; training cannot proceed."""


class EndpointError(R2agError):
    """Base class for text-generation endpoint failures."""

    def __init__(self, message: str, attempts: int = 1):
        self.attempts = attempts
        super().__init__(f"{message} (attempts: {attempts})")


class EndpointNetworkError(EndpointError):
    """Connection-level failure before an HTTP response arrived."""


class EndpointTimeoutError(EndpointError):
    """The endpoint did not answer within the configured timeout."""


class EndpointStatusError(EndpointError):
    """The endpoint answered with a non-2xx HTTP status."""

    def __init__(self, status: int, attempts: int = 1):
        self.status = status
        super().__init__(f"endpoint returned HTTP {status}", attempts=attempts)


class EndpointResponseError(EndpointError):
    """The endpoint body could not be parsed as a completion response."""


def read_text(path) -> str:
    """The whole of UTF-8 text file ``path``. A file that cannot be read, or
    holds bytes that are not UTF-8, raises ``DataFormatError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read file: {exc}", path=path) from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not UTF-8 text: {exc}", path=path) from exc
