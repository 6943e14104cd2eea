"""Exception types shared across the package, and the readers of input
files that raise them: one per format (text, JSON, JSON lines, TSV rows).

The CLI maps these onto exit codes: data problems exit 2, endpoint problems
exit 3. Programming-contract violations use plain ValueError/KeyError.
"""

from __future__ import annotations

import json
from itertools import islice


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


def read_text(path, newline: str | None = None) -> str:
    """The whole of UTF-8 text file ``path``, its line ends translated as
    ``open(path, newline=newline)`` translates them. A file that cannot be
    read, or holds bytes that are not UTF-8, raises ``DataFormatError``."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read file: {exc}", path=path) from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not UTF-8 text: {exc}", path=path) from exc


def read_lines(path) -> list[str]:
    """The lines of UTF-8 text file ``path``, broken at "\\n" only, as JSON
    lines and ``sed`` break them (not at U+2028 or the other breaks of
    ``str.splitlines``), each without one trailing "\\r", so CRLF files read
    as LF files. A final line end starts no line."""
    lines = read_text(path, newline="").split("\n")
    if not lines[-1]:
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def parse_json(text: str, path, line: int | None = None):
    """The value of JSON ``text`` read from ``path`` (at ``line`` of a
    JSON-lines file). Text that is not JSON, or nests past the decoder's
    limit, raises ``DataFormatError``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataFormatError(f"invalid JSON: {exc}", path=path, line=line) from exc


def read_records(path) -> list[tuple[int, dict]]:
    """The records of JSON-lines file ``path`` as (line number, object)
    pairs. Blank lines are skipped; every other line is a JSON object whose
    ``id`` is a non-empty string that no earlier record holds, and the file
    holds at least one record."""
    records: list[tuple[int, dict]] = []
    seen: set[str] = set()
    for no, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        obj = parse_json(line, path, no)
        if not isinstance(obj, dict):
            raise DataFormatError("expected a JSON object", path=path, line=no)
        pid = obj.get("id")
        if not isinstance(pid, str) or not pid:
            raise DataFormatError("missing or empty 'id'", path=path, line=no)
        if pid in seen:
            raise DataFormatError(f"duplicate patient id {pid!r}", path=path, line=no)
        seen.add(pid)
        records.append((no, obj))
    if not records:
        raise DataFormatError("no records (empty file)", path=path)
    return records


def read_tsv(path, header: str):
    """The rows of TSV file ``path`` as (line number, fields) pairs. Line 1
    must be ``header``; blank lines are skipped, and every other line has as
    many non-empty tab-separated fields as the header."""
    lines = read_lines(path)
    if not lines or lines[0] != header:
        raise DataFormatError(f"expected header {header!r}", path=path, line=1)
    width = header.count("\t") + 1
    for no, line in enumerate(islice(lines, 1, None), start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != width or "" in fields:
            raise DataFormatError(
                f"expected {width} non-empty tab-separated fields", path=path, line=no
            )
        yield no, fields
