"""One reader for the line-record formats: UAI graphs, evidence files,
machine images, benchmark manifests, results, config files and traces.

A record is one line cut at its first `#`, split on whitespace (on `,` for
a trace); blank lines are skipped.  UAI and evidence files read the fields
as one token stream.  Every error the reader builds names a line and carries
it as `line`, so a parser built on it rejects bad input with a line number.
"""

from __future__ import annotations

import re
from typing import Optional

# every format's one integer rule: an optional `-`, then ASCII digits
INTEGER = re.compile(r"-?[0-9]+")


# every format's one real-number rule, which reads back all that %g writes: an
# optional `-`, then ASCII digits, point and exponent, or inf, infinity or nan
REAL = re.compile(r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[-+]?[0-9]+)?|inf|infinity|nan)",
                  re.ASCII | re.IGNORECASE)


def integer(field: str) -> int:
    """`field` as an integer; ValueError unless `INTEGER` matches all of it."""
    if not INTEGER.fullmatch(field):
        raise ValueError("not an integer: %r" % field)
    return int(field)


def real(field: str) -> float:
    """`field` as a float; ValueError unless `REAL` matches all of it."""
    if not REAL.fullmatch(field):
        raise ValueError("not a real number: %r" % field)
    return float(field)


def line_error(error: type, line: int, message: str):
    """`error` for `message` at 1-based `line`, which it carries as `line`."""
    e = error("line %d: %s" % (line, message))
    e.line = line
    return e


class Records:
    """Iterate a text's records as lists of fields.  `line` is the current
    record's 1-based line and, once the records run out, the input's last
    line.  `error` is the caller's exception class, built from a message."""

    def __init__(self, text: str, error: type, sep: Optional[str] = None):
        self._lines = text.splitlines()
        self._error = error
        self._sep = sep
        self.line = 1
        self._tokens = (field for fields in self for field in fields)

    def __iter__(self):
        for self.line, raw in enumerate(self._lines, 1):
            body = raw.split("#", 1)[0].strip()
            if body:
                yield body.split(self._sep)

    def token(self, what: str, cast=integer):
        """The next field, the records' fields read as one stream, by `cast`;
        a missing or unreadable one is an error that names `what`."""
        tok = next(self._tokens, None)
        if tok is None:
            self.fail("unexpected end of input, expected %s" % what)
        try:
            return cast(tok)
        except ValueError:
            self.fail("expected %s, got %r" % (what, tok))

    def at_end(self) -> bool:
        """Whether no token is left; if one is, `line` is now its line."""
        return next(self._tokens, None) is None

    def fail(self, message: str, line: Optional[int] = None):
        """Raise the caller's error at `line`, by default the current one."""
        raise line_error(self._error, self.line if line is None else line, message)

    def ints(self, fields, n: int, what: str) -> list:
        """The n fields of record `what` as integers."""
        if len(fields) != n:
            self.fail("%s needs %d fields" % (what, n))
        if not all(map(INTEGER.fullmatch, fields)):
            self.fail("%s has a non-integer field" % what)
        return list(map(int, fields))
