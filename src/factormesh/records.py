"""One reader for the line-record formats: machine images, benchmark
manifests, results, config files and traces.

A record is one line cut at its first `#`, split on whitespace (on `,` for
a trace); blank lines are skipped.  Every error the reader builds names a
line, so a parser built on it rejects bad input with a line number.
"""

from __future__ import annotations

from typing import Optional


class Records:
    """Iterate a text's records as lists of fields.  `line` is the current
    record's 1-based line and, once the records run out, the input's last
    line.  `error` is the caller's exception class, built from a message."""

    def __init__(self, text: str, error: type, sep: Optional[str] = None):
        self._lines = text.splitlines()
        self._error = error
        self._sep = sep
        self.line = 1

    def __iter__(self):
        for self.line, raw in enumerate(self._lines, 1):
            body = raw.split("#", 1)[0].strip()
            if body:
                yield body.split(self._sep)

    def fail(self, message: str, line: Optional[int] = None):
        """Raise the caller's error at `line`, by default the current one."""
        raise self._error("line %d: %s" % (self.line if line is None else line, message))

    def ints(self, fields, n: int, what: str) -> list:
        """The n fields of record `what` as integers."""
        if len(fields) != n:
            self.fail("%s needs %d fields" % (what, n))
        try:
            return [int(f) for f in fields]
        except ValueError:
            self.fail("%s has a non-integer field" % what)
