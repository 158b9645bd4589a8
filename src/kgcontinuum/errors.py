"""Exception types with stable machine-readable codes."""

from __future__ import annotations

# every character str.splitlines() ends a line at, written as repr writes it
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class ContinuumError(Exception):
    """Base error carrying a stable code and an optional location hint.

    Its text, code: message (location), is one line whatever the message
    quotes; message and location keep the raw text.
    """

    def __init__(self, code: str, message: str, location: str | None = None):
        self.code = code
        self.message = message
        self.location = location
        where = f" ({location})" if location else ""
        super().__init__(f"{code}: {message}{where}".translate(_LINE_BREAKS))


class InputError(ContinuumError):
    """Rejected caller input: malformed files, unknown names, bad flag combinations."""


class IntegrityError(ContinuumError):
    """Shipped data or a self-check failed; not recoverable by fixing input."""
