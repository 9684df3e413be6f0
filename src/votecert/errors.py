"""Shared exception types."""


class VoteCertError(Exception):
    """Base class for all library errors."""


class DomainError(VoteCertError):
    """An argument lies outside an operation's domain."""


class CapExceededError(VoteCertError):
    """A size cap would be exceeded; the message names the limit."""


class ValidationError(VoteCertError):
    """An input file or table fails validation."""


class InternalError(VoteCertError):
    """An internal invariant failed: a defect in votecert, not in its input."""
