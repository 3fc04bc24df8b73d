"""Semantic exception hierarchy shared across the package."""


class CfgenError(Exception):
    """Base error for this package."""


class InputError(CfgenError, ValueError):
    """Caller-side problem: bad arguments, mismatched lengths, bad flags."""


class ModelError(CfgenError):
    """Model-side problem: malformed model, missing rows, impossible evidence."""


class EnumerationCapError(CfgenError):
    """Exact enumeration would exceed the configured world cap."""
